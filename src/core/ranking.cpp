#include "core/ranking.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/kernels/kernels.hpp"
#include "sim/instrumentation.hpp"
#include "support/check.hpp"

namespace pup {
namespace {

std::atomic<std::int64_t> g_schedules_compiled{0};

/// Slices narrower than the widest kernel block (32 mask bytes) are counted
/// inline by the initial scan: mask_count would spend its whole call in the
/// scalar tail, behind a dispatch per slice.
constexpr dist::index_t kNarrowSlice = 32;

/// A base-rank array.  Allocated without a zero-fill: every buffer that is
/// resize()d is written in full before it is read.
using BaseRanks = support::UninitVector<std::int64_t>;

/// Per-processor working state: the 2d base-rank arrays.
struct Workspace {
  std::vector<BaseRanks> ps;  // ps[i], size level_size(i)
  std::vector<BaseRanks> rs;  // as the PRS left them until the final step
  std::int64_t size = 0;      // step d-1, substep 3
};

/// Level 0's fold when a W_0 = 1 counting scan compacts PS_f: slice s is
/// local element s, so the fold keeps only the selected elements' ranks,
/// written in place over PS_0 in scan order.  Under the ragged 1-D
/// extension the slices past the local extent hold no element and are
/// not folded at all.
void fold_gather_level0(Workspace& w, std::span<const mask_t> local,
                        dist::index_t seg_len, const std::int64_t* seg_add,
                        std::int64_t packed) {
  auto& ps = w.ps[0];
  PUP_DCHECK(local.size() <= ps.size(), "more local elements than slices");
  const std::size_t k = kernels::segmented_prefix_fold_gather(
      w.rs[0].data(), ps.data(), local.size(),
      static_cast<std::size_t>(seg_len), seg_add, local.data(), ps.data());
  PUP_CHECK(static_cast<std::int64_t>(k) == packed,
            "PS_f gathered " << k << " ranks for " << packed
                             << " selected elements");
  ps.resize(k);
}

}  // namespace

std::int64_t ranking_schedules_compiled() {
  return g_schedules_compiled.load(std::memory_order_relaxed);
}

std::int64_t level_bound(const dist::Distribution& dist, int level) {
  PUP_REQUIRE(level >= 0 && level < dist.rank(),
              "level " << level << " outside a rank-" << dist.rank()
                       << " distribution");
  std::int64_t bound = 1;
  auto times = [&bound](std::int64_t f) {
    if (__builtin_mul_overflow(bound, f, &bound)) {
      bound = std::numeric_limits<std::int64_t>::max();
    }
  };
  times(dist.grid().extent(level));
  times(dist.dim(level).block());
  for (int k = 0; k < level; ++k) times(dist.global().extent(k));
  return bound;
}

std::size_t wire_bytes_for(std::int64_t bound) {
  PUP_REQUIRE(bound >= 0, "a wire bound is a count, not " << bound);
  const auto b = static_cast<std::uint64_t>(bound);
  if (b <= std::numeric_limits<std::uint8_t>::max()) return 1;
  if (b <= std::numeric_limits<std::uint16_t>::max()) return 2;
  if (b <= std::numeric_limits<std::uint32_t>::max()) return 4;
  return 8;
}

std::size_t index_wire_bytes(const dist::BlockCyclicDim& vdim,
                             coll::WireWidth width) {
  return index_wire_bytes(vdim.local_extent_on(0), width);
}

std::size_t index_wire_bytes(std::int64_t largest_extent,
                             coll::WireWidth width) {
  return width == coll::WireWidth::k64 ? sizeof(std::int64_t)
                                       : wire_bytes_for(largest_extent);
}

RankingSchedule compile_ranking_schedule(const dist::Distribution& dist,
                                         int nprocs,
                                         coll::PrsAlgorithm prs,
                                         coll::WireWidth width,
                                         const sim::CostModel& cost) {
  PUP_REQUIRE(dist.nprocs() == nprocs,
              "distribution grid size " << dist.nprocs()
                                        << " != machine size " << nprocs);
  RankingSchedule s;
  s.dist = dist;
  s.d = dist.rank();
  const int d = s.d;
  s.L.resize(static_cast<std::size_t>(d));
  s.W.resize(static_cast<std::size_t>(d));
  s.T.resize(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    const auto& dim = dist.dim(k);
    // The paper assumes P_k*W_k | N_k.  As an extension, one-dimensional
    // arrays may be ragged: in block-cyclic layout only the final tile can
    // be partial, so the per-tile machinery stays uniform (missing blocks
    // just count zero).  Multi-dimensional raggedness would give the
    // processors differently-shaped base-rank arrays and is not supported.
    PUP_REQUIRE(d == 1 || dim.divisible(),
                "ranking requires P_k*W_k | N_k on every dimension of a "
                "multi-dimensional array (violated on dimension "
                    << k << ": N=" << dim.extent() << ", P=" << dim.nprocs()
                    << ", W=" << dim.block() << ")");
    s.L[static_cast<std::size_t>(k)] =
        dim.divisible() ? dim.local_extent() : -1;
    s.W[static_cast<std::size_t>(k)] = dim.block();
    s.T[static_cast<std::size_t>(k)] = dim.tiles();
    // The SSS records and per-slice counts store local indices and in-slice
    // ranks as int32 (ranking.hpp).  Both are bounded by the local extent
    // T_k*W_k, which also covers the ragged 1-D case where local_extent()
    // is undefined (only the last tile may be short).  Reject up front
    // rather than truncating deep inside the scan.
    const std::int64_t local_bound =
        static_cast<std::int64_t>(dim.tiles()) * dim.block();
    PUP_REQUIRE(local_bound <= std::numeric_limits<std::int32_t>::max(),
                "local extent " << local_bound << " on dimension " << k
                                << " exceeds the int32 slice-record range");
  }
  s.slice_width = s.W[0];
  s.info_stride = sss_info_stride(d);

  // Per-dimension step schedule.  level_size(i) = T_i * prod_{k>i} L_k; note
  // the product never touches L[0], so the ragged 1-D sentinel is safe.
  s.steps.resize(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) {
    RankingStep& step = s.steps[static_cast<std::size_t>(i)];
    step.level_size = s.T[static_cast<std::size_t>(i)];
    for (int k = i + 1; k < d; ++k) {
      step.level_size *= s.L[static_cast<std::size_t>(k)];
    }
    step.seg_len = (i == d - 1)
                       ? step.level_size
                       : s.W[static_cast<std::size_t>(i + 1)] *
                             s.T[static_cast<std::size_t>(i)];
    for (const auto& ranks : dist.grid().groups_along(i)) {
      step.groups.emplace_back(ranks);
    }
    step.wire_bytes = width == coll::WireWidth::k64
                          ? sizeof(std::int64_t)
                          : wire_bytes_for(level_bound(dist, i));
    // Resolve the PRS algorithm now, with the single-request vector length
    // at the step's wire width, so a batched execution runs the exact round
    // structure the unbatched path would (fusing B requests must not flip
    // the direct/split choice).
    step.prs = coll::resolve_prs(prs, dist.grid().extent(i),
                                 static_cast<std::size_t>(step.level_size),
                                 step.wire_bytes, cost);
  }
  s.slices = s.steps[0].level_size;  // C = T_0 * prod_{k>=1} L_k
  g_schedules_compiled.fetch_add(1, std::memory_order_relaxed);
  return s;
}

std::vector<RankingResult> rank_masks(
    sim::Machine& machine, const RankingSchedule& sched,
    std::span<const dist::DistArray<mask_t>* const> masks,
    bool record_infos) {
  const int P = machine.nprocs();
  PUP_REQUIRE(sched.dist.nprocs() == P,
              "schedule grid size " << sched.dist.nprocs()
                                    << " != machine size " << P);
  const std::size_t B = masks.size();
  PUP_REQUIRE(B >= 1, "rank_masks needs at least one mask");
  for (std::size_t b = 0; b < B; ++b) {
    PUP_REQUIRE(masks[b] != nullptr, "rank_masks: null mask at index " << b);
    PUP_REQUIRE(masks[b]->dist() == sched.dist,
                "rank_masks: mask " << b
                                    << " is not laid out by the schedule's "
                                       "distribution");
  }
  const int d = sched.d;
  // A W_0 = 1 counting scan hands back PS_f gathered under the mask.
  const bool compact_w1 = !record_infos && sched.W[0] == 1;

  std::vector<RankingResult> results(B);
  for (std::size_t b = 0; b < B; ++b) {
    results[b].slice_width = sched.slice_width;
    results[b].slices = sched.slices;
    results[b].procs.resize(static_cast<std::size_t>(P));
  }

  std::vector<std::vector<Workspace>> ws(
      B, std::vector<Workspace>(static_cast<std::size_t>(P)));

  // ----- Initial step: local scan over slices (Section 5.2) ---------------
  // Only PS_0 is written: RS_0 = PS_0 on entry to step 0, and its PRS takes
  // PS_0 alone and hands RS_0 back as the reduction.
  {
    sim::PhaseScope initial_phase(machine, "ranking.initial");
    machine.local_phase([&](int rank) {
      for (std::size_t b = 0; b < B; ++b) {
        const dist::DistArray<mask_t>& mask = *masks[b];
        auto& w = ws[b][static_cast<std::size_t>(rank)];
        auto& out = results[b].procs[static_cast<std::size_t>(rank)];
        w.ps.resize(static_cast<std::size_t>(d));
        w.rs.resize(static_cast<std::size_t>(d));

        const std::span<const mask_t> local = mask.local(rank);
        const dist::index_t W0 = sched.W[0];
        const dist::index_t C = sched.slices;
        const auto n_local = static_cast<dist::index_t>(local.size());

        // Slice s covers local storage [s*W_0, s*W_0 + W_0), clipped to the
        // local extent: under the ragged 1-D extension only the last tile
        // is partial, so the final slices may be short or empty.  In the
        // divisible case every slice has width W_0.
        auto slice_width = [&](dist::index_t s) -> dist::index_t {
          const dist::index_t remaining = n_local - s * W0;
          if (remaining <= 0) return 0;
          return remaining < W0 ? remaining : W0;
        };

        if (compact_w1) {
          // W_0 = 1: PS_0 is mask[s] != 0, written once by one widening
          // pass into storage that was not zero-filled; a slice's count is
          // its mask byte, so no count array is kept.  Under the ragged 1-D
          // extension the slices past the local extent hold no element:
          // they are written as zeros here, since no fill did.
          PUP_DCHECK(n_local <= C, "more local elements than slices");
          auto& ps0 = w.ps[0];
          ps0.resize(static_cast<std::size_t>(C));
          out.packed = kernels::mask_widen(
              local.data(), static_cast<std::size_t>(n_local), ps0.data());
          std::fill(ps0.begin() + n_local, ps0.end(), 0);
          continue;
        }

        // Counts are kept only for slices wider than one element.
        const bool keep_counts = W0 != 1;
        w.ps[0].assign(static_cast<std::size_t>(C), 0);
        if (keep_counts) out.counts.assign(static_cast<std::size_t>(C), 0);
        if (!record_infos) {
          // Counting-only scan.  Narrow slices are counted inline in one
          // pass -- a kernel call per slice would cost more than the slice
          // -- and wide slices go to mask_count.
          std::int64_t* ps0 = w.ps[0].data();
          std::int32_t* counts = out.counts.data();
          std::int64_t packed = 0;
          for (dist::index_t s = 0; s < C; ++s) {
            const dist::index_t width = slice_width(s);
            if (width == 0) continue;  // a ragged tail slice counts zero
            const mask_t* slice = local.data() + s * W0;
            std::int64_t cnt = 0;
            if (W0 < kNarrowSlice) {
              for (dist::index_t off = 0; off < width; ++off) {
                cnt += (slice[off] != 0);
              }
            } else {
              cnt = kernels::mask_count(slice, static_cast<std::size_t>(width));
            }
            ps0[s] = cnt;
            counts[s] = checked_slice_count(cnt);
            packed += cnt;
          }
          out.packed = packed;
          continue;
        }

        // Slice-coordinate odometer: a slice s decomposes as
        // (t_0, c_1, ..., c_{d-1}) with the tile index fastest-varying; the
        // simple storage scheme records one local index per dimension.
        std::vector<std::int32_t> coords(static_cast<std::size_t>(d), 0);

        for (dist::index_t s = 0; s < C; ++s) {
          const dist::index_t base = s * W0;
          std::int64_t cnt = 0;
          const dist::index_t width = slice_width(s);
          for (dist::index_t off = 0; off < width; ++off) {
            if (local[static_cast<std::size_t>(base + off)]) {
              // Record layout: [l_0, ..., l_{d-1}, tile_0, init_rank].
              out.info_words.push_back(
                  static_cast<std::int32_t>(coords[0] * W0 + off));
              for (int k = 1; k < d; ++k) {
                out.info_words.push_back(coords[static_cast<std::size_t>(k)]);
              }
              out.info_words.push_back(coords[0]);  // tile number on dim 0
              out.info_words.push_back(checked_slice_count(cnt));
              ++cnt;
            }
          }
          w.ps[0][static_cast<std::size_t>(s)] = cnt;
          if (keep_counts) {
            out.counts[static_cast<std::size_t>(s)] = checked_slice_count(cnt);
          }
          out.packed += cnt;
          // Advance the slice odometer: t_0 runs over [0, T_0), then c_k
          // over [0, L_k).
          for (int k = 0; k < d; ++k) {
            auto& v = coords[static_cast<std::size_t>(k)];
            const dist::index_t limit =
                (k == 0) ? sched.T[0] : sched.L[static_cast<std::size_t>(k)];
            if (++v < limit) break;
            v = 0;
          }
        }
      }
    });
  }

  // ----- Intermediate steps (Section 5.3, Figure 2) -----------------------
  for (int i = 0; i < d; ++i) {
    const RankingStep& step = sched.steps[static_cast<std::size_t>(i)];
    const dist::index_t size_i = step.level_size;

    // Substep 1: vector prefix-reduction-sum along grid dimension i.  The
    // B requests' PS_i payloads are concatenated per rank so each group
    // runs *one* PRS of length B*size_i: int64 element-wise sums commute
    // with concatenation, and with B == 1 this is the plain move-in/move-
    // out of the unbatched algorithm.
    std::vector<BaseRanks> prefix_bufs(static_cast<std::size_t>(P));
    std::vector<BaseRanks> total_bufs(static_cast<std::size_t>(P));
    // Batched copies presize and bulk-copy: UninitVector's insert and
    // assign(first, last) construct element by element.
    const auto len = static_cast<std::size_t>(size_i);
    for (int rank = 0; rank < P; ++rank) {
      auto& buf = prefix_bufs[static_cast<std::size_t>(rank)];
      if (B == 1) {
        buf = std::move(ws[0][static_cast<std::size_t>(rank)]
                            .ps[static_cast<std::size_t>(i)]);
      } else {
        buf.resize(B * len);
        for (std::size_t b = 0; b < B; ++b) {
          const auto& ps =
              ws[b][static_cast<std::size_t>(rank)].ps[static_cast<std::size_t>(i)];
          std::copy(ps.begin(), ps.end(),
                    buf.begin() + static_cast<std::ptrdiff_t>(b * len));
        }
      }
    }
    // A payload entry past the proven bound (a wrong schedule width)
    // throws from the narrowing compose, naming the entry and the width.
    for (const coll::Group& group : step.groups) {
      coll::prefix_reduction_sum(machine, group, step.prs, prefix_bufs,
                                 total_bufs, sim::Category::kPrs,
                                 step.wire_bytes);
    }
    for (int rank = 0; rank < P; ++rank) {
      auto& prefix = prefix_bufs[static_cast<std::size_t>(rank)];
      auto& total = total_bufs[static_cast<std::size_t>(rank)];
      if (B == 1) {
        auto& w = ws[0][static_cast<std::size_t>(rank)];
        w.ps[static_cast<std::size_t>(i)] = std::move(prefix);
        w.rs[static_cast<std::size_t>(i)] = std::move(total);
      } else {
        for (std::size_t b = 0; b < B; ++b) {
          auto& w = ws[b][static_cast<std::size_t>(rank)];
          const auto at = static_cast<std::ptrdiff_t>(b * len);
          const auto end = at + static_cast<std::ptrdiff_t>(len);
          auto& ps = w.ps[static_cast<std::size_t>(i)];
          auto& rs = w.rs[static_cast<std::size_t>(i)];
          ps.resize(len);
          rs.resize(len);
          std::copy(prefix.begin() + at, prefix.begin() + end, ps.begin());
          std::copy(total.begin() + at, total.begin() + end, rs.begin());
        }
      }
    }

    // Substeps 2 and 3: local prefix machinery.
    machine.local_phase([&](int rank) {
      for (std::size_t b = 0; b < B; ++b) {
        auto& w = ws[b][static_cast<std::size_t>(rank)];
        auto& ps = w.ps[static_cast<std::size_t>(i)];
        const auto& rs = w.rs[static_cast<std::size_t>(i)];
        PUP_DCHECK(static_cast<dist::index_t>(ps.size()) == size_i,
                   "PS_i size mismatch");

        // Substeps 2.1-2.4 and 3, deferred.  A segment spans one block of
        // dimension i+1 (W_{i+1} rows of T_i tile entries), and the next
        // level needs only each segment's total, the seed of PS_{i+1}
        // (RS_{i+1} needs none: its PRS returns it).  The segmented
        // exclusive prefix over RS_i and its fold into PS_i wait for the
        // final step, which adds them together with the finished level
        // i+1 in one pass.  On the last step there is a single segment:
        // its total is Size, and its fold runs here (for d = 1 that is
        // level 0's fold, which compact_w1 fuses with the gather).
        const dist::index_t seg_len = step.seg_len;
        PUP_DCHECK(size_i % seg_len == 0, "segment length must tile RS_i");
        if (i != d - 1) {
          auto& ps_next = w.ps[static_cast<std::size_t>(i + 1)];
          ps_next.resize(static_cast<std::size_t>(size_i / seg_len));
          kernels::segment_sums(rs.data(), static_cast<std::size_t>(size_i),
                                static_cast<std::size_t>(seg_len),
                                ps_next.data());
        } else {
          const std::int64_t no_addend = 0;
          kernels::segment_sums(rs.data(), static_cast<std::size_t>(size_i),
                                static_cast<std::size_t>(size_i), &w.size);
          if (i == 0 && compact_w1) {
            fold_gather_level0(w, masks[b]->local(rank), size_i, &no_addend,
                               results[b].procs[static_cast<std::size_t>(rank)]
                                   .packed);
          } else {
            kernels::segmented_prefix_fold(
                rs.data(), ps.data(), static_cast<std::size_t>(size_i),
                static_cast<std::size_t>(size_i), &no_addend);
          }
        }
      }
    });
  }

  // All processors must agree on Size (it is a global quantity).
  for (std::size_t b = 0; b < B; ++b) {
    results[b].size = ws[b][0].size;
    for (int rank = 1; rank < P; ++rank) {
      PUP_CHECK(ws[b][static_cast<std::size_t>(rank)].size == results[b].size,
                "processors disagree on Size");
    }
  }

  // ----- Final step: fold the base-rank arrays into PS_f (Section 5.4) ----
  // Level by level from the top, each in one pass: the deferred substeps
  // 2.2-2.4 (the segmented exclusive prefix of RS_i) plus the finished
  // PS_{i+1} entry of the segment.  Element e = t + T_i*(c + L_{i+1}*r)
  // lies in segment e / (W_{i+1}*T_i) = c / W_{i+1} + T_{i+1}*r, which is
  // exactly the level-(i+1) slot its base rank is offset by.  Level 0 of
  // a W_0 = 1 counting scan folds and gathers under the mask in one pass.
  sim::PhaseScope final_phase(machine, "ranking.final");
  machine.local_phase([&](int rank) {
    for (std::size_t b = 0; b < B; ++b) {
      auto& w = ws[b][static_cast<std::size_t>(rank)];
      auto& out = results[b].procs[static_cast<std::size_t>(rank)];
      for (int i = d - 2; i >= 0; --i) {
        const auto ui = static_cast<std::size_t>(i);
        if (i == 0 && compact_w1) {
          fold_gather_level0(w, masks[b]->local(rank), sched.steps[0].seg_len,
                             w.ps[1].data(), out.packed);
          continue;
        }
        kernels::segmented_prefix_fold(
            w.rs[ui].data(), w.ps[ui].data(), w.ps[ui].size(),
            static_cast<std::size_t>(sched.steps[ui].seg_len),
            w.ps[ui + 1].data());
      }
      out.ps_f = std::move(w.ps[0]);
    }
  });

  return results;
}

RankingResult rank_mask(sim::Machine& machine,
                        const dist::DistArray<mask_t>& mask,
                        const RankingOptions& options) {
  const RankingSchedule sched = compile_ranking_schedule(
      mask.dist(), machine.nprocs(), options.prs, options.wire_width,
      machine.cost());
  const dist::DistArray<mask_t>* one = &mask;
  std::vector<RankingResult> results = rank_masks(
      machine, sched, std::span<const dist::DistArray<mask_t>* const>(&one, 1),
      options.record_infos);
  return std::move(results[0]);
}

}  // namespace pup
