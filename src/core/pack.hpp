// Parallel PACK (paper, Sections 4.1 and 6.1-6.2).
//
// PACK gathers the elements of a distributed array selected by a
// conformable, aligned mask into a rank-one result vector (block-distributed
// by default).  The two stages are:
//
//   1. Ranking -- rank_mask() computes each selected element's global rank
//      without moving array data.
//   2. Redistribution -- many-to-many personalized communication ships each
//      selected value to the result-vector owner of its rank, addressed by
//      the owner's local index of that rank, sent at the width the result
//      layout proves (index_wire_bytes).
//
// Three storage/message-composition schemes are provided:
//
//   * Simple storage scheme (SSS): the initial scan records one info record
//     per selected element; message composition replays the records.  One
//     local scan, but ~4 memory operations per selected element.  Messages
//     are (index, value) pairs.
//   * Compact storage scheme (CSS): nothing is recorded; composition
//     re-scans each slice that the counter array PS_c shows to be nonempty
//     (stopping early once all of its selected elements are found).
//     Messages are (index, value) pairs.
//   * Compact message scheme (CMS): CSS storage, but messages are run-length
//     segments (base index, count, values...) exploiting that ranks within
//     a slice are consecutive.
//
// PackScheme::kAuto applies the Section 6.4 analytical model to a sampled
// density estimate (shared across processors with a tiny all-reduce).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coll/alltoallv.hpp"
#include "coll/group.hpp"
#include "core/cost_model_analysis.hpp"
#include "core/density.hpp"
#include "core/kernels/kernels.hpp"
#include "core/mask.hpp"
#include "core/ranking.hpp"
#include "core/schemes.hpp"
#include "dist/dist_array.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace pup {

template <typename T>
struct PackResult {
  /// The packed vector; extent == size unless an F90 VECTOR argument
  /// provided padding.
  dist::DistArray<T> vector;
  /// Number of selected elements.
  std::int64_t size = 0;
  /// The scheme actually used (after kAuto resolution).
  PackScheme scheme = PackScheme::kCompactMessage;
  /// Per-processor counters in the Section 6.4 vocabulary.
  std::vector<ProcCounters> counters;
};

namespace detail {

/// Invokes fn(dest_proc, base_rank, count) for each maximal run of
/// consecutive ranks in [r0, r0+n) owned by a single result-vector
/// processor.  Runs break exactly at distribution block boundaries, so the
/// segment count grows as the result block size shrinks (Section 6.2).
template <typename F>
void for_each_dest_run(const dist::BlockCyclicDim& vdim, std::int64_t r0,
                       std::int64_t n, F&& fn) {
  std::int64_t pos = r0;
  const std::int64_t end = r0 + n;
  while (pos < end) {
    const int dest = vdim.owner(pos);
    const std::int64_t block_end = (pos / vdim.block() + 1) * vdim.block();
    const std::int64_t run_end = block_end < end ? block_end : end;
    fn(dest, pos, run_end - pos);
    pos = run_end;
  }
}

/// Stage 2c for one received payload: unloads it into `vlocal`, the
/// receiver's share of the result vector.  The payload holds (index, value)
/// pairs, or under CMS (index, count, values...) segments, every index and
/// count `iw` bytes wide.  Every index, and every CMS run's end, is checked
/// against vlocal's extent, so a corrupt stream throws ContractError
/// instead of writing out of bounds.
template <typename T>
void pack_decompose(std::span<const std::byte> payload, std::span<T> vlocal,
                    std::size_t iw, bool cms, ProcCounters& ctr) {
  ByteReader r(payload);
  const std::size_t extent = vlocal.size();
  while (!r.done()) {
    const std::uint64_t l0 = r.get_uint(iw);
    if (cms) {
      const std::uint64_t count = r.get_uint(iw);
      PUP_REQUIRE(l0 <= extent && count <= extent - l0,
                  "PACK: a run of " << count << " at local index " << l0
                                    << " overruns the local extent "
                                    << extent);
      ++ctr.segments_recv;
      const auto n = static_cast<std::size_t>(count);
      kernels::run_decode<T>(r.get_raw(n * sizeof(T)).data(), n,
                             vlocal.data() + l0);
      ctr.recv_elems += static_cast<dist::index_t>(n);
    } else {
      PUP_REQUIRE(l0 < extent, "PACK: local index "
                                   << l0 << " outside the local extent "
                                   << extent);
      vlocal[static_cast<std::size_t>(l0)] = r.get<T>();
      ++ctr.recv_elems;
    }
  }
}

/// kAuto resolution: the sampled global density (sample_density) fed to
/// the Section 6.4 selector.
inline PackScheme resolve_pack_scheme(sim::Machine& machine,
                                      const dist::DistArray<mask_t>& mask,
                                      PackScheme requested) {
  if (requested != PackScheme::kAuto) return requested;
  return choose_pack_scheme(mask.dist().local_size(0),
                            mask.dist().dim(0).block(),
                            sample_density(machine, mask), machine.nprocs());
}

/// Redistribution stage, shared by the direct path and the plan executor:
/// runs compose / many-to-many / decompose for a mask whose ranking has
/// already been computed.  `scheme` must be concrete (kAuto is resolved by
/// the callers), `result_dist` is the layout of the result vector, and
/// `init_from` optionally supplies F90 VECTOR padding (same dist).
template <typename T>
PackResult<T> pack_execute(sim::Machine& machine,
                           const dist::DistArray<T>& array,
                           const dist::DistArray<mask_t>& mask,
                           const RankingResult& ranking,
                           PackScheme scheme,
                           std::optional<dist::Distribution> result_dist,
                           const dist::DistArray<T>* init_from,
                           const PackOptions& options) {
  PUP_REQUIRE(scheme != PackScheme::kAuto,
              "pack_execute requires a concrete scheme");
  const int P = machine.nprocs();

  PackResult<T> out;
  out.scheme = scheme;
  const bool sss = scheme == PackScheme::kSimpleStorage;
  const bool cms = scheme == PackScheme::kCompactMessage;
  out.size = ranking.size;

  // Result vector layout.
  if (!result_dist.has_value()) {
    result_dist = dist::Distribution::block1d(ranking.size, P);
  }
  PUP_REQUIRE(result_dist->rank() == 1, "PACK result must be rank one");
  PUP_REQUIRE(result_dist->global().extent(0) >= ranking.size,
              "PACK: result vector extent " << result_dist->global().extent(0)
                                            << " < selected count "
                                            << ranking.size);
  const dist::BlockCyclicDim vdim = result_dist->dim(0);
  const std::size_t iw = index_wire_bytes(vdim, options.wire_width);
  out.vector = dist::DistArray<T>(*result_dist);
  if (init_from != nullptr) {
    machine.local_phase([&](int rank) {
      auto dst = out.vector.local(rank);
      const auto src = init_from->local(rank);
      PUP_CHECK(dst.size() == src.size(), "VECTOR layout mismatch");
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
    });
  }

  out.counters.resize(static_cast<std::size_t>(P));
  const dist::index_t W0 = ranking.slice_width;
  const dist::index_t C = ranking.slices;

  // Stage 2a: message composition.  The phase annotations mark checkpoints
  // where no message may be in flight; successive stages nest.
  coll::ByteBuffers send(static_cast<std::size_t>(P));
  for (auto& row : send) row.resize(static_cast<std::size_t>(P));

  sim::PhaseScope compose_phase(machine, "pack.compose");
  machine.local_phase([&](int rank) {
    const auto& pr = ranking.procs[static_cast<std::size_t>(rank)];
    auto& ctr = out.counters[static_cast<std::size_t>(rank)];
    ctr.local_elems = mask.dist().local_size(rank);
    ctr.slices = C;
    ctr.packed = pr.packed;

    const auto avals = array.local(rank);
    // Arena-backed writers: composition reuses this rank's retired payload
    // capacity instead of growing P fresh vectors every round.
    std::vector<ByteWriter> writers;
    writers.reserve(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      writers.emplace_back(&machine.payload_arena(rank));
    }

    if (sss) {
      // Replay the (d+2)-word records: reconstruct the slice id (to index
      // PS_f) and the local linear index (to fetch the value) from the
      // per-dimension local indices and the tile number.
      const dist::Shape lshape = mask.dist().local_shape(rank);
      const int stride = sss_info_stride(lshape.rank());
      for (std::size_t base = 0; base < pr.info_words.size();
           base += static_cast<std::size_t>(stride)) {
        const SssRecord rec =
            decode_sss_record(pr.info_words.data() + base, lshape, W0);
        const std::int64_t r =
            rec.init_rank + pr.ps_f[static_cast<std::size_t>(rec.slice)];
        auto& w = writers[static_cast<std::size_t>(vdim.owner(r))];
        w.put_uint(static_cast<std::uint64_t>(vdim.local_index(r)), iw);
        w.put<T>(avals[static_cast<std::size_t>(rec.local_linear)]);
      }
    } else {
      const auto mvals = mask.local(rank);
      std::vector<T> slice_vals(static_cast<std::size_t>(W0));
      // With W_0 = 1 the ranking keeps no counts -- slice s is element s --
      // and PS_f holds only the selected slices' ranks, in scan order.
      PUP_CHECK(W0 != 1 ||
                    pr.ps_f.size() == static_cast<std::size_t>(pr.packed),
                "W_0 = 1 PS_f is not gathered under the mask");
      std::size_t next_w1 = 0;
      for (dist::index_t s = 0; s < C; ++s) {
        const auto us = static_cast<std::size_t>(s);
        std::int32_t n = 0;
        if (W0 != 1) {
          n = pr.counts[us];
        } else if (us < mvals.size()) {
          n = mvals[us] != 0;
        }
        if (n == 0) continue;
        // Slice scan (Section 6.1): method 1 stops once all n selected
        // elements of the slice have been collected; method 2 always scans
        // the full slice (kept for the paper's scanning-method comparison).
        // The gather kernels clip to the ragged slice extent; stop-early
        // (method 1) additionally exits once all n elements are found.
        // slice_vals is W_0-sized, satisfying the kernels' speculative-
        // store capacity contract.
        const dist::index_t base = s * W0;
        const std::size_t limit = static_cast<std::size_t>(
            std::min<dist::index_t>(
                W0, static_cast<dist::index_t>(mvals.size()) - base));
        const std::int32_t found = static_cast<std::int32_t>(
            options.slice_scan == SliceScan::kStopEarly
                ? kernels::mask_gather_first_n<T>(
                      mvals.data() + static_cast<std::size_t>(base),
                      avals.data() + static_cast<std::size_t>(base), limit,
                      static_cast<std::size_t>(n), slice_vals.data())
                : kernels::mask_gather<T>(
                      mvals.data() + static_cast<std::size_t>(base),
                      avals.data() + static_cast<std::size_t>(base), limit,
                      slice_vals.data()));
        PUP_DCHECK(found == n, "slice counter mismatch");
        (void)found;
        // A slice's ranks are consecutive, and so are their local indices
        // within each destination run.
        const std::int64_t r0 = pr.ps_f[W0 == 1 ? next_w1++ : us];
        const T* vals = slice_vals.data();
        for_each_dest_run(
            vdim, r0, n,
            [&](int dest, std::int64_t run_base, std::int64_t run_len) {
              auto& w = writers[static_cast<std::size_t>(dest)];
              const auto l0 =
                  static_cast<std::uint64_t>(vdim.local_index(run_base));
              const auto len = static_cast<std::size_t>(run_len);
              if (cms) {
                w.put_uint(l0, iw);
                w.put_uint(len, iw);
                w.put_span<T>({vals, len});
                ++ctr.segments_sent;
              } else {
                for (std::size_t j = 0; j < len; ++j) {
                  w.put_uint(l0 + j, iw);
                  w.put<T>(vals[j]);
                }
              }
              vals += len;
            });
      }
    }
    for (int p = 0; p < P; ++p) {
      ctr.bytes_sent += static_cast<dist::index_t>(
          writers[static_cast<std::size_t>(p)].size());
      send[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          writers[static_cast<std::size_t>(p)].take();
    }
  });

  // Stage 2b: many-to-many personalized communication.
  coll::ByteBuffers recv =
      coll::alltoallv(machine, coll::Group::world(P), std::move(send),
                      options.schedule, sim::Category::kM2M);

  // Stage 2c: message decomposition.
  sim::PhaseScope decompose_phase(machine, "pack.decompose");
  machine.local_phase([&](int rank) {
    auto& ctr = out.counters[static_cast<std::size_t>(rank)];
    const auto vlocal = out.vector.local(rank);
    for (int p = 0; p < P; ++p) {
      auto& payload =
          recv[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)];
      ctr.bytes_recv += static_cast<dist::index_t>(payload.size());
      pack_decompose<T>(payload, vlocal, iw, cms, ctr);
      // The payload is fully consumed; recycle its capacity for the next
      // round's composition on this rank.
      machine.payload_arena(rank).release(std::move(payload));
    }
  });

  return out;
}

/// Shared implementation: resolve the scheme, compile-and-run the ranking,
/// then execute the redistribution.
template <typename T>
PackResult<T> pack_impl(sim::Machine& machine,
                        const dist::DistArray<T>& array,
                        const dist::DistArray<mask_t>& mask,
                        std::optional<dist::Distribution> result_dist,
                        const dist::DistArray<T>* init_from,
                        const PackOptions& options) {
  PUP_REQUIRE(array.dist() == mask.dist(),
              "PACK: mask must be conformable with and aligned to the array");
  const PackScheme scheme =
      resolve_pack_scheme(machine, mask, options.scheme);

  RankingOptions ropt;
  ropt.prs = options.prs;
  ropt.wire_width = options.wire_width;
  ropt.record_infos = scheme == PackScheme::kSimpleStorage;
  const RankingResult ranking = rank_mask(machine, mask, ropt);

  return pack_execute<T>(machine, array, mask, ranking, scheme,
                         std::move(result_dist), init_from, options);
}

}  // namespace detail

/// PACK(array, mask): result vector of extent == number of selected
/// elements, block-distributed over the machine.
template <typename T>
PackResult<T> pack(sim::Machine& machine, const dist::DistArray<T>& array,
                   const dist::DistArray<mask_t>& mask,
                   const PackOptions& options = {}) {
  return detail::pack_impl<T>(machine, array, mask, std::nullopt, nullptr,
                              options);
}

/// PACK(array, mask, vector): F90 semantics with a VECTOR argument -- the
/// result takes `vector`'s extent and distribution, and positions past the
/// selected count keep `vector`'s values.
template <typename T>
PackResult<T> pack(sim::Machine& machine, const dist::DistArray<T>& array,
                   const dist::DistArray<mask_t>& mask,
                   const dist::DistArray<T>& vector,
                   const PackOptions& options = {}) {
  PUP_REQUIRE(vector.dist().rank() == 1, "VECTOR argument must be rank one");
  return detail::pack_impl<T>(machine, array, mask, vector.dist(), &vector,
                              options);
}

}  // namespace pup
