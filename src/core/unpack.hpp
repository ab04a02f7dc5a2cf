// Parallel UNPACK (paper, Section 4.2).
//
// UNPACK scatters a distributed vector V into a rank-d result array under a
// mask: positions with a true mask take successive elements of V (in array
// element order); positions with a false mask copy the corresponding
// element of the field array F locally.
//
// After the ranking stage every processor knows, for each of its true mask
// positions, the rank r such that the position must receive V[r] -- but the
// *owners* of V do not know who needs their data (UNPACK is a READ).  The
// redistribution stage is therefore two-phase: each processor sends request
// lists to the owners, and the owners answer with the values in request
// order.  A request is the owner's local index of the rank, at the width
// the layout of V proves (index_wire_bytes).  On the paper's int64 wire
// (WireWidth::k64) this doubles the communication volume relative to
// PACK, matching the paper's observation; the narrow wire makes the
// request round cheaper than the reply round.
//
// Two storage schemes are evaluated by the paper and implemented here:
// simple storage (per-element infos recorded in the initial scan) and
// compact storage (ranks re-derived from PS_c/PS_f with extra local scans).
// UnpackScheme::kAuto applies the Section 6.4 analytical model to a sampled
// density estimate (shared across processors with a tiny all-reduce),
// mirroring PackScheme::kAuto.
#pragma once

#include <cstdint>
#include <memory>
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
#include "support/uninit.hpp"

namespace pup {

template <typename T>
struct UnpackResult {
  /// The result array A (same shape/distribution as the mask).
  dist::DistArray<T> result;
  /// Number of vector elements consumed (the mask's true count).
  std::int64_t size = 0;
  /// The scheme actually used (after kAuto resolution).
  UnpackScheme scheme = UnpackScheme::kCompactStorage;
  std::vector<ProcCounters> counters;
};

namespace detail {

/// kAuto resolution for UNPACK: the sampled global density (sample_density)
/// fed to the Section 6.4 selector, restricted to the two storage schemes
/// the paper evaluates for UNPACK.
inline UnpackScheme resolve_unpack_scheme(sim::Machine& machine,
                                          const dist::DistArray<mask_t>& mask,
                                          UnpackScheme requested) {
  if (requested != UnpackScheme::kAuto) return requested;
  return choose_unpack_scheme(mask.dist().local_size(0),
                              mask.dist().dim(0).block(),
                              sample_density(machine, mask), machine.nprocs());
}

/// A stretch of one processor's scan-ordered requests that falls in a
/// single V block, hence goes to (and is answered by) a single owner.
struct RequestRun {
  int owner = 0;
  std::size_t count = 0;
};

/// Redistribution stage, shared by the direct path and the plan executor:
/// runs the two-phase request/reply exchange for a mask whose ranking has
/// already been computed.  `scheme` must be concrete (kAuto is resolved by
/// the callers).
///
/// The local phases work on runs, not elements.  Each processor lists its
/// requested ranks in scan order and cuts the list into runs at V's block
/// boundaries; a run ships to its owner as one checked narrowing of its
/// ranks to the owner's local indices, and comes back as one contiguous
/// stretch of that owner's reply.  Owners answer a whole request stream
/// with one indexed gather that range-checks every index against their
/// local extent.  Placement reassembles the scan-ordered values
/// run by run and writes the result's local storage: for CSS one merge of
/// the values and the field over the local mask (a CSS slice s covers
/// local storage [s*W_0, s*W_0 + W_0), so scan order *is* local storage
/// order), for SSS a copy of the field overwritten record by record.
template <typename T>
UnpackResult<T> unpack_execute(sim::Machine& machine,
                               const dist::DistArray<T>& v,
                               const dist::DistArray<mask_t>& mask,
                               const dist::DistArray<T>& field,
                               const RankingResult& ranking,
                               UnpackScheme scheme,
                               const UnpackOptions& options) {
  PUP_REQUIRE(scheme != UnpackScheme::kAuto,
              "unpack_execute requires a concrete scheme");
  const int P = machine.nprocs();
  const bool sss = scheme == UnpackScheme::kSimpleStorage;
  PUP_REQUIRE(v.dist().global().extent(0) >= ranking.size,
              "UNPACK: vector extent " << v.dist().global().extent(0)
                                       << " < true mask count "
                                       << ranking.size);
  const dist::BlockCyclicDim vdim = v.dist().dim(0);
  const std::size_t iw = index_wire_bytes(vdim, options.wire_width);
  const dist::index_t W0 = ranking.slice_width;
  const dist::index_t C = ranking.slices;

  UnpackResult<T> out;
  out.size = ranking.size;
  out.scheme = scheme;
  out.counters.resize(static_cast<std::size_t>(P));

  // Each processor's request runs, in scan order: cut in phase A, replayed
  // against the reply streams in phase C.
  std::vector<std::vector<RequestRun>> runs(static_cast<std::size_t>(P));

  // Phase A: request composition -- each processor asks V's owners for the
  // ranks it needs, in its local scan order.  SSS replays the recorded
  // infos; CSS derives ranks from PS_c/PS_f alone.  The phase annotations
  // mark checkpoints where no message may be in flight; successive stages
  // nest.
  coll::ByteBuffers requests(static_cast<std::size_t>(P));
  for (auto& row : requests) row.resize(static_cast<std::size_t>(P));
  sim::PhaseScope request_phase(machine, "unpack.requests");
  machine.local_phase([&](int rank) {
    const auto& pr = ranking.procs[static_cast<std::size_t>(rank)];
    auto& ctr = out.counters[static_cast<std::size_t>(rank)];
    ctr.local_elems = mask.dist().local_size(rank);
    ctr.slices = C;
    ctr.packed = pr.packed;
    const auto packed = static_cast<std::size_t>(pr.packed);

    // CSS with W_0 = 1 requests straight from PS_f, which the counting
    // scan hands back gathered under the mask: already the scan-ordered
    // request list.  The other cases build it.
    std::unique_ptr<std::int64_t[]> built;
    const std::int64_t* ranks = pr.ps_f.data();
    std::size_t n = pr.ps_f.size();
    if (sss || W0 != 1) {
      built = std::make_unique_for_overwrite<std::int64_t[]>(packed);
      ranks = built.get();
      n = 0;
    }
    if (sss) {
      const dist::Shape lshape = mask.dist().local_shape(rank);
      const int stride = sss_info_stride(lshape.rank());
      for (std::size_t base = 0; base < pr.info_words.size();
           base += static_cast<std::size_t>(stride)) {
        const SssRecord rec =
            decode_sss_record(pr.info_words.data() + base, lshape, W0);
        PUP_DCHECK(n < packed, "more SSS records than selected elements");
        built[n++] =
            rec.init_rank + pr.ps_f[static_cast<std::size_t>(rec.slice)];
      }
    } else if (W0 != 1) {
      for (dist::index_t s = 0; s < C; ++s) {
        const std::int32_t cnt = pr.counts[static_cast<std::size_t>(s)];
        const std::int64_t r0 = pr.ps_f[static_cast<std::size_t>(s)];
        PUP_DCHECK(n + static_cast<std::size_t>(cnt) <= packed,
                   "slice counts exceed the selected element count");
        for (std::int32_t j = 0; j < cnt; ++j) built[n++] = r0 + j;
      }
    }
    PUP_CHECK(n == packed, "request list does not cover every selected "
                           "element");

    std::vector<ByteWriter> writers;
    writers.reserve(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      writers.emplace_back(&machine.payload_arena(rank));
    }
    auto& my_runs = runs[static_cast<std::size_t>(rank)];
    my_runs.clear();
    for (std::size_t i = 0; i < n;) {
      // Both ends of the block are checked: scan order need not be rank
      // order (cyclic layouts, SSS), so a run ends wherever the next rank
      // leaves the block in either direction.
      const auto blk = vdim.block_of(ranks[i]);
      const std::size_t len =
          1 + kernels::prefix_in_range(ranks + i + 1, n - i - 1,
                                       blk.start, blk.end);
      // Rank r is the owner's local index r - start + local_base.
      kernels::narrow_to_bytes(
          ranks + i, len, iw,
          writers[static_cast<std::size_t>(blk.owner)].grow(len * iw).data(),
          blk.local_base - blk.start);
      my_runs.push_back(RequestRun{blk.owner, len});
      i += len;
    }
    for (int p = 0; p < P; ++p) {
      ctr.bytes_sent += static_cast<dist::index_t>(
          writers[static_cast<std::size_t>(p)].size());
      requests[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          writers[static_cast<std::size_t>(p)].take();
    }
  });

  coll::ByteBuffers request_in =
      coll::alltoallv(machine, coll::Group::world(P), std::move(requests),
                      options.schedule, sim::Category::kM2M);

  // Phase B: owners answer with values, preserving request order: one
  // indexed gather per request stream, every index checked against the
  // owner's local extent.
  coll::ByteBuffers replies(static_cast<std::size_t>(P));
  for (auto& row : replies) row.resize(static_cast<std::size_t>(P));
  sim::PhaseScope reply_phase(machine, "unpack.replies");
  machine.local_phase([&](int rank) {
    const auto vlocal = v.local(rank);
    for (int p = 0; p < P; ++p) {
      auto& request = request_in[static_cast<std::size_t>(rank)]
                                [static_cast<std::size_t>(p)];
      PUP_REQUIRE(request.size() % iw == 0,
                  "UNPACK request stream from rank "
                      << p << " is not a whole number of " << iw
                      << "-byte indices");
      const std::size_t n = request.size() / iw;
      if (n == 0) continue;
      ByteWriter w(&machine.payload_arena(rank));
      kernels::index_gather<T>(request.data(), n, iw, vlocal.data(),
                               vlocal.size(), w.grow(n * sizeof(T)).data());
      out.counters[static_cast<std::size_t>(rank)].recv_elems +=
          static_cast<dist::index_t>(n);
      replies[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          w.take();
      // The request stream is consumed; recycle its capacity.
      machine.payload_arena(rank).release(std::move(request));
    }
  });

  coll::ByteBuffers values_in =
      coll::alltoallv(machine, coll::Group::world(P), std::move(replies),
                      options.schedule, sim::Category::kM2M);

  // Phase C: placement -- reassemble the values in scan order, one bulk
  // copy per run from its owner's reply stream, then write them and the
  // field transfer (purely local, paper Section 4.2) into the result's
  // fresh local storage.
  std::vector<typename dist::DistArray<T>::Local> locals(
      static_cast<std::size_t>(P));
  sim::PhaseScope place_phase(machine, "unpack.place");
  machine.local_phase([&](int rank) {
    const auto& pr = ranking.procs[static_cast<std::size_t>(rank)];
    auto& ctr = out.counters[static_cast<std::size_t>(rank)];
    const auto flocal = field.local(rank);
    auto& rlocal = locals[static_cast<std::size_t>(rank)];
    std::vector<ByteReader> readers;
    readers.reserve(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      const auto& payload = values_in[static_cast<std::size_t>(rank)]
                                     [static_cast<std::size_t>(p)];
      ctr.bytes_recv += static_cast<dist::index_t>(payload.size());
      readers.emplace_back(payload);
    }
    const auto values = std::make_unique_for_overwrite<T[]>(
        static_cast<std::size_t>(pr.packed));
    std::size_t k = 0;
    for (const RequestRun& run : runs[static_cast<std::size_t>(rank)]) {
      const auto bytes = readers[static_cast<std::size_t>(run.owner)].get_raw(
          run.count * sizeof(T));
      kernels::run_decode<T>(bytes.data(), run.count, values.get() + k);
      k += run.count;
    }
    if (sss) {
      rlocal = support::bulk_copy<T>(flocal);
      const dist::Shape lshape = mask.dist().local_shape(rank);
      const int stride = sss_info_stride(lshape.rank());
      std::size_t j = 0;
      for (std::size_t base = 0; base < pr.info_words.size();
           base += static_cast<std::size_t>(stride)) {
        const SssRecord rec =
            decode_sss_record(pr.info_words.data() + base, lshape, W0);
        rlocal[static_cast<std::size_t>(rec.local_linear)] = values[j++];
      }
    } else {
      const auto mvals = mask.local(rank);
      rlocal.resize(mvals.size());
      const std::size_t placed = kernels::mask_merge<T>(
          mvals.data(), values.get(), k, flocal.data(), mvals.size(),
          rlocal.data());
      PUP_CHECK(placed == k, "UNPACK placed " << placed << " values, "
                                              << "received " << k);
    }
    for (int p = 0; p < P; ++p) {
      PUP_CHECK(readers[static_cast<std::size_t>(p)].done(),
                "UNPACK reply stream not fully consumed");
      machine.payload_arena(rank).release(
          std::move(values_in[static_cast<std::size_t>(rank)]
                             [static_cast<std::size_t>(p)]));
    }
  });
  out.result = dist::DistArray<T>::from_locals(mask.dist(), std::move(locals));

  return out;
}

}  // namespace detail

template <typename T>
UnpackResult<T> unpack(sim::Machine& machine, const dist::DistArray<T>& v,
                       const dist::DistArray<mask_t>& mask,
                       const dist::DistArray<T>& field,
                       const UnpackOptions& options = {}) {
  PUP_REQUIRE(field.dist() == mask.dist(),
              "UNPACK: field must be conformable with and aligned to the "
              "mask");
  PUP_REQUIRE(v.dist().rank() == 1, "UNPACK: input vector must be rank one");
  const UnpackScheme scheme =
      detail::resolve_unpack_scheme(machine, mask, options.scheme);

  RankingOptions ropt;
  ropt.prs = options.prs;
  ropt.wire_width = options.wire_width;
  ropt.record_infos = scheme == UnpackScheme::kSimpleStorage;
  const RankingResult ranking = rank_mask(machine, mask, ropt);

  return detail::unpack_execute<T>(machine, v, mask, field, ranking, scheme,
                                   options);
}

}  // namespace pup
