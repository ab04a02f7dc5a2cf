// Cyclic-to-block preliminary redistribution for PACK (paper, Section 6.3).
//
// The ranking overhead is dominated by the tile counts T_i, which are
// largest under cyclic distribution -- and the compact schemes degenerate
// when W_0 == 1.  When the input is distributed cyclically it can pay to
// first redistribute to the block distribution and run the cheap block-path
// PACK (compact message scheme).  Two preliminary schemes:
//
//  * Redistribution of selected data (Red1): only elements with a true mask
//    move, each shipped as a (combined global index, value) pair.  The
//    receiver rebuilds a temporary input array and a temporary mask
//    (initialized to false, set true per received element).  Attractive at
//    low densities.
//
//  * Redistribution of whole arrays (Red2): the input array and the mask
//    are both redistributed in full, with communication detection performed
//    on both the send and the receive side (values travel without indices).
//    Density-insensitive; attractive at high densities.
//
// Both return the same result PACK would produce directly, because ranks
// depend only on global positions.  UNPACK cannot use this trick: it is a
// READ, so the result array would have to be redistributed back (Section
// 6.3).
#pragma once

#include "coll/alltoallv.hpp"
#include "core/pack.hpp"
#include "dist/redistribute.hpp"

namespace pup {

/// PACK with a preliminary cyclic-to-block redistribution.  The inner PACK
/// runs with the compact message scheme (the best block-distribution
/// scheme); `options.scheme` is ignored.
template <typename T>
PackResult<T> pack_with_redistribution(sim::Machine& machine,
                                       const dist::DistArray<T>& array,
                                       const dist::DistArray<mask_t>& mask,
                                       RedistributionScheme scheme,
                                       const PackOptions& options = {}) {
  PUP_REQUIRE(array.dist() == mask.dist(),
              "PACK: mask must be conformable with and aligned to the array");
  const int P = machine.nprocs();
  const dist::Distribution target =
      dist::Distribution::block(mask.dist().global(), mask.dist().grid());

  dist::DistArray<T> tmp_a(target);
  dist::DistArray<mask_t> tmp_m(target);

  if (scheme == RedistributionScheme::kWholeArrays) {
    dist::redistribute(machine, array, tmp_a, dist::RedistMode::kDetectBothSides,
                       options.schedule);
    dist::redistribute(machine, mask, tmp_m, dist::RedistMode::kDetectBothSides,
                       options.schedule);
  } else {
    // Selected-data redistribution: communication detection keeps only true
    // elements; the combined global index travels with each value.
    const dist::Shape& shape = mask.dist().global();
    const int d = shape.rank();
    const dist::PlacementMap to_block(target);
    coll::ByteBuffers send(static_cast<std::size_t>(P));
    for (auto& row : send) row.resize(static_cast<std::size_t>(P));
    machine.local_phase([&](int rank) {
      std::vector<ByteWriter> writers(static_cast<std::size_t>(P));
      const auto avals = array.local(rank);
      const auto mvals = mask.local(rank);
      dist::for_each_local_fast(
          mask.dist(), rank,
          [&](dist::index_t l, std::span<const dist::index_t> gidx) {
            if (!mvals[static_cast<std::size_t>(l)]) return;
            const int owner = to_block.owner(gidx);
            auto& w = writers[static_cast<std::size_t>(owner)];
            dist::index_t glin = 0;
            for (int k = 0; k < d; ++k) {
              glin += gidx[static_cast<std::size_t>(k)] * shape.stride(k);
            }
            w.put<std::int64_t>(glin);
            w.put<T>(avals[static_cast<std::size_t>(l)]);
          });
      for (int p = 0; p < P; ++p) {
        send[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
            writers[static_cast<std::size_t>(p)].take();
      }
    });
    coll::ByteBuffers recv =
        coll::alltoallv(machine, coll::Group::world(P), std::move(send),
                        options.schedule, sim::Category::kRedist);
    machine.local_phase([&](int rank) {
      auto avals = tmp_a.local(rank);
      auto mvals = tmp_m.local(rank);
      std::vector<dist::index_t> gidx(static_cast<std::size_t>(d));
      for (int p = 0; p < P; ++p) {
        ByteReader r(recv[static_cast<std::size_t>(rank)]
                         [static_cast<std::size_t>(p)]);
        while (!r.done()) {
          const auto g = r.get<std::int64_t>();
          const auto v = r.get<T>();
          shape.multi(g, gidx);
          PUP_DCHECK(to_block.owner(gidx) == rank, "misrouted element");
          const auto l = to_block.local_linear(gidx, rank);
          avals[static_cast<std::size_t>(l)] = v;
          mvals[static_cast<std::size_t>(l)] = 1;
        }
      }
    });
  }

  PackOptions inner = options;
  inner.scheme = PackScheme::kCompactMessage;
  return detail::pack_impl<T>(machine, tmp_a, tmp_m, std::nullopt, nullptr,
                              inner);
}

}  // namespace pup
