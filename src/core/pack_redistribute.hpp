// Cyclic-to-block preliminary redistribution for PACK (paper, Section 6.3).
//
// The ranking overhead is dominated by the tile counts T_i, which are
// largest under cyclic distribution -- and the compact schemes degenerate
// when W_0 == 1.  When the input is distributed cyclically it can pay to
// first redistribute to the block distribution and run the cheap block-path
// PACK (compact message scheme).  Two preliminary schemes:
//
//  * Redistribution of selected data (Red1): only elements with a true mask
//    move, routed by dist::route_elements as (block-layout local index,
//    value) pairs.  The receiver rebuilds a temporary input array and a
//    temporary mask (initialized to false, set true per received element).
//    Attractive at low densities.
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

#include <algorithm>
#include <span>

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
    // elements, and each travels with its local index on the block layout.
    dist::route_elements(
        machine, array, target,
        [&](int rank, dist::index_t l, std::span<const dist::index_t> gidx,
            std::span<dist::index_t> out) {
          if (!mask.local(rank)[static_cast<std::size_t>(l)]) return false;
          std::copy(gidx.begin(), gidx.end(), out.begin());
          return true;
        },
        [&](int rank, dist::index_t l, const T& v) {
          tmp_a.local(rank)[static_cast<std::size_t>(l)] = v;
          tmp_m.local(rank)[static_cast<std::size_t>(l)] = 1;
        },
        options.schedule, sim::Category::kRedist);
  }

  PackOptions inner = options;
  inner.scheme = PackScheme::kCompactMessage;
  return detail::pack_impl<T>(machine, tmp_a, tmp_m, std::nullopt, nullptr,
                              inner);
}

}  // namespace pup
