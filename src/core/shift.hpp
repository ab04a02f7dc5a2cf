// CSHIFT / EOSHIFT -- the F90 shift intrinsics on distributed block-cyclic
// arrays.
//
// result(..., i, ...) = array(..., i + shift, ...) along the chosen
// dimension, circularly for CSHIFT; EOSHIFT drops elements shifted past the
// edge and fills vacated positions with a boundary value.  The data moves
// through dist::route_elements, the redistribution library's element
// router: send-side communication detection and (destination local index,
// value) pairs in one many-to-many exchange; moves that stay on a
// processor bypass the network.  These intrinsics round out the runtime's
// communication-bearing family alongside PACK/UNPACK.
#pragma once

#include <algorithm>
#include <span>

#include "dist/dist_array.hpp"
#include "dist/redistribute.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace pup {

namespace detail {

/// Shared shift kernel: `wrap` selects CSHIFT (circular) semantics; for
/// EOSHIFT out-of-range destinations are dropped and `out` must be
/// pre-filled with the boundary value.
template <typename T>
void shift_into(sim::Machine& machine, const dist::DistArray<T>& array,
                int dim, dist::index_t shift, bool wrap,
                dist::DistArray<T>& out) {
  const dist::Distribution& d = array.dist();
  PUP_REQUIRE(dim >= 0 && dim < d.rank(),
              "shift: dimension " << dim << " out of range for rank "
                                  << d.rank());
  const dist::index_t n = d.global().extent(dim);

  dist::route_elements(
      machine, array, d,
      [&](int, dist::index_t, std::span<const dist::index_t> gidx,
          std::span<dist::index_t> dst_idx) {
        // Element at coordinate c is read by destination c - shift.
        dist::index_t c = gidx[static_cast<std::size_t>(dim)] - shift;
        if (wrap) {
          c %= n;
          if (c < 0) c += n;
        } else if (c < 0 || c >= n) {
          return false;  // shifted off the edge
        }
        std::copy(gidx.begin(), gidx.end(), dst_idx.begin());
        dst_idx[static_cast<std::size_t>(dim)] = c;
        return true;
      },
      [&](int rank, dist::index_t l, const T& v) {
        out.local(rank)[static_cast<std::size_t>(l)] = v;
      });
}

}  // namespace detail

/// CSHIFT(ARRAY, SHIFT, DIM): circular shift; result(..., i, ...) =
/// array(..., i + shift, ...) with wraparound.  Negative shifts allowed.
template <typename T>
dist::DistArray<T> cshift(sim::Machine& machine,
                          const dist::DistArray<T>& array, int dim,
                          dist::index_t shift) {
  dist::DistArray<T> out(array.dist());
  detail::shift_into(machine, array, dim, shift, /*wrap=*/true, out);
  return out;
}

/// EOSHIFT(ARRAY, SHIFT, BOUNDARY, DIM): end-off shift; vacated positions
/// take `boundary`.
template <typename T>
dist::DistArray<T> eoshift(sim::Machine& machine,
                           const dist::DistArray<T>& array, int dim,
                           dist::index_t shift, const T& boundary) {
  dist::DistArray<T> out(array.dist());
  machine.local_phase([&](int rank) {
    for (auto& v : out.local(rank)) v = boundary;
  });
  detail::shift_into(machine, array, dim, shift, /*wrap=*/false, out);
  return out;
}

}  // namespace pup
