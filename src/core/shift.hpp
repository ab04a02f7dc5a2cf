// CSHIFT / EOSHIFT -- the F90 shift intrinsics on distributed block-cyclic
// arrays.
//
// result(..., i, ...) = array(..., i + shift, ...) along the chosen
// dimension, circularly for CSHIFT; EOSHIFT drops elements shifted past the
// edge and fills vacated positions with a boundary value.  Each processor
// performs send-side communication detection with the same table-driven
// machinery as the redistribution library and ships (destination local
// index, value) pairs in one many-to-many exchange; moves that stay on a
// processor bypass the network.  These intrinsics round out the runtime's
// communication-bearing family alongside PACK/UNPACK.
#pragma once

#include "coll/alltoallv.hpp"
#include "coll/group.hpp"
#include "dist/dist_array.hpp"
#include "dist/placement_map.hpp"
#include "sim/machine.hpp"
#include "support/bytes.hpp"
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
  const int P = machine.nprocs();
  PUP_REQUIRE(d.nprocs() == P, "shift: grid size != machine size");
  PUP_REQUIRE(dim >= 0 && dim < d.rank(),
              "shift: dimension " << dim << " out of range for rank "
                                  << d.rank());
  const dist::index_t n = d.global().extent(dim);

  const dist::PlacementMap map(d);
  coll::ByteBuffers send(static_cast<std::size_t>(P));
  for (auto& row : send) row.resize(static_cast<std::size_t>(P));

  machine.local_phase([&](int rank) {
    std::vector<ByteWriter> writers(static_cast<std::size_t>(P));
    const auto vals = array.local(rank);
    std::vector<dist::index_t> dst_idx(static_cast<std::size_t>(d.rank()));
    dist::for_each_local_fast(
        d, rank, [&](dist::index_t l, std::span<const dist::index_t> gidx) {
          // Element at coordinate c is read by destination c - shift.
          dist::index_t c = gidx[static_cast<std::size_t>(dim)] - shift;
          if (wrap) {
            c %= n;
            if (c < 0) c += n;
          } else if (c < 0 || c >= n) {
            return;  // shifted off the edge
          }
          for (int k = 0; k < d.rank(); ++k) {
            dst_idx[static_cast<std::size_t>(k)] =
                gidx[static_cast<std::size_t>(k)];
          }
          dst_idx[static_cast<std::size_t>(dim)] = c;
          const int owner = map.owner(dst_idx);
          auto& w = writers[static_cast<std::size_t>(owner)];
          w.put<std::int64_t>(map.local_linear(dst_idx, owner));
          w.put<T>(vals[static_cast<std::size_t>(l)]);
        });
    for (int p = 0; p < P; ++p) {
      send[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          writers[static_cast<std::size_t>(p)].take();
    }
  });

  coll::ByteBuffers recv =
      coll::alltoallv(machine, coll::Group::world(P), std::move(send));

  machine.local_phase([&](int rank) {
    auto dst = out.local(rank);
    for (int p = 0; p < P; ++p) {
      ByteReader r(recv[static_cast<std::size_t>(rank)]
                       [static_cast<std::size_t>(p)]);
      while (!r.done()) {
        const auto l = r.get<std::int64_t>();
        dst[static_cast<std::size_t>(l)] = r.get<T>();
      }
    }
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
