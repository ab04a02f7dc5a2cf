// Element routing and block-cyclic-to-block-cyclic redistribution (paper
// Section 6.3, following the communication-detection approach of ref [7]).
//
// route_elements is the one mechanism behind every intrinsic that moves
// elements to new owners with one many-to-many exchange: redistribution
// with indices, the selected-data redistribution (Red1), TRANSPOSE /
// permute_dims and CSHIFT / EOSHIFT.  Each sender walks its local elements,
// asks the caller where each one lands, and ships (destination local index,
// value) pairs; the receiver checks every index against its local extent
// and places the value.  Communication detection is table-driven (see
// PlacementMap): per-dimension owner/local lookup tables are built once and
// each element's destination is a couple of table reads, with no
// per-element allocation.
//
// redistribute() offers the two placement modes the paper weighs:
//
//  * kWithIndices      -- route_elements with the identity mapping: only
//    the send side performs communication detection, and every element
//    carries its receiver-local index.  This is the natural mode when only
//    a subset of elements moves (Red1).
//
//  * kDetectBothSides  -- the sender ships bare values ordered by its local
//    linear index; the receiver runs its *own* detection scan to discover,
//    for each incoming element, where it lands.  Message volume is halved,
//    but detection cost is paid twice -- exactly the "two phases of
//    communication detection" the paper attributes to the whole-array
//    redistribution (Red2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "coll/alltoallv.hpp"
#include "coll/group.hpp"
#include "dist/dist_array.hpp"
#include "dist/placement_map.hpp"
#include "sim/machine.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace pup::dist {

namespace detail {

/// Receive side of route_elements for one payload: (int64 local index,
/// value) pairs.  Every index is checked against the receiver's local
/// `extent`, so a corrupt stream throws ContractError instead of writing
/// out of bounds; a truncated pair throws in ByteReader.
template <typename T, typename Place>
void place_routed(std::span<const std::byte> payload, index_t extent,
                  Place&& place) {
  ByteReader r(payload);
  while (!r.done()) {
    const index_t l = r.get<std::int64_t>();
    PUP_REQUIRE(l >= 0 && l < extent, "route_elements: local index "
                                          << l << " outside the local extent "
                                          << extent);
    place(l, r.get<T>());
  }
}

}  // namespace detail

/// Moves elements of `src` to their owners under `to` in one many-to-many
/// exchange.  On each rank, dest(rank, l, gidx, out) receives the source
/// local index l and global multi-index gidx of every local element and
/// writes the element's global multi-index under `to` into `out`; returning
/// false drops the element.  The receiver calls place(rank, l, value) with
/// the element's local index under `to`.
template <typename T, typename Dest, typename Place>
void route_elements(
    sim::Machine& machine, const DistArray<T>& src, const Distribution& to,
    Dest&& dest, Place&& place,
    coll::M2MSchedule schedule = coll::M2MSchedule::kLinearPermutation,
    sim::Category cat = sim::Category::kM2M) {
  const int P = machine.nprocs();
  PUP_REQUIRE(src.dist().nprocs() == P && to.nprocs() == P,
              "route_elements: both layouts must span the whole machine");
  const PlacementMap map(to);
  coll::ByteBuffers send(static_cast<std::size_t>(P));
  for (auto& row : send) row.resize(static_cast<std::size_t>(P));

  machine.local_phase([&](int rank) {
    std::vector<ByteWriter> writers(static_cast<std::size_t>(P));
    const auto vals = src.local(rank);
    std::vector<index_t> out(static_cast<std::size_t>(to.rank()));
    for_each_local_fast(
        src.dist(), rank, [&](index_t l, std::span<const index_t> gidx) {
          if (!dest(rank, l, gidx, std::span<index_t>(out))) return;
          const int owner = map.owner(out);
          auto& w = writers[static_cast<std::size_t>(owner)];
          w.put<std::int64_t>(map.local_linear(out, owner));
          w.put<T>(vals[static_cast<std::size_t>(l)]);
        });
    for (int p = 0; p < P; ++p) {
      send[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          writers[static_cast<std::size_t>(p)].take();
    }
  });

  coll::ByteBuffers recv = coll::alltoallv(machine, coll::Group::world(P),
                                           std::move(send), schedule, cat);

  machine.local_phase([&](int rank) {
    const index_t extent = to.local_size(rank);
    for (const auto& payload : recv[static_cast<std::size_t>(rank)]) {
      detail::place_routed<T>(payload, extent, [&](index_t l, const T& v) {
        place(rank, l, v);
      });
    }
  });
}

enum class RedistMode {
  kWithIndices,
  kDetectBothSides,
};

/// Moves the contents of `src` into `dst` (same global shape, any two
/// block-cyclic distributions over the same machine).
template <typename T>
void redistribute(
    sim::Machine& machine, const DistArray<T>& src, DistArray<T>& dst,
    RedistMode mode = RedistMode::kWithIndices,
    coll::M2MSchedule schedule = coll::M2MSchedule::kLinearPermutation) {
  const Distribution& sd = src.dist();
  const Distribution& dd = dst.dist();
  PUP_REQUIRE(sd.global() == dd.global(),
              "redistribution requires identical global shapes");
  const int P = machine.nprocs();
  PUP_REQUIRE(sd.nprocs() == P && dd.nprocs() == P,
              "both distributions must span the whole machine");

  if (mode == RedistMode::kWithIndices) {
    route_elements(
        machine, src, dd,
        [](int, index_t, std::span<const index_t> gidx,
           std::span<index_t> out) {
          std::copy(gidx.begin(), gidx.end(), out.begin());
          return true;
        },
        [&](int rank, index_t l, const T& v) {
          dst.local(rank)[static_cast<std::size_t>(l)] = v;
        },
        schedule, sim::Category::kRedist);
    return;
  }

  coll::ByteBuffers send(static_cast<std::size_t>(P));
  for (auto& row : send) row.resize(static_cast<std::size_t>(P));

  // Send-side communication detection: bare values in local-linear order.
  const PlacementMap to_dst(dd);
  machine.local_phase([&](int rank) {
    std::vector<ByteWriter> writers(static_cast<std::size_t>(P));
    const auto local = src.local(rank);
    for_each_local_fast(sd, rank, [&](index_t l, std::span<const index_t> gidx) {
      writers[static_cast<std::size_t>(to_dst.owner(gidx))].put<T>(
          local[static_cast<std::size_t>(l)]);
    });
    for (int p = 0; p < P; ++p) {
      send[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          writers[static_cast<std::size_t>(p)].take();
    }
  });

  coll::ByteBuffers recv = coll::alltoallv(machine, coll::Group::world(P),
                                           std::move(send), schedule,
                                           sim::Category::kRedist);

  // Receive-side detection: for each of my destination elements, find its
  // source owner and source-local order, then consume each source's
  // payload in that order.
  const PlacementMap to_src(sd);
  machine.local_phase([&](int rank) {
    struct Incoming {
      index_t src_local;
      index_t dst_local;
    };
    std::vector<std::vector<Incoming>> by_src(static_cast<std::size_t>(P));
    for_each_local_fast(
        dd, rank, [&](index_t l, std::span<const index_t> gidx) {
          const int owner = to_src.owner(gidx);
          by_src[static_cast<std::size_t>(owner)].push_back(
              Incoming{to_src.local_linear(gidx, owner), l});
        });
    auto local = dst.local(rank);
    for (int p = 0; p < P; ++p) {
      auto& list = by_src[static_cast<std::size_t>(p)];
      std::sort(list.begin(), list.end(),
                [](const Incoming& a, const Incoming& b) {
                  return a.src_local < b.src_local;
                });
      ByteReader r(recv[static_cast<std::size_t>(rank)]
                       [static_cast<std::size_t>(p)]);
      for (const Incoming& in : list) {
        local[static_cast<std::size_t>(in.dst_local)] = r.get<T>();
      }
      PUP_CHECK(r.done(), "redistribution payload not fully consumed");
    }
  });
}

}  // namespace pup::dist
