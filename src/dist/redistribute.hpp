// Generic block-cyclic-to-block-cyclic array redistribution (paper Section
// 6.3, following the communication-detection approach of ref [7]).
//
// Communication detection is table-driven (see PlacementMap): per-dimension
// owner/local lookup tables are built once and each element's destination
// is a couple of table reads, with no per-element allocation.
//
// Two placement modes mirror the trade-off the paper discusses:
//
//  * kWithIndices      -- the sender ships (global linear index, value)
//    pairs; only the send side performs communication detection, and the
//    receiver places each element by decoding its index.  This is what the
//    selected-data redistribution (Red1) uses, and is the natural mode when
//    only a subset of elements moves.
//
//  * kDetectBothSides  -- the sender ships bare values ordered by its local
//    linear index; the receiver runs its *own* detection scan to discover,
//    for each incoming element, where it lands.  Message volume is halved,
//    but detection cost is paid twice -- exactly the "two phases of
//    communication detection" the paper attributes to the whole-array
//    redistribution (Red2).
#pragma once

#include <algorithm>
#include <vector>

#include "coll/alltoallv.hpp"
#include "coll/group.hpp"
#include "dist/dist_array.hpp"
#include "dist/placement_map.hpp"
#include "sim/machine.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace pup::dist {

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
  const Shape& shape = sd.global();
  const int d = shape.rank();

  coll::ByteBuffers send(static_cast<std::size_t>(P));
  for (auto& row : send) row.resize(static_cast<std::size_t>(P));

  // Send-side communication detection + message composition.
  const PlacementMap to_dst(dd);
  machine.local_phase([&](int rank) {
    std::vector<ByteWriter> writers(static_cast<std::size_t>(P));
    const auto local = src.local(rank);
    for_each_local_fast(sd, rank, [&](index_t l, std::span<const index_t> gidx) {
      const int owner = to_dst.owner(gidx);
      auto& w = writers[static_cast<std::size_t>(owner)];
      if (mode == RedistMode::kWithIndices) {
        index_t glin = 0;
        for (int k = 0; k < d; ++k) {
          glin += gidx[static_cast<std::size_t>(k)] * shape.stride(k);
        }
        w.put<std::int64_t>(glin);
      }
      w.put<T>(local[static_cast<std::size_t>(l)]);
    });
    for (int p = 0; p < P; ++p) {
      send[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)] =
          writers[static_cast<std::size_t>(p)].take();
    }
  });

  coll::ByteBuffers recv = coll::alltoallv(machine, coll::Group::world(P),
                                           std::move(send), schedule,
                                           sim::Category::kRedist);

  // Receive-side placement.
  if (mode == RedistMode::kWithIndices) {
    machine.local_phase([&](int rank) {
      auto local = dst.local(rank);
      std::vector<index_t> gidx(static_cast<std::size_t>(d));
      for (int p = 0; p < P; ++p) {
        ByteReader r(recv[static_cast<std::size_t>(rank)]
                         [static_cast<std::size_t>(p)]);
        while (!r.done()) {
          index_t glin = r.get<std::int64_t>();
          const auto v = r.get<T>();
          shape.multi(glin, gidx);
          PUP_DCHECK(to_dst.owner(gidx) == rank, "misrouted element");
          local[static_cast<std::size_t>(to_dst.local_linear(gidx, rank))] = v;
        }
      }
    });
  } else {
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
}

}  // namespace pup::dist
