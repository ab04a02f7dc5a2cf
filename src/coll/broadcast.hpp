// Binomial-tree broadcast.
//
// log2(G) rounds; each round doubles the set of members holding the data.
// Cost per member: O(tau log G + mu M log G) on the critical path.
#pragma once

#include <vector>

#include "coll/group.hpp"
#include "coll/p2p.hpp"
#include "coll/reliable.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"

namespace pup::coll {

/// Broadcasts bufs[g.rank_at(root_index)] to every group member.  `bufs` is
/// indexed by machine rank; only group members' entries are touched.
template <typename T, typename A>
void broadcast(sim::Machine& m, const Group& g, int root_index,
               std::vector<std::vector<T, A>>& bufs,
               sim::Category cat = sim::Category::kPrs) {
  const int G = g.size();
  PUP_REQUIRE(root_index >= 0 && root_index < G, "root index out of range");
  if (G == 1) return;

  // Work with ranks relative to the root: rel = (idx - root) mod G.
  auto rel_of = [&](int idx) { return (idx - root_index + G) % G; };
  auto idx_of = [&](int rel) { return (rel + root_index) % G; };

  constexpr int kTag = 0x42c;
  sim::CollectiveScope scope(m, "broadcast", {kTag},
                             sim::RoundDiscipline::kMaxOneExchange);
  for (int mask = 1; mask < G; mask <<= 1) {
    sim::RoundScope round(m);
    // Senders: members with rel < mask forward to rel + mask.
    for (int idx = 0; idx < G; ++idx) {
      const int rel = rel_of(idx);
      if (rel < mask && rel + mask < G) {
        const int dst_idx = idx_of(rel + mask);
        const int src = g.rank_at(idx);
        const int dst = g.rank_at(dst_idx);
        auto payload =
            sim::to_payload<T>(bufs[static_cast<std::size_t>(src)]);
        charge_oneway(m, src, dst, payload.size(), cat);
        rpost(m, sim::Message{src, dst, kTag, std::move(payload)}, cat);
      }
    }
    for (int idx = 0; idx < G; ++idx) {
      const int rel = rel_of(idx);
      if (rel >= mask && rel < 2 * mask) {
        const int src = g.rank_at(idx_of(rel - mask));
        const int dst = g.rank_at(idx);
        auto msg = rrecv(m, dst, src, kTag, cat);
        sim::read_payload<T>(msg.payload, bufs[static_cast<std::size_t>(dst)]);
      }
    }
  }
  rdrain(m);
}

}  // namespace pup::coll
