// Vector reduction-sum (all-reduce), paper Section 5.1.
//
// Computes the element-wise sum of one equal-length vector per group member
// and leaves the result in every member: binomial-tree reduction to the
// first member followed by a binomial broadcast.  Works for any group size.
#pragma once

#include <cstring>
#include <vector>

#include "coll/broadcast.hpp"
#include "coll/group.hpp"
#include "coll/p2p.hpp"
#include "coll/reliable.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"

namespace pup::coll {

/// All-reduce with an arbitrary associative-commutative combiner `op`
/// (element-wise).  `bufs` is indexed by machine rank; on return every
/// member's buffer holds R[j] = op-fold over members of V_i[j].
template <typename T, typename Op>
void allreduce(sim::Machine& m, const Group& g,
               std::vector<std::vector<T>>& bufs, Op op,
               sim::Category cat = sim::Category::kPrs) {
  const int G = g.size();
  if (G == 1) return;
  const std::size_t M = bufs[static_cast<std::size_t>(g.rank_at(0))].size();
  for (int i = 1; i < G; ++i) {
    PUP_REQUIRE(bufs[static_cast<std::size_t>(g.rank_at(i))].size() == M,
                "allreduce vectors must have equal length");
  }

  constexpr int kTag = 0x5ed;
  // Binomial reduction: in round `mask`, members whose index has the `mask`
  // bit set send their accumulator to index - mask and drop out.  The
  // trailing broadcast opens its own nested scope.
  sim::CollectiveScope scope(m, "allreduce", {kTag},
                             sim::RoundDiscipline::kMaxOneExchange);
  for (int mask = 1; mask < G; mask <<= 1) {
    sim::RoundScope round(m);
    for (int idx = 0; idx < G; ++idx) {
      if ((idx & mask) != 0 && (idx & (mask - 1)) == 0) {
        const int src = g.rank_at(idx);
        const int dst = g.rank_at(idx - mask);
        auto payload = sim::to_payload<T>(bufs[static_cast<std::size_t>(src)]);
        charge_oneway(m, src, dst, payload.size(), cat);
        rpost(m, sim::Message{src, dst, kTag, std::move(payload)}, cat);
      }
    }
    for (int idx = 0; idx < G; ++idx) {
      if ((idx & mask) == 0 && (idx & (mask - 1)) == 0 && idx + mask < G) {
        const int dst = g.rank_at(idx);
        const int src = g.rank_at(idx + mask);
        auto msg = rrecv(m, dst, src, kTag, cat);
        m.timed(dst, cat, [&] {
          // The op is generic, so each element is memcpy'd out of the
          // payload where it lies and folded.
          auto& acc = bufs[static_cast<std::size_t>(dst)];
          PUP_CHECK(msg.payload.size() == acc.size() * sizeof(T),
                    "allreduce payload of " << msg.payload.size()
                                            << " bytes, expected "
                                            << acc.size() * sizeof(T));
          const std::byte* src = msg.payload.data();
          for (std::size_t j = 0; j < acc.size(); ++j) {
            T v;
            std::memcpy(&v, src + j * sizeof(T), sizeof(T));
            acc[j] = op(acc[j], v);
          }
        });
      }
    }
  }
  rdrain(m);  // the nested broadcast drains its own traffic
  broadcast(m, g, /*root_index=*/0, bufs, cat);
}

/// All-reduce element-wise sum (the reduction-sum of paper Section 5.1).
template <typename T>
void allreduce_sum(sim::Machine& m, const Group& g,
                   std::vector<std::vector<T>>& bufs,
                   sim::Category cat = sim::Category::kPrs) {
  allreduce(m, g, bufs, [](const T& a, const T& b) { return a + b; }, cat);
}

}  // namespace pup::coll
