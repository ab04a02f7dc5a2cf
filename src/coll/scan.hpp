// Vector exclusive prefix-sum (exscan), paper Section 5.1.
//
// Dissemination (Hillis-Steele) algorithm: ceil(log2 G) rounds; in the round
// with offset o, member i sends its running vector to member i+o and adds
// the vector received from member i-o.  After the rounds the running vector
// is the inclusive prefix; subtracting the member's own contribution yields
// the exclusive prefix.  Works for any group size.
#pragma once

#include <vector>

#include "coll/group.hpp"
#include "coll/p2p.hpp"
#include "coll/reliable.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"

namespace pup::coll {

/// Exclusive prefix sum: on return member i's buffer holds
/// F_i[j] = sum_{k<i} V_k[j]; member 0 holds zeros.  When `inclusive_out`
/// is non-null, member i's inclusive prefix (sum_{k<=i}) is stored there as
/// well (indexed by machine rank).  Running sums of base-rank vectors are
/// checked (fold_entries): one that outgrows T throws ContractError.
template <typename T, typename A>
void exscan_sum(sim::Machine& m, const Group& g,
                std::vector<std::vector<T, A>>& bufs,
                std::vector<std::vector<T, A>>* inclusive_out = nullptr,
                sim::Category cat = sim::Category::kPrs) {
  const int G = g.size();
  const std::size_t M = bufs[static_cast<std::size_t>(g.rank_at(0))].size();
  for (int i = 1; i < G; ++i) {
    PUP_REQUIRE(bufs[static_cast<std::size_t>(g.rank_at(i))].size() == M,
                "exscan vectors must have equal length");
  }

  // Running (inclusive) accumulator per member, seeded with the input.
  std::vector<std::vector<T, A>> inc(bufs.size());
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    inc[static_cast<std::size_t>(r)] = bufs[static_cast<std::size_t>(r)];
  }

  constexpr int kTag = 0xe5c;
  sim::CollectiveScope scope(m, "exscan", {kTag},
                             sim::RoundDiscipline::kMaxOneExchange);
  for (int offset = 1; offset < G; offset <<= 1) {
    sim::RoundScope round(m);
    for (int idx = 0; idx < G; ++idx) {
      if (idx + offset < G) {
        const int src = g.rank_at(idx);
        const int dst = g.rank_at(idx + offset);
        auto payload =
            sim::to_payload<T>(inc[static_cast<std::size_t>(src)]);
        charge_oneway(m, src, dst, payload.size(), cat);
        rpost(m, sim::Message{src, dst, kTag, std::move(payload)}, cat);
      }
    }
    for (int idx = 0; idx < G; ++idx) {
      if (idx - offset >= 0) {
        const int dst = g.rank_at(idx);
        const int src = g.rank_at(idx - offset);
        auto msg = rrecv(m, dst, src, kTag, cat);
        m.timed(dst, cat, [&] {
          auto& acc = inc[static_cast<std::size_t>(dst)];
          fold_payload<T>(msg.payload, acc.size(), acc.data());
        });
      }
    }
  }

  rdrain(m);

  // exclusive = inclusive - own input.
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    m.timed(r, cat, [&] {
      auto& own = bufs[static_cast<std::size_t>(r)];
      const auto& in = inc[static_cast<std::size_t>(r)];
      for (std::size_t j = 0; j < own.size(); ++j) {
        own[j] = static_cast<T>(in[j] - own[j]);
      }
    });
  }
  if (inclusive_out != nullptr) *inclusive_out = std::move(inc);
}

}  // namespace pup::coll
