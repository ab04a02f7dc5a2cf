#include "coll/prefix_reduction_sum.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pup::coll {
namespace {

std::vector<MemberCost> predict_direct_pow2(int G, std::size_t vec_bytes,
                                            const sim::CostModel& cost) {
  std::vector<MemberCost> out(static_cast<std::size_t>(G));
  int rounds = 0;
  for (int mask = 1; mask < G; mask <<= 1) ++rounds;
  for (auto& mc : out) {
    mc.posts = rounds;
    mc.recvs = rounds;
    mc.bytes_out = static_cast<std::size_t>(rounds) * vec_bytes;
    mc.bytes_in = mc.bytes_out;
    mc.charge_us = rounds * exchange_us(vec_bytes, vec_bytes, cost);
  }
  return out;
}

std::vector<MemberCost> predict_direct_general(int G, std::size_t vec_bytes,
                                               const sim::CostModel& cost) {
  std::vector<MemberCost> out(static_cast<std::size_t>(G));
  // Dissemination exscan: in the round with offset o, member idx sends iff
  // idx + o < G and receives iff idx - o >= 0.  Each one-way message
  // charges tau + mu*m to both endpoints (even when m == 0: the channel is
  // still held for tau).
  const double oneway_us = cost.message_us(vec_bytes);
  for (int offset = 1; offset < G; offset <<= 1) {
    for (int idx = 0; idx < G; ++idx) {
      auto& mc = out[static_cast<std::size_t>(idx)];
      if (idx + offset < G) {
        mc.posts += 1;
        mc.bytes_out += vec_bytes;
        mc.charge_us += oneway_us;
      }
      if (idx - offset >= 0) {
        mc.recvs += 1;
        mc.bytes_in += vec_bytes;
        mc.charge_us += oneway_us;
      }
    }
  }
  // Binomial broadcast of the reduction, rooted at the last member: with
  // rel = (idx + 1) mod G, the round with doubling mask has rel < mask
  // forwarding to rel + mask (when in range) and rel in [mask, 2*mask)
  // receiving its one copy.
  for (int mask = 1; mask < G; mask <<= 1) {
    for (int idx = 0; idx < G; ++idx) {
      const int rel = (idx + 1) % G;
      auto& mc = out[static_cast<std::size_t>(idx)];
      if (rel < mask && rel + mask < G) {
        mc.posts += 1;
        mc.bytes_out += vec_bytes;
        mc.charge_us += oneway_us;
      }
      if (rel >= mask && rel < 2 * mask) {
        mc.recvs += 1;
        mc.bytes_in += vec_bytes;
        mc.charge_us += oneway_us;
      }
    }
  }
  return out;
}

std::vector<MemberCost> predict_split(int G, std::size_t vec_len,
                                      std::size_t elem_size,
                                      const sim::CostModel& cost) {
  std::vector<MemberCost> out(static_cast<std::size_t>(G));
  auto chunk_lo = [&](int c) {
    return (vec_len * static_cast<std::size_t>(c)) /
           static_cast<std::size_t>(G);
  };
  auto chunk_bytes = [&](int c) {
    return (chunk_lo(c + 1) - chunk_lo(c)) * elem_size;
  };
  for (int r = 1; r < G; ++r) {
    for (int i = 0; i < G; ++i) {
      auto& mc = out[static_cast<std::size_t>(i)];
      // Phase 1: member i ships chunk (i+r) mod G of its own vector and
      // collects chunk i (the chunk it owns) from member (i-r) mod G.
      const std::size_t sent1 = chunk_bytes((i + r) % G);
      const std::size_t recv1 = chunk_bytes(i);
      if (sent1 > 0) {
        mc.posts += 1;
        mc.bytes_out += sent1;
      }
      if (recv1 > 0) {
        mc.recvs += 1;
        mc.bytes_in += recv1;
      }
      mc.charge_us += exchange_us(sent1, recv1, cost);
      // Phase 2: member i returns prefix+total (factor two) for its own
      // chunk i to member (i+r) mod G and receives chunk (i-r) mod G.
      const std::size_t sent2 = chunk_bytes(i) * 2;
      const std::size_t recv2 = chunk_bytes((i - r + G) % G) * 2;
      if (sent2 > 0) {
        mc.posts += 1;
        mc.bytes_out += sent2;
      }
      if (recv2 > 0) {
        mc.recvs += 1;
        mc.bytes_in += recv2;
      }
      mc.charge_us += exchange_us(sent2, recv2, cost);
    }
  }
  return out;
}

}  // namespace

double exchange_us(std::size_t sent, std::size_t recv,
                   const sim::CostModel& cost) {
  if (sent == 0 && recv == 0) return 0.0;
  const double out_us = sent > 0 ? cost.message_us(sent) : 0.0;
  const double in_us = recv > 0 ? cost.message_us(recv) : 0.0;
  return std::max(out_us, in_us);
}

std::vector<MemberCost> predict_prs(PrsAlgorithm alg, int G,
                                    std::size_t vec_len,
                                    std::size_t elem_size,
                                    const sim::CostModel& cost) {
  PUP_CHECK(G >= 1, "group must be non-empty");
  if (G == 1) return {MemberCost{}};
  const std::size_t vec_bytes = vec_len * elem_size;
  switch (alg) {
    case PrsAlgorithm::kDirect:
      if ((G & (G - 1)) == 0) return predict_direct_pow2(G, vec_bytes, cost);
      return predict_direct_general(G, vec_bytes, cost);
    case PrsAlgorithm::kSplit:
      return predict_split(G, vec_len, elem_size, cost);
    case PrsAlgorithm::kControlNetwork: {
      std::vector<MemberCost> out(static_cast<std::size_t>(G));
      for (auto& mc : out) mc.charge_us = cost.message_us(vec_bytes);
      return out;
    }
    case PrsAlgorithm::kAuto:
    case PrsAlgorithm::kPaperRule:
      break;
  }
  PUP_CHECK(false, "closed forms need a concrete PRS algorithm");
  return {};
}

double predict_prs_us(PrsAlgorithm alg, int G, std::size_t vec_len,
                      std::size_t elem_size, const sim::CostModel& cost) {
  double busiest = 0.0;
  for (const MemberCost& mc : predict_prs(alg, G, vec_len, elem_size, cost)) {
    busiest = std::max(busiest, mc.charge_us);
  }
  return busiest;
}

PrsAlgorithm resolve_prs(PrsAlgorithm alg, int group_size,
                         std::size_t vector_len, std::size_t wire_bytes,
                         const sim::CostModel& cost) {
  switch (alg) {
    case PrsAlgorithm::kAuto:
      return predict_prs_us(PrsAlgorithm::kSplit, group_size, vector_len,
                            wire_bytes, cost) <
                     predict_prs_us(PrsAlgorithm::kDirect, group_size,
                                    vector_len, wire_bytes, cost)
                 ? PrsAlgorithm::kSplit
                 : PrsAlgorithm::kDirect;
    case PrsAlgorithm::kPaperRule:
      return group_size <= 4 ||
                     vector_len < static_cast<std::size_t>(group_size)
                 ? PrsAlgorithm::kDirect
                 : PrsAlgorithm::kSplit;
    case PrsAlgorithm::kDirect:
    case PrsAlgorithm::kSplit:
    case PrsAlgorithm::kControlNetwork:
      break;
  }
  return alg;
}

}  // namespace pup::coll
