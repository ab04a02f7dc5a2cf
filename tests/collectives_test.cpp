// Tests for broadcast, all-reduce, exscan, and the combined
// prefix-reduction-sum (direct and split, power-of-two and general group
// sizes), including exact message-count assertions.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>

#include "coll/broadcast.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace pup::coll {
namespace {

using Vec = std::vector<std::int64_t>;
using Bufs = std::vector<Vec>;

using test::make_machine;

Bufs make_inputs(int p, std::size_t m, std::uint64_t seed) {
  Bufs bufs(static_cast<std::size_t>(p));
  Xoshiro256 rng(seed);
  for (auto& v : bufs) {
    v.resize(m);
    for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(1000));
  }
  return bufs;
}

// Reference results.
Vec ref_total(const Bufs& in) {
  Vec total(in[0].size(), 0);
  for (const auto& v : in) {
    for (std::size_t j = 0; j < v.size(); ++j) total[j] += v[j];
  }
  return total;
}

Vec ref_prefix(const Bufs& in, int upto) {
  Vec pre(in[0].size(), 0);
  for (int i = 0; i < upto; ++i) {
    for (std::size_t j = 0; j < pre.size(); ++j) pre[j] += in[static_cast<std::size_t>(i)][j];
  }
  return pre;
}

TEST(Broadcast, AllMembersGetRootData) {
  for (int p : {1, 2, 3, 4, 7, 8}) {
    auto m = make_machine(p);
    Bufs bufs(static_cast<std::size_t>(p));
    const int root = p / 2;
    bufs[static_cast<std::size_t>(root)] = {1, 2, 3};
    broadcast(m, Group::world(p), root, bufs);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], (Vec{1, 2, 3}))
          << "p=" << p << " rank=" << r;
    }
    EXPECT_TRUE(m.mailboxes_empty());
    // Binomial broadcast: exactly p-1 messages.
    EXPECT_EQ(m.trace().messages(), p - 1);
  }
}

TEST(AllreduceSum, MatchesReference) {
  for (int p : {1, 2, 3, 5, 8, 16}) {
    auto m = make_machine(p);
    Bufs in = make_inputs(p, 17, 99);
    const Vec want = ref_total(in);
    Bufs bufs = in;
    allreduce_sum(m, Group::world(p), bufs);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], want) << "p=" << p;
    }
    EXPECT_TRUE(m.mailboxes_empty());
  }
}

TEST(ExscanSum, MatchesReference) {
  for (int p : {1, 2, 3, 6, 8, 13}) {
    auto m = make_machine(p);
    Bufs in = make_inputs(p, 9, 7);
    Bufs bufs = in;
    exscan_sum(m, Group::world(p), bufs);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], ref_prefix(in, r))
          << "p=" << p << " rank=" << r;
    }
    EXPECT_TRUE(m.mailboxes_empty());
  }
}

TEST(ExscanSum, InclusiveOutput) {
  const int p = 5;
  auto m = make_machine(p);
  Bufs in = make_inputs(p, 4, 3);
  Bufs bufs = in;
  Bufs inclusive;
  exscan_sum(m, Group::world(p), bufs, &inclusive);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(inclusive[static_cast<std::size_t>(r)], ref_prefix(in, r + 1));
  }
}

class PrsTest : public ::testing::TestWithParam<
                    std::tuple<int, int, PrsAlgorithm>> {};

TEST_P(PrsTest, PrefixAndTotalMatchReference) {
  const auto [p, m_len, alg] = GetParam();
  auto m = make_machine(p);
  Bufs in = make_inputs(p, static_cast<std::size_t>(m_len), 1234);
  Bufs prefix = in;
  Bufs total;
  prefix_reduction_sum(m, Group::world(p), alg, prefix, total);
  const Vec want_total = ref_total(in);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(prefix[static_cast<std::size_t>(r)], ref_prefix(in, r))
        << "p=" << p << " M=" << m_len << " rank=" << r;
    EXPECT_EQ(total[static_cast<std::size_t>(r)], want_total);
  }
  EXPECT_TRUE(m.mailboxes_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrsTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 16),
                       ::testing::Values(1, 3, 16, 100),
                       ::testing::Values(PrsAlgorithm::kDirect,
                                         PrsAlgorithm::kSplit,
                                         PrsAlgorithm::kControlNetwork,
                                         PrsAlgorithm::kAuto,
                                         PrsAlgorithm::kPaperRule)));

TEST(Prs, ControlNetworkCostIsIndependentOfGroupSize) {
  // The CM-5 control-network model: one streaming pass per member, no
  // point-to-point messages, per-member cost independent of P.
  double cost4 = 0, cost16 = 0;
  for (int p : {4, 16}) {
    auto m = make_machine(p);
    Bufs in = make_inputs(p, 512, 3);
    Bufs total;
    prefix_reduction_sum(m, Group::world(p), PrsAlgorithm::kControlNetwork,
                         in, total);
    EXPECT_EQ(m.trace().messages(), 0);
    // Charge only (modeled) -- strip the real compute part by comparing
    // the modeled floor: every member paid at least tau + mu*M.
    const double floor = m.cost().message_us(512 * sizeof(std::int64_t));
    for (int r = 0; r < p; ++r) {
      EXPECT_GE(m.times(r).prs_us(), floor);
    }
    (p == 4 ? cost4 : cost16) = floor;
  }
  EXPECT_DOUBLE_EQ(cost4, cost16);
}

TEST(Prs, DirectAndSplitAgreeOnSubgroups) {
  // Group that is a strict subset of the machine, non-contiguous ranks.
  auto m = make_machine(8);
  Group g({1, 3, 5, 7});
  Bufs in = make_inputs(8, 12, 5);
  Bufs pre_d = in, pre_s = in;
  Bufs tot_d, tot_s;
  prefix_reduction_sum(m, g, PrsAlgorithm::kDirect, pre_d, tot_d);
  prefix_reduction_sum(m, g, PrsAlgorithm::kSplit, pre_s, tot_s);
  for (int idx = 0; idx < g.size(); ++idx) {
    const int r = g.rank_at(idx);
    EXPECT_EQ(pre_d[static_cast<std::size_t>(r)],
              pre_s[static_cast<std::size_t>(r)]);
    EXPECT_EQ(tot_d[static_cast<std::size_t>(r)],
              tot_s[static_cast<std::size_t>(r)]);
  }
  // Non-members untouched.
  EXPECT_EQ(pre_d[0], in[0]);
}

TEST(Prs, PaperRuleReproducesTheSizeRule) {
  // The paper's rule, exactly: direct iff G <= 4 or M < G, at any wire
  // width and cost model.
  const sim::CostModel cost = sim::CostModel::cm5();
  EXPECT_EQ(resolve_prs(PrsAlgorithm::kPaperRule, 4, 1000, 8, cost),
            PrsAlgorithm::kDirect);
  EXPECT_EQ(resolve_prs(PrsAlgorithm::kPaperRule, 16, 8, 8, cost),
            PrsAlgorithm::kDirect);
  EXPECT_EQ(resolve_prs(PrsAlgorithm::kPaperRule, 16, 1000, 8, cost),
            PrsAlgorithm::kSplit);
  for (int G : {1, 2, 3, 4, 5, 8, 16, 64}) {
    for (std::size_t M : {0u, 1u, 4u, 5u, 7u, 8u, 63u, 64u, 100000u}) {
      for (std::size_t wire : {1u, 8u}) {
        const PrsAlgorithm want =
            G <= 4 || M < static_cast<std::size_t>(G) ? PrsAlgorithm::kDirect
                                                      : PrsAlgorithm::kSplit;
        EXPECT_EQ(resolve_prs(PrsAlgorithm::kPaperRule, G, M, wire, cost),
                  want)
            << "G=" << G << " M=" << M << " wire=" << wire;
      }
    }
  }
}

TEST(Prs, ConcreteAlgorithmsPassThrough) {
  const sim::CostModel cost = sim::CostModel::cm5();
  for (PrsAlgorithm alg : {PrsAlgorithm::kDirect, PrsAlgorithm::kSplit,
                           PrsAlgorithm::kControlNetwork}) {
    EXPECT_EQ(resolve_prs(alg, 2, 1, 8, cost), alg);
    EXPECT_EQ(resolve_prs(alg, 64, 1 << 20, 1, cost), alg);
  }
}

TEST(Prs, AutoNeverPicksTheDearerAlgorithm) {
  // kAuto's pick is never predicted dearer (busiest member) than either
  // candidate, and a tie goes to direct -- under two cost models, across
  // group sizes, vector lengths on both sides of M = G, and every wire
  // width.
  for (const sim::CostModel cost :
       {sim::CostModel::cm5(), sim::CostModel{10.0, 0.1}}) {
    for (int G : {1, 2, 3, 4, 5, 8, 16, 64, 256}) {
      std::vector<std::size_t> lengths = {0, 1,
                                          static_cast<std::size_t>(G - 1),
                                          static_cast<std::size_t>(G)};
      for (std::size_t M = 16; M <= 16384; M *= 4) lengths.push_back(M);
      for (std::size_t M : lengths) {
        for (std::size_t wire : {1u, 2u, 4u, 8u}) {
          const PrsAlgorithm pick =
              resolve_prs(PrsAlgorithm::kAuto, G, M, wire, cost);
          const double direct =
              predict_prs_us(PrsAlgorithm::kDirect, G, M, wire, cost);
          const double split =
              predict_prs_us(PrsAlgorithm::kSplit, G, M, wire, cost);
          const double picked = predict_prs_us(pick, G, M, wire, cost);
          const std::string where = "G=" + std::to_string(G) +
                                    " M=" + std::to_string(M) +
                                    " wire=" + std::to_string(wire);
          EXPECT_LE(picked, direct) << where;
          EXPECT_LE(picked, split) << where;
          if (direct == split) {
            EXPECT_EQ(pick, PrsAlgorithm::kDirect) << where;
          }
        }
      }
    }
  }
}

TEST(Prs, AutoKeepsDirectWhereThePaperRuleSplits) {
  // The cm5 charges at G = 8 with a 2-byte wire: direct costs 304 us per
  // member at M = 64 and 350 us at M = 128, split 1244 and 1285 us, yet
  // the paper's rule (M >= G > 4) splits both.  Split pays off only once
  // the vector is long enough to amortize its 2(G-1) start-ups.
  const sim::CostModel cost = sim::CostModel::cm5();
  for (std::size_t M : {64u, 128u}) {
    EXPECT_EQ(resolve_prs(PrsAlgorithm::kAuto, 8, M, 2, cost),
              PrsAlgorithm::kDirect);
    EXPECT_EQ(resolve_prs(PrsAlgorithm::kPaperRule, 8, M, 2, cost),
              PrsAlgorithm::kSplit);
  }
  EXPECT_DOUBLE_EQ(predict_prs_us(PrsAlgorithm::kDirect, 8, 128, 2, cost),
                   3 * cost.message_us(256));
  EXPECT_EQ(resolve_prs(PrsAlgorithm::kAuto, 8, 1 << 20, 8, cost),
            PrsAlgorithm::kSplit);
}

TEST(Prs, DirectPow2MessageCount) {
  // Recursive doubling: every round all G members exchange -> G*log2(G).
  const int p = 8;
  auto m = make_machine(p);
  Bufs in = make_inputs(p, 10, 2);
  Bufs total;
  prefix_reduction_sum(m, Group::world(p), PrsAlgorithm::kDirect, in, total);
  EXPECT_EQ(m.trace().messages(), 8 * 3);
}

TEST(Prs, SplitCommunicationVolumeIsBounded) {
  // Split: each member ships ~2 vectors' worth of data regardless of G.
  const int p = 16;
  const std::size_t M = 1600;
  auto m = make_machine(p);
  Bufs in = make_inputs(p, M, 2);
  Bufs total;
  prefix_reduction_sum(m, Group::world(p), PrsAlgorithm::kSplit, in, total);
  // Gather phase: (G-1) chunks of M/G each; return phase doubles.
  const std::int64_t expect_bytes =
      static_cast<std::int64_t>(p) * 3 * (static_cast<std::int64_t>(M) -
                                          static_cast<std::int64_t>(M) / p) *
      8;
  EXPECT_EQ(m.trace().bytes(), expect_bytes);
}

namespace {

// kPrs folds real compute wall-clock into the modeled communication time, so
// a single run is noisy when the test host is loaded (e.g. parallel ctest).
// The minimum over a few repetitions keeps the deterministic modeled part
// and damps scheduler noise in the measured part.
double min_prs_us(int p, std::size_t M, PrsAlgorithm alg) {
  double best = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto m = make_machine(p);
    Bufs in = make_inputs(p, M, 11);
    Bufs tot;
    prefix_reduction_sum(m, Group::world(p), alg, in, tot);
    const double us = m.max_us(sim::Category::kPrs);
    if (best < 0.0 || us < best) best = us;
  }
  return best;
}

}  // namespace

TEST(Prs, SplitBeatsDirectOnLargeVectors) {
  // The experimental claim behind the selection rule: for a big machine and
  // long vectors the split algorithm's modeled time is lower.
  EXPECT_LT(min_prs_us(16, 4096, PrsAlgorithm::kSplit),
            min_prs_us(16, 4096, PrsAlgorithm::kDirect));
}

TEST(Prs, DirectBeatsSplitOnShortVectors) {
  EXPECT_LT(min_prs_us(16, 4, PrsAlgorithm::kDirect),
            min_prs_us(16, 4, PrsAlgorithm::kSplit));
}

TEST(Group, BasicOperations) {
  Group g({4, 2, 9});
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.rank_at(1), 2);
  EXPECT_EQ(g.index_of(9), 2);
  EXPECT_EQ(g.index_of(5), -1);
  EXPECT_THROW(Group({}), pup::ContractError);
  EXPECT_THROW(Group({1, 1}), pup::ContractError);
}

}  // namespace
}  // namespace pup::coll
