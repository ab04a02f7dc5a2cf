// Edge-case and failure-injection tests for the collectives layer.
#include <gtest/gtest.h>

#include <cstdint>

#include "coll/broadcast.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"
#include "sim/machine.hpp"
#include "test_support.hpp"

namespace pup::coll {
namespace {

using Vec = std::vector<std::int64_t>;
using Bufs = std::vector<Vec>;

using test::make_machine;

TEST(CollectivesEdge, PrsLengthMismatchThrows) {
  auto m = make_machine(4);
  Bufs bufs = {{1, 2}, {1, 2}, {1}, {1, 2}};
  Bufs total;
  EXPECT_THROW(prefix_reduction_sum(m, Group::world(4),
                                    PrsAlgorithm::kDirect, bufs, total),
               pup::ContractError);
}

TEST(CollectivesEdge, AllreduceLengthMismatchThrows) {
  auto m = make_machine(3);
  Bufs bufs = {{1}, {1, 2}, {1}};
  EXPECT_THROW(allreduce_sum(m, Group::world(3), bufs), pup::ContractError);
}

TEST(CollectivesEdge, BroadcastBadRootThrows) {
  auto m = make_machine(3);
  Bufs bufs(3);
  EXPECT_THROW(broadcast(m, Group::world(3), 3, bufs), pup::ContractError);
  EXPECT_THROW(broadcast(m, Group::world(3), -1, bufs), pup::ContractError);
}

TEST(CollectivesEdge, SingleMemberGroupIsANoopNetworkWise) {
  auto m = make_machine(4);
  Group g({2});
  Bufs bufs(4);
  bufs[2] = {5, 6};
  Bufs total;
  prefix_reduction_sum(m, g, PrsAlgorithm::kSplit, bufs, total);
  EXPECT_EQ(bufs[2], (Vec{0, 0}));
  EXPECT_EQ(total[2], (Vec{5, 6}));
  EXPECT_EQ(m.trace().messages(), 0);
}

TEST(CollectivesEdge, EmptyVectorsAreLegal) {
  auto m = make_machine(4);
  Bufs bufs(4);  // all empty
  Bufs total;
  prefix_reduction_sum(m, Group::world(4), PrsAlgorithm::kSplit, bufs, total);
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(bufs[static_cast<std::size_t>(r)].empty());
    EXPECT_TRUE(total[static_cast<std::size_t>(r)].empty());
  }
  EXPECT_TRUE(m.mailboxes_empty());
}

TEST(CollectivesEdge, GenericAllreduceMax) {
  auto m = make_machine(5);
  Bufs bufs = {{3, -1}, {7, -5}, {2, -9}, {9, -2}, {1, -7}};
  allreduce(m, Group::world(5), bufs,
            [](std::int64_t a, std::int64_t b) { return a > b ? a : b; });
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], (Vec{9, -1}));
  }
}

TEST(CollectivesEdge, ExscanOnNonContiguousGroup) {
  auto m = make_machine(6);
  Group g({5, 1, 3});  // arbitrary order defines the prefix direction
  Bufs bufs(6);
  bufs[5] = {10};
  bufs[1] = {20};
  bufs[3] = {30};
  exscan_sum(m, g, bufs);
  EXPECT_EQ(bufs[5], (Vec{0}));
  EXPECT_EQ(bufs[1], (Vec{10}));
  EXPECT_EQ(bufs[3], (Vec{30}));
  // Non-members untouched.
  EXPECT_TRUE(bufs[0].empty());
}

TEST(CollectivesEdge, PrsWithVectorShorterThanGroup) {
  // M < G: split's trailing chunks are empty and must not deadlock.
  auto m = make_machine(8);
  Bufs bufs(8, Vec{1, 2, 3});
  Bufs total;
  prefix_reduction_sum(m, Group::world(8), PrsAlgorithm::kSplit, bufs, total);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)],
              (Vec{r * 1, r * 2, r * 3}));
    EXPECT_EQ(total[static_cast<std::size_t>(r)], (Vec{8, 16, 24}));
  }
}

TEST(CollectivesEdge, MeshFactorizationIsMostSquare) {
  auto t12 = sim::Topology::mesh2d(12);  // 3 x 4
  EXPECT_EQ(t12.hops(0, 11), (2 + 3));
  auto t9 = sim::Topology::mesh2d(9);  // 3 x 3
  EXPECT_EQ(t9.hops(0, 8), 4);
  auto t7 = sim::Topology::mesh2d(7);  // degenerate 1 x 7
  EXPECT_EQ(t7.hops(0, 6), 6);
}

}  // namespace
}  // namespace pup::coll
