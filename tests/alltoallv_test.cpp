// Tests for many-to-many personalized communication: correctness under both
// schedules, self-bypass behaviour, and modeled-cost properties.
#include <gtest/gtest.h>

#include <cstdint>

#include "coll/alltoallv.hpp"
#include "sim/machine.hpp"
#include "test_support.hpp"

namespace pup::coll {
namespace {

using test::make_machine;

std::vector<std::vector<std::vector<int>>> make_send(int p) {
  // send[i][j] = {i*100+j, i*100+j, ... (j+1 copies)} so sizes differ.
  std::vector<std::vector<std::vector<int>>> send(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    send[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) {
      send[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].assign(
          static_cast<std::size_t>(j + 1), i * 100 + j);
    }
  }
  return send;
}

class AlltoallvTest : public ::testing::TestWithParam<
                          std::tuple<int, M2MSchedule>> {};

TEST_P(AlltoallvTest, DeliversEverythingToTheRightPlace) {
  const auto [p, sched] = GetParam();
  auto m = make_machine(p);
  auto recv = alltoallv_typed<int>(m, Group::world(p), make_send(p), sched);
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      const auto& got =
          recv[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      ASSERT_EQ(got.size(), static_cast<std::size_t>(i + 1))
          << "i=" << i << " j=" << j;
      for (int v : got) EXPECT_EQ(v, j * 100 + i);
    }
  }
  EXPECT_TRUE(m.mailboxes_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlltoallvTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(M2MSchedule::kLinearPermutation,
                                         M2MSchedule::kNaive)));

TEST(Alltoallv, SelfMessagesBypassTheNetwork) {
  const int p = 4;
  auto m = make_machine(p);
  // Only self-messages.
  std::vector<std::vector<std::vector<int>>> send(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    send[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(p));
    send[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = {i, i};
  }
  auto recv = alltoallv_typed<int>(m, Group::world(p), std::move(send));
  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(
        (recv[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)]),
        (std::vector<int>{i, i}));
  }
  EXPECT_EQ(m.trace().messages(), 0);
  EXPECT_EQ(m.trace().self_bytes(), p * 2 * 4);
  EXPECT_DOUBLE_EQ(m.max_us(sim::Category::kM2M), 0.0);
}

TEST(Alltoallv, EmptyPayloadsCostNothing) {
  const int p = 6;
  auto m = make_machine(p);
  std::vector<std::vector<std::vector<int>>> send(static_cast<std::size_t>(p));
  for (auto& row : send) row.resize(static_cast<std::size_t>(p));
  auto recv = alltoallv_typed<int>(m, Group::world(p), std::move(send));
  EXPECT_EQ(m.trace().messages(), 0);
  EXPECT_DOUBLE_EQ(m.max_us(sim::Category::kM2M), 0.0);
  for (const auto& row : recv) {
    for (const auto& v : row) EXPECT_TRUE(v.empty());
  }
}

TEST(Alltoallv, LinearPermutationCheaperThanNaiveOnFullExchange) {
  // With every pair exchanging equal-size messages, the synchronized
  // permutation schedule overlaps each member's send and receive, so its
  // modeled time is about half the naive schedule's.
  const int p = 8;
  auto ml = make_machine(p);
  auto mn = make_machine(p);
  auto full = [&] {
    std::vector<std::vector<std::vector<int>>> send(
        static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      send[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(p),
                                               std::vector<int>(64, i));
    }
    return send;
  };
  alltoallv_typed<int>(ml, Group::world(p), full(),
                       M2MSchedule::kLinearPermutation);
  alltoallv_typed<int>(mn, Group::world(p), full(), M2MSchedule::kNaive);
  EXPECT_LT(ml.max_us(sim::Category::kM2M), mn.max_us(sim::Category::kM2M));
}

TEST(Alltoallv, ChargesRequestedCategory) {
  const int p = 2;
  auto m = make_machine(p);
  std::vector<std::vector<std::vector<int>>> send(static_cast<std::size_t>(p));
  for (auto& row : send) row.resize(static_cast<std::size_t>(p));
  send[0][1] = {1, 2, 3};
  alltoallv_typed<int>(m, Group::world(p), std::move(send),
                       M2MSchedule::kLinearPermutation,
                       sim::Category::kRedist);
  EXPECT_GT(m.max_us(sim::Category::kRedist), 0.0);
  EXPECT_DOUBLE_EQ(m.max_us(sim::Category::kM2M), 0.0);
}

TEST(Alltoallv, WrongBufferShapeThrows) {
  auto m = make_machine(3);
  ByteBuffers bad(2);
  EXPECT_THROW(alltoallv(m, Group::world(3), std::move(bad)),
               pup::ContractError);
}

}  // namespace
}  // namespace pup::coll
