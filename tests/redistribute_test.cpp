// Tests for the generic block-cyclic redistribution library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "dist/redistribute.hpp"
#include "sim/machine.hpp"
#include "test_support.hpp"

namespace pup::dist {
namespace {

using test::make_machine;

struct Case {
  std::vector<index_t> extents;
  std::vector<int> procs;
  std::vector<index_t> src_blocks;
  std::vector<index_t> dst_blocks;
};

class RedistributeSweep
    : public ::testing::TestWithParam<std::tuple<Case, RedistMode>> {};

TEST_P(RedistributeSweep, PreservesGlobalContents) {
  const auto& [c, mode] = GetParam();
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = make_machine(p);
  Shape shape(c.extents);
  ProcessGrid grid(c.procs);
  auto src_dist = Distribution(shape, grid, c.src_blocks);
  auto dst_dist = Distribution(shape, grid, c.dst_blocks);

  std::vector<int> data(static_cast<std::size_t>(shape.size()));
  std::iota(data.begin(), data.end(), 0);
  auto src = DistArray<int>::scatter(src_dist, data);
  DistArray<int> dst(dst_dist);
  redistribute(machine, src, dst, mode);
  EXPECT_EQ(dst.gather(), data);
  EXPECT_TRUE(machine.mailboxes_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedistributeSweep,
    ::testing::Combine(
        ::testing::Values(
            Case{{32}, {4}, {1}, {8}},   // cyclic -> block (the Red path)
            Case{{32}, {4}, {8}, {1}},   // block -> cyclic
            Case{{32}, {4}, {2}, {4}},   // block-cyclic -> block-cyclic
            Case{{32}, {4}, {4}, {4}},   // identity layout
            Case{{60}, {5}, {1}, {12}},  // non-pow2 P
            Case{{8, 8}, {2, 2}, {1, 1}, {4, 4}},
            Case{{16, 8}, {4, 2}, {2, 1}, {4, 4}},
            Case{{12, 6}, {3, 2}, {1, 3}, {4, 1}}),
        ::testing::Values(RedistMode::kWithIndices,
                          RedistMode::kDetectBothSides)));

TEST(Redistribute, IdentityLayoutMovesNothingOffProcessor) {
  auto machine = make_machine(4);
  auto d = Distribution::block_cyclic(Shape({32}), ProcessGrid({4}), 2);
  std::vector<int> data(32, 3);
  auto src = DistArray<int>::scatter(d, data);
  DistArray<int> dst(d);
  redistribute(machine, src, dst, RedistMode::kDetectBothSides);
  EXPECT_EQ(machine.trace().messages(), 0);
  EXPECT_EQ(dst.gather(), data);
}

TEST(Redistribute, WithIndicesDoublesPayload) {
  // kWithIndices ships an int64 index per int64 value -> 2x the bytes of
  // kDetectBothSides.
  auto run = [&](RedistMode mode) {
    auto machine = make_machine(4);
    Shape shape({32});
    auto src_dist = Distribution::cyclic(shape, ProcessGrid({4}));
    auto dst_dist = Distribution::block(shape, ProcessGrid({4}));
    std::vector<std::int64_t> data(32, 1);
    auto src = DistArray<std::int64_t>::scatter(src_dist, data);
    DistArray<std::int64_t> dst(dst_dist);
    redistribute(machine, src, dst, mode);
    return machine.trace().bytes();
  };
  EXPECT_EQ(run(RedistMode::kWithIndices), 2 * run(RedistMode::kDetectBothSides));
}

TEST(Redistribute, ChargesRedistCategory) {
  auto machine = make_machine(2);
  Shape shape({8});
  auto src = DistArray<int>::scatter(
      Distribution::cyclic(shape, ProcessGrid({2})), std::vector<int>(8, 1));
  DistArray<int> dst(Distribution::block(shape, ProcessGrid({2})));
  redistribute(machine, src, dst);
  EXPECT_GT(machine.max_us(sim::Category::kRedist), 0.0);
  EXPECT_DOUBLE_EQ(machine.max_us(sim::Category::kM2M), 0.0);
}

TEST(Redistribute, ShapeMismatchThrows) {
  auto machine = make_machine(2);
  DistArray<int> a(Distribution::block1d(8, 2));
  DistArray<int> b(Distribution::block1d(9, 2));
  EXPECT_THROW(redistribute(machine, a, b), pup::ContractError);
}

TEST(RouteElements, PlaceRejectsIndicesOutsideTheLocalExtent) {
  // Corrupt payloads: an index at or past the receiver's extent of 10, a
  // negative index, or a pair cut short throws ContractError instead of
  // writing out of bounds (the sanitizer jobs would report such a write).
  std::vector<std::int64_t> local(10, -1);
  auto pair = [](std::int64_t l) {
    ByteWriter w;
    w.put<std::int64_t>(l);
    w.put<std::int64_t>(5);
    return w.take();
  };
  auto place = [&](const std::vector<std::byte>& payload) {
    detail::place_routed<std::int64_t>(
        payload, static_cast<index_t>(local.size()),
        [&](index_t l, std::int64_t v) {
          local[static_cast<std::size_t>(l)] = v;
        });
  };
  EXPECT_NO_THROW(place(pair(9)));
  EXPECT_EQ(local[9], 5);
  EXPECT_NO_THROW(place({}));
  for (const std::int64_t bad :
       {std::int64_t{10}, std::int64_t{-1},
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_THROW(place(pair(bad)), pup::ContractError) << bad;
  }
  auto truncated = pair(3);
  truncated.pop_back();
  EXPECT_THROW(place(truncated), pup::ContractError);
  truncated.resize(4);
  EXPECT_THROW(place(truncated), pup::ContractError);
  EXPECT_EQ(local[3], -1);
  EXPECT_EQ(std::count(local.begin(), local.end(), -1), 9);
}

}  // namespace
}  // namespace pup::dist
