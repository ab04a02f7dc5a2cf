// Unit and property tests for the per-dimension block-cyclic map.
#include <gtest/gtest.h>

#include <tuple>

#include "dist/block_cyclic.hpp"
#include "support/check.hpp"

namespace pup::dist {
namespace {

TEST(BlockCyclicDim, PaperExampleFigure1) {
  // Figure 1: N=16, P=4, W=2 -> L=4, T=2, S=8.
  BlockCyclicDim d(16, 4, 2);
  EXPECT_EQ(d.local_extent(), 4);
  EXPECT_EQ(d.tiles(), 2);
  EXPECT_EQ(d.tile_size(), 8);
  EXPECT_TRUE(d.divisible());

  // Blocks of two: owners along 0..15 are 00 11 22 33 00 11 22 33.
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(1), 0);
  EXPECT_EQ(d.owner(2), 1);
  EXPECT_EQ(d.owner(7), 3);
  EXPECT_EQ(d.owner(8), 0);
  EXPECT_EQ(d.owner(15), 3);

  // Local layout is tile-major: proc 0 owns globals {0,1,8,9} at locals
  // {0,1,2,3}.
  EXPECT_EQ(d.local_index(0), 0);
  EXPECT_EQ(d.local_index(1), 1);
  EXPECT_EQ(d.local_index(8), 2);
  EXPECT_EQ(d.local_index(9), 3);
  EXPECT_EQ(d.global_index(0, 2), 8);
}

TEST(BlockCyclicDim, CyclicIsBlockSizeOne) {
  BlockCyclicDim d(12, 3, 1);
  for (index_t g = 0; g < 12; ++g) {
    EXPECT_EQ(d.owner(g), static_cast<int>(g % 3));
    EXPECT_EQ(d.local_index(g), g / 3);
  }
}

TEST(BlockCyclicDim, BlockIsBlockSizeNOverP) {
  BlockCyclicDim d(12, 3, 4);
  EXPECT_EQ(d.tiles(), 1);
  for (index_t g = 0; g < 12; ++g) {
    EXPECT_EQ(d.owner(g), static_cast<int>(g / 4));
    EXPECT_EQ(d.local_index(g), g % 4);
  }
}

struct RoundTripParam {
  index_t n;
  int p;
  index_t w;
};

class BlockCyclicRoundTrip : public ::testing::TestWithParam<RoundTripParam> {
};

TEST_P(BlockCyclicRoundTrip, GlobalLocalGlobal) {
  const auto [n, p, w] = GetParam();
  BlockCyclicDim d(n, p, w);
  // Every global index maps to (owner, local) and back.
  std::vector<index_t> counts(static_cast<std::size_t>(p), 0);
  for (index_t g = 0; g < n; ++g) {
    const int o = d.owner(g);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, p);
    const index_t l = d.local_index(g);
    EXPECT_EQ(d.global_index(o, l), g);
    ++counts[static_cast<std::size_t>(o)];
    // block_of agrees with the per-element map over its whole block.
    const BlockCyclicDim::Block blk = d.block_of(g);
    EXPECT_TRUE(blk.contains(g));
    EXPECT_EQ(blk.start % w, 0);
    EXPECT_LE(blk.end - blk.start, w);
    EXPECT_EQ(blk.owner, o);
    EXPECT_EQ(blk.local_index(g), l);
  }
  EXPECT_THROW(d.block_of(-1), ContractError);
  EXPECT_THROW(d.block_of(n), ContractError);
  // local_extent_on agrees with the actual ownership counts (ragged-aware).
  for (int proc = 0; proc < p; ++proc) {
    EXPECT_EQ(d.local_extent_on(proc), counts[static_cast<std::size_t>(proc)])
        << "proc " << proc << " n=" << n << " p=" << p << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockCyclicRoundTrip,
    ::testing::Values(RoundTripParam{16, 4, 2}, RoundTripParam{16, 4, 1},
                      RoundTripParam{16, 4, 4}, RoundTripParam{17, 4, 2},
                      RoundTripParam{23, 5, 3}, RoundTripParam{100, 7, 4},
                      RoundTripParam{5, 8, 2}, RoundTripParam{1, 1, 1},
                      RoundTripParam{64, 1, 8}, RoundTripParam{63, 8, 8}));

TEST(BlockCyclicDim, LocalOrderPreservesGlobalOrderWithinProc) {
  // Within one processor, increasing local index must mean increasing
  // global index (the ranking algorithm depends on this).
  BlockCyclicDim d(24, 3, 2);
  for (int proc = 0; proc < 3; ++proc) {
    index_t prev = -1;
    for (index_t l = 0; l < d.local_extent_on(proc); ++l) {
      const index_t g = d.global_index(proc, l);
      EXPECT_GT(g, prev);
      prev = g;
    }
  }
}

TEST(BlockCyclicDim, DivisibilityDetection) {
  EXPECT_TRUE(BlockCyclicDim(24, 3, 2).divisible());
  EXPECT_FALSE(BlockCyclicDim(25, 3, 2).divisible());
  EXPECT_FALSE(BlockCyclicDim(24, 3, 5).divisible());
}

TEST(BlockCyclicDim, LocalExtentRequiresDivisible) {
  EXPECT_THROW(BlockCyclicDim(25, 3, 2).local_extent(), ContractError);
}

TEST(BlockCyclicDim, TileOfMatchesDefinition) {
  BlockCyclicDim d(32, 4, 2);  // S = 8
  EXPECT_EQ(d.tile_of(0), 0);
  EXPECT_EQ(d.tile_of(7), 0);
  EXPECT_EQ(d.tile_of(8), 1);
  EXPECT_EQ(d.tile_of(31), 3);
}

TEST(BlockCyclicDim, BadArgsThrow) {
  EXPECT_THROW(BlockCyclicDim(-1, 2, 1), ContractError);
  EXPECT_THROW(BlockCyclicDim(8, 0, 1), ContractError);
  EXPECT_THROW(BlockCyclicDim(8, 2, 0), ContractError);
}

}  // namespace
}  // namespace pup::dist
