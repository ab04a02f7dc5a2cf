// Hand-verified reproduction of the paper's Figure 1 setting: the parallel
// ranking algorithm on a one-dimensional array of 16 elements distributed
// block-cyclic(2) over four processors, with a 10-true mask (the figure's
// Size = 10).  Every PS_f entry is checked against hand-computed global
// prefix counts.
#include <gtest/gtest.h>

#include "core/ranking.hpp"
#include "dist/dist_array.hpp"
#include "sim/machine.hpp"
#include "support/uninit.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

TEST(Figure1, RankingOnBlockCyclic2Over4Procs) {
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  // Global mask, 10 true values.
  const std::vector<mask_t> gm = {1, 1, 0, 1, 0, 1, 1, 0,
                                  1, 1, 1, 0, 0, 1, 1, 0};
  // Global exclusive prefix counts (trues before each index):
  //   [0,1,2,2,3,3,4,5,5,6,7,8,8,8,9,10]
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  auto ranking = rank_mask(machine, mask);

  EXPECT_EQ(ranking.size, 10);
  EXPECT_EQ(ranking.slices, 2);       // T = N/(P*W) = 2 slices per processor
  EXPECT_EQ(ranking.slice_width, 2);  // W_0

  // Slice s of processor p starts at global index s*P*W + p*W; its PS_f
  // entry is the number of trues before that start.
  // P0: starts 0, 8  -> 0, 5        P1: starts 2, 10 -> 2, 7
  // P2: starts 4, 12 -> 3, 8        P3: starts 6, 14 -> 4, 9
  const std::vector<support::UninitVector<std::int64_t>> expected_psf = {
      {0, 5}, {2, 7}, {3, 8}, {4, 9}};
  // Per-slice true counts from the mask blocks:
  // P0: (1,1),(1,1) -> 2,2   P1: (0,1),(1,0) -> 1,1
  // P2: (0,1),(0,1) -> 1,1   P3: (1,0),(1,0) -> 1,1
  const std::vector<support::UninitVector<std::int32_t>> expected_counts = {
      {2, 2}, {1, 1}, {1, 1}, {1, 1}};

  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(ranking.procs[static_cast<std::size_t>(p)].ps_f,
              expected_psf[static_cast<std::size_t>(p)])
        << "proc " << p;
    EXPECT_EQ(ranking.procs[static_cast<std::size_t>(p)].counts,
              expected_counts[static_cast<std::size_t>(p)])
        << "proc " << p;
  }
}

TEST(Figure1, BothPrsAlgorithmsGiveTheSameBaseRanks) {
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  const std::vector<mask_t> gm = {1, 1, 0, 1, 0, 1, 1, 0,
                                  1, 1, 1, 0, 0, 1, 1, 0};
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  RankingOptions direct, split;
  direct.prs = coll::PrsAlgorithm::kDirect;
  split.prs = coll::PrsAlgorithm::kSplit;
  auto r1 = rank_mask(machine, mask, direct);
  auto r2 = rank_mask(machine, mask, split);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(r1.procs[static_cast<std::size_t>(p)].ps_f,
              r2.procs[static_cast<std::size_t>(p)].ps_f);
  }
}

}  // namespace
}  // namespace pup
