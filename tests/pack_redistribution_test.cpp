// Tests for the preliminary cyclic-to-block redistribution PACK paths
// (Red1: selected data, Red2: whole arrays), on a clean network and under
// a seeded fault plan that the reliable layer recovers.
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "sim/fault.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

struct Case {
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  double density;
};

/// The last parameter: whether the machine carries this fault plan.
const char* const kFaultSpec =
    "seed=1234 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03";

class RedSweep : public ::testing::TestWithParam<
                     std::tuple<Case, RedistributionScheme, bool>> {};

TEST_P(RedSweep, MatchesDirectPack) {
  const auto& [c, scheme, faulted] = GetParam();
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = make_machine(p);
  if (faulted) machine.set_fault_plan(sim::FaultPlan::parse(kFaultSpec));
  auto d = dist::Distribution::cyclic(dist::Shape(c.extents),
                                      dist::ProcessGrid(c.procs));
  const auto n = d.global().size();
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(n, c.density, 0xc0ffee);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  auto direct = pack(machine, a, m);
  auto red = pack_with_redistribution(machine, a, m, scheme);
  EXPECT_EQ(red.size, direct.size);
  EXPECT_EQ(red.vector.gather(), direct.vector.gather());
  EXPECT_EQ(red.vector.gather(), serial_pack<std::int64_t>(data, gm));
  EXPECT_TRUE(machine.mailboxes_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedSweep,
    ::testing::Combine(
        ::testing::Values(Case{{32}, {4}, 0.1}, Case{{32}, {4}, 0.9},
                          Case{{64}, {8}, 0.5}, Case{{8, 8}, {2, 2}, 0.3},
                          Case{{16, 16}, {4, 4}, 0.7},
                          Case{{60}, {5}, 0.4}),
        ::testing::Values(RedistributionScheme::kSelectedData,
                          RedistributionScheme::kWholeArrays),
        ::testing::Bool()));

TEST(PackRedistribution, WorksFromBlockCyclicToo) {
  // Not only pure-cyclic inputs benefit; any distribution is accepted.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(32);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(32, 0.5, 4);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto red = pack_with_redistribution(machine, a, m,
                                      RedistributionScheme::kSelectedData);
  EXPECT_EQ(red.vector.gather(), serial_pack<int>(data, gm));
}

TEST(PackRedistribution, SelectedDataVolumeScalesWithDensity) {
  // Red1 ships only selected elements; Red2 ships everything.  At low
  // density Red1's redistribution traffic must be far smaller.
  auto traffic = [&](RedistributionScheme scheme, double density) {
    auto machine = make_machine(4);
    auto d = dist::Distribution::cyclic(dist::Shape({256}),
                                        dist::ProcessGrid({4}));
    std::vector<std::int64_t> data(256, 1);
    auto gm = random_mask(256, density, 12);
    auto a = dist::DistArray<std::int64_t>::scatter(d, data);
    auto m = dist::DistArray<mask_t>::scatter(d, gm);
    pack_with_redistribution(machine, a, m, scheme);
    return machine.trace().bytes_in(sim::Category::kRedist);
  };
  EXPECT_LT(traffic(RedistributionScheme::kSelectedData, 0.1),
            traffic(RedistributionScheme::kWholeArrays, 0.1));
  // Red2's traffic is density-insensitive.
  EXPECT_EQ(traffic(RedistributionScheme::kWholeArrays, 0.1),
            traffic(RedistributionScheme::kWholeArrays, 0.9));
}

TEST(PackRedistribution, ChargesRedistCategory) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::cyclic(dist::Shape({64}),
                                      dist::ProcessGrid({4}));
  std::vector<int> data(64, 1);
  auto gm = random_mask(64, 0.5, 5);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  pack_with_redistribution(machine, a, m,
                           RedistributionScheme::kWholeArrays);
  EXPECT_GT(machine.max_us(sim::Category::kRedist), 0.0);
}

}  // namespace
}  // namespace pup
