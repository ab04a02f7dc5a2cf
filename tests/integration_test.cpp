// Cross-cutting integration tests: determinism of the simulation, topology
// variants, a 256-processor machine and a rank-5 array -- all verified
// end-to-end against the serial oracle, on a clean network and under a
// seeded fault plan that the reliable layer recovers.  Schedule and PRS
// variants, 64 processors and 16-byte elements are axes of the seeded
// draw (fuzz_oracle_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "core/api.hpp"
#include "sim/fault.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

const char* const kFaultSpec =
    "seed=1234 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03";

/// GetParam(): whether the machines carry the seeded fault plan.
class Integration : public ::testing::TestWithParam<bool> {
 protected:
  /// Installs the fault plan on a faulted instance's machine.
  void on_network(sim::Machine& machine) const {
    if (GetParam()) machine.set_fault_plan(sim::FaultPlan::parse(kFaultSpec));
  }
};

TEST_P(Integration, SimulationIsBitwiseDeterministic) {
  // Two independent machines running the same PACK must agree on modeled
  // communication time, message counts, traffic, and results exactly.
  auto run = [](sim::Machine& machine) {
    auto d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                              dist::ProcessGrid({8}), 4);
    std::vector<std::int64_t> data(256);
    std::iota(data.begin(), data.end(), 0);
    auto a = dist::DistArray<std::int64_t>::scatter(d, data);
    auto m = dist::DistArray<mask_t>::scatter(d, random_mask(256, 0.5, 77));
    return pack(machine, a, m);
  };
  auto m1 = test::make_machine(8), m2 = test::make_machine(8);
  on_network(m1);
  on_network(m2);
  auto r1 = run(m1);
  auto r2 = run(m2);
  EXPECT_EQ(r1.vector.gather(), r2.vector.gather());
  EXPECT_EQ(m1.trace().messages(), m2.trace().messages());
  EXPECT_EQ(m1.trace().bytes(), m2.trace().bytes());
  EXPECT_EQ(m1.trace().self_bytes(), m2.trace().self_bytes());
  for (int r = 0; r < 8; ++r) {
    // The many-to-many bucket is charged purely from the cost model, so it
    // is exactly reproducible.  (The PRS bucket also accumulates *real*
    // time of the internal vector additions and is therefore only
    // approximately repeatable.)
    EXPECT_DOUBLE_EQ(m1.times(r).m2m_us(), m2.times(r).m2m_us());
  }
}

TEST_P(Integration, TopologyChangesCostNotResults) {
  auto d = dist::Distribution::block_cyclic(dist::Shape({128}),
                                            dist::ProcessGrid({16}), 2);
  std::vector<int> data(128);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(128, 0.5, 3);

  std::vector<int> reference;
  double crossbar_m2m = 0;
  for (auto kind : {sim::TopologyKind::kCrossbar, sim::TopologyKind::kHypercube,
                    sim::TopologyKind::kMesh2D}) {
    auto options = test::test_options();
    options.topology = kind == sim::TopologyKind::kCrossbar
                           ? sim::Topology::crossbar(16)
                       : kind == sim::TopologyKind::kHypercube
                           ? sim::Topology::hypercube(16)
                           : sim::Topology::mesh2d(16);
    auto machine = test::make_machine(16, options);
    on_network(machine);
    auto a = dist::DistArray<int>::scatter(d, data);
    auto m = dist::DistArray<mask_t>::scatter(d, gm);
    auto result = pack(machine, a, m);
    if (kind == sim::TopologyKind::kCrossbar) {
      reference = result.vector.gather();
      crossbar_m2m = machine.max_us(sim::Category::kM2M);
    } else {
      EXPECT_EQ(result.vector.gather(), reference);
      // Multi-hop topologies can only be costlier under the hop model.
      EXPECT_GE(machine.max_us(sim::Category::kM2M), crossbar_m2m);
    }
  }
}

TEST_P(Integration, Machine256ProcsTwoDimensional) {
  const int p = 256;
  auto machine = test::make_machine(p);
  on_network(machine);
  auto d = dist::Distribution::block_cyclic(dist::Shape({64, 64}),
                                            dist::ProcessGrid({16, 16}), 2);
  std::vector<std::int64_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(4096, 0.5, 23);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  EXPECT_EQ(result.vector.gather(), serial_pack<std::int64_t>(data, gm));
}

TEST_P(Integration, Rank5Array) {
  auto machine = test::make_machine(8);
  on_network(machine);
  auto d = dist::Distribution(dist::Shape({4, 4, 2, 2, 4}),
                              dist::ProcessGrid({2, 2, 1, 1, 2}),
                              {1, 2, 2, 1, 2});
  const auto n = d.global().size();
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(n, 0.5, 29);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  for (PackScheme scheme :
       {PackScheme::kSimpleStorage, PackScheme::kCompactMessage}) {
    PackOptions opt;
    opt.scheme = scheme;
    auto result = pack(machine, a, m, opt);
    EXPECT_EQ(result.vector.gather(), serial_pack<std::int64_t>(data, gm));
  }
}

TEST_P(Integration, RepeatedOperationsLeaveMachineClean) {
  auto machine = test::make_machine(4);
  on_network(machine);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(32, 1);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, random_mask(32, 0.5, 37));
  for (int i = 0; i < 5; ++i) {
    auto result = pack(machine, a, m);
    EXPECT_TRUE(machine.mailboxes_empty());
    auto back = unpack(machine, result.vector, m, a);
    EXPECT_TRUE(machine.mailboxes_empty());
  }
}

TEST_P(Integration, SingleProcessorMachineDegenerates) {
  // P=1: no communication at all, still correct.
  auto machine = test::make_machine(1);
  on_network(machine);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({1}), 4);
  std::vector<int> data(32);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(32, 0.5, 41);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  EXPECT_EQ(result.vector.gather(), serial_pack<int>(data, gm));
  EXPECT_EQ(machine.trace().messages(), 0);
}

INSTANTIATE_TEST_SUITE_P(Network, Integration, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Faulted" : "Clean";
                         });

}  // namespace
}  // namespace pup
