// Cross-cutting integration tests: determinism of the simulation, topology
// and schedule variants, large machines, deep ranks, and non-scalar element
// types -- all verified end-to-end against the serial oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "core/api.hpp"
#include "support/env.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

struct Particle {
  double x;
  std::int32_t id;
  std::int32_t flags;

  bool operator==(const Particle&) const = default;
};
static_assert(std::is_trivially_copyable_v<Particle>);

using test::make_machine;

TEST(Integration, SimulationIsBitwiseDeterministic) {
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
  auto m1 = make_machine(8), m2 = make_machine(8);
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

TEST(Integration, TopologyChangesCostNotResults) {
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
    auto machine = make_machine(16, options);
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

TEST(Integration, SchedulesAndPrsVariantsAgreeOnData) {
  auto d = dist::Distribution::block_cyclic(dist::Shape({16, 16}),
                                            dist::ProcessGrid({4, 4}), 2);
  std::vector<double> data(256);
  std::iota(data.begin(), data.end(), 0.5);
  auto gm = random_mask(256, 0.6, 13);
  auto machine = make_machine(16);
  auto a = dist::DistArray<double>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  std::vector<double> reference;
  for (auto sched :
       {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive}) {
    for (auto prs : {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit,
                     coll::PrsAlgorithm::kAuto}) {
      PackOptions opt;
      opt.schedule = sched;
      opt.prs = prs;
      auto result = pack(machine, a, m, opt);
      if (reference.empty()) {
        reference = result.vector.gather();
      } else {
        EXPECT_EQ(result.vector.gather(), reference);
      }
    }
  }
}

TEST(Integration, LargeMachine64Procs) {
  const int p = 64;
  auto machine = make_machine(p);
  auto d = dist::Distribution::block_cyclic(dist::Shape({4096}),
                                            dist::ProcessGrid({p}), 8);
  std::vector<std::int64_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(4096, 0.4, 17);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  EXPECT_EQ(result.vector.gather(), serial_pack<std::int64_t>(data, gm));
}

TEST(Integration, Machine256ProcsTwoDimensional) {
  const int p = 256;
  auto machine = make_machine(p);
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

TEST(Integration, Rank5Array) {
  auto machine = make_machine(8);
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

TEST(Integration, StructElementType) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({64}),
                                            dist::ProcessGrid({4}), 4);
  std::vector<Particle> data(64);
  for (int i = 0; i < 64; ++i) {
    data[static_cast<std::size_t>(i)] = Particle{0.5 * i, i, i % 7};
  }
  auto gm = random_mask(64, 0.5, 31);
  auto a = dist::DistArray<Particle>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto packed = pack(machine, a, m);
  EXPECT_EQ(packed.vector.gather(), serial_pack<Particle>(data, gm));

  // Round trip through UNPACK.
  auto restored = unpack(machine, packed.vector, m, a);
  EXPECT_EQ(restored.result.gather(), data);
}

TEST(Integration, RepeatedOperationsLeaveMachineClean) {
  auto machine = make_machine(4);
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

TEST(Integration, SingleProcessorMachineDegenerates) {
  // P=1: no communication at all, still correct.
  auto machine = make_machine(1);
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

TEST(TestConfig, EnvReachesHelperMachines) {
  // Re-reads the process environment and checks that the test main passed
  // it on: a helper machine is threaded exactly when PUP_THREADS asks for
  // a pool and carries a fault plan exactly when PUP_FAULTS is set, so a
  // re-run registration cannot silently lose its configuration.
  const support::Env env = support::Env::read();
  auto machine = test::make_machine(4);
  EXPECT_EQ(machine.exec().is_threaded(), env.threads.value_or(1) > 1);
  EXPECT_EQ(machine.fault_plan() != nullptr, env.faults.has_value());
}

}  // namespace
}  // namespace pup
