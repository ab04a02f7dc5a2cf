// Determinism-checker tests: the library's operations replay bit-for-bit,
// deliberately nondeterministic operations are caught with a useful
// first-difference report, and the threaded local-phase pool changes no
// modeled quantity -- collectives, PACK/UNPACK round trips and mid-PRS
// kill recovery digest identically on threaded(4) and sequential machines,
// on a clean network and under a seeded fault schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/protocol_validator.hpp"
#include "coll/alltoallv.hpp"
#include "coll/broadcast.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"
#include "core/api.hpp"
#include "plan/resilient.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

const sim::CostModel kCost{10.0, 0.05};

/// kCost on sequential local phases; the threaded parity tests below pin
/// their own pools.
sim::MachineOptions opts() { return test::test_options(kCost); }

TEST(Determinism, PackReplaysIdentically) {
  const dist::index_t n = 64;
  auto report = analysis::check_determinism(4, opts(), [&](sim::Machine& m) {
    auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                              dist::ProcessGrid({4}), 4);
    std::vector<int> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 0);
    auto mask = random_mask(n, 0.5, 17);
    auto a = dist::DistArray<int>::scatter(d, data);
    auto mk = dist::DistArray<mask_t>::scatter(d, mask);
    (void)pack(m, a, mk);
  });
  EXPECT_TRUE(report.deterministic) << report.diff;
  EXPECT_EQ(report.diff, "");
  EXPECT_GT(report.first.messages, 0);
  EXPECT_EQ(report.first, report.second);
}

TEST(Determinism, CollectivesReplayIdentically) {
  auto report = analysis::check_determinism(4, opts(), [](sim::Machine& m) {
    const auto g = coll::Group::world(4);
    std::vector<std::vector<int>> bufs(4);
    for (int r = 0; r < 4; ++r) bufs[r] = {r, r * r};
    coll::allreduce_sum(m, g, bufs);

    std::vector<std::vector<std::vector<int>>> send(4);
    for (int src = 0; src < 4; ++src) {
      send[src].resize(4);
      for (int dst = 0; dst < 4; ++dst) {
        send[src][dst].assign(static_cast<std::size_t>(src + 1), dst);
      }
    }
    (void)coll::alltoallv_typed(m, g, std::move(send));
  });
  EXPECT_TRUE(report.deterministic) << report.diff;
}

TEST(Determinism, CatchesPayloadThatVariesAcrossRuns) {
  int run = 0;
  auto report = analysis::check_determinism(2, opts(), [&](sim::Machine& m) {
    ++run;
    // A payload whose size depends on invocation count: the digest's byte
    // totals differ between the two replays.
    std::vector<std::byte> payload(static_cast<std::size_t>(8 * run));
    m.post(sim::Message{0, 1, 1, std::move(payload)}, sim::Category::kM2M);
    (void)m.receive_required(1, 0, 1);
  });
  EXPECT_FALSE(report.deterministic);
  EXPECT_NE(report.diff, "");
  EXPECT_NE(report.first, report.second);
}

TEST(Determinism, CatchesChargeThatVariesAcrossRuns) {
  int run = 0;
  auto report = analysis::check_determinism(2, opts(), [&](sim::Machine& m) {
    ++run;
    m.charge(0, sim::Category::kPrs, run == 1 ? 1.0 : 2.0);
  });
  EXPECT_FALSE(report.deterministic);
  EXPECT_NE(report.diff, "");
}

TEST(Determinism, DigestExcludesRealWallClockTime) {
  // local_phase charges real wall-clock time, which is never reproducible;
  // the digest must ignore it so identical logic replays identically.
  auto report = analysis::check_determinism(2, opts(), [](sim::Machine& m) {
    m.local_phase([](int rank) {
      volatile long sink = 0;
      for (long i = 0; i < 10000 * (rank + 1); ++i) sink = sink + i;
    });
  });
  EXPECT_TRUE(report.deterministic) << report.diff;
}

TEST(Determinism, ThreadedExecutionMatchesSequentialDigest) {
  // The threaded execution policy may only change wall-clock time: the
  // digest (messages, bytes, modeled charges) and the packed data must be
  // bit-identical to a sequential run of the same operation.
  const dist::index_t n = 4096;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({8}), 64);
  std::vector<int> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(n, 0.5, 23);

  auto run = [&](sim::Machine& m) {
    analysis::DigestRecorder recorder(m);
    auto a = dist::DistArray<int>::scatter(d, data);
    auto mk = dist::DistArray<mask_t>::scatter(d, gm);
    PackOptions opt;
    opt.scheme = PackScheme::kAuto;
    auto r = pack(m, a, mk, opt);
    return std::make_pair(recorder.digest(), r.vector.gather());
  };

  sim::Machine seq(8, {.cost = kCost});
  sim::Machine par(8, {.cost = kCost, .exec = sim::ExecPolicy::threaded(4)});
  const auto [dseq, vseq] = run(seq);
  const auto [dpar, vpar] = run(par);
  EXPECT_EQ(dseq, dpar) << analysis::diff_digests(dseq, dpar);
  EXPECT_EQ(vseq, vpar);
  EXPECT_GT(dseq.messages, 0);
}

// --- threaded(4) vs sequential parity ---------------------------------

constexpr int kParityProcs = 8;
const char* const kParityFaultSpec =
    "seed=1234 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03";

using Words = std::vector<std::int64_t>;

std::vector<Words> random_words(std::size_t m, std::uint64_t seed) {
  std::vector<Words> bufs(kParityProcs);
  Xoshiro256 rng(seed);
  for (auto& v : bufs) {
    v.resize(m);
    for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(1000));
  }
  return bufs;
}

/// One pass over every collective (both M2M schedules, broadcast,
/// allreduce, exscan, both PRS algorithms); all results flattened.
Words run_all_collectives(sim::Machine& m) {
  const auto g = coll::Group::world(kParityProcs);
  Words flat;
  auto absorb = [&flat](const std::vector<Words>& bufs) {
    for (const auto& v : bufs) flat.insert(flat.end(), v.begin(), v.end());
  };
  for (coll::M2MSchedule sched :
       {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive}) {
    std::vector<std::vector<Words>> send(kParityProcs,
                                         std::vector<Words>(kParityProcs));
    Xoshiro256 rng(42);
    for (auto& row : send) {
      for (auto& v : row) {
        v.resize(rng.next_below(6));
        for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(100));
      }
    }
    for (const auto& row :
         coll::alltoallv_typed<std::int64_t>(m, g, std::move(send), sched)) {
      absorb(row);
    }
  }
  std::vector<Words> bcast(kParityProcs);
  bcast[3] = {11, 22, 33, 44};
  coll::broadcast(m, g, 3, bcast);
  absorb(bcast);
  auto sums = random_words(17, 99);
  coll::allreduce_sum(m, g, sums);
  absorb(sums);
  auto scan = random_words(9, 7);
  coll::exscan_sum(m, g, scan);
  absorb(scan);
  for (coll::PrsAlgorithm alg :
       {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit}) {
    auto prefix = random_words(12, 55);
    std::vector<Words> total(kParityProcs);
    coll::prefix_reduction_sum(m, g, alg, prefix, total);
    absorb(prefix);
    absorb(total);
  }
  return flat;
}

/// Runs `op` on a sequential and a threaded(4) machine with the given fault
/// plan (nullptr: clean) and expects equal results and digests.
template <typename Op>
void expect_pool_parity(const char* fault_spec, Op op) {
  auto run = [&](sim::ExecPolicy exec) {
    sim::Machine m(kParityProcs, {.cost = kCost, .exec = exec});
    if (fault_spec != nullptr) {
      m.set_fault_plan(sim::FaultPlan::parse(fault_spec));
    }
    analysis::DigestRecorder recorder(m);
    auto result = op(m);
    EXPECT_TRUE(m.mailboxes_empty());
    return std::make_pair(std::move(result), recorder.digest());
  };
  const auto [rseq, dseq] = run(sim::ExecPolicy::sequential());
  const auto [rpar, dpar] = run(sim::ExecPolicy::threaded(4));
  EXPECT_EQ(rseq, rpar);
  EXPECT_EQ(dseq, dpar) << analysis::diff_digests(dseq, dpar);
  EXPECT_GT(dseq.messages, 0);
}

struct ParityArrays {
  std::vector<std::int64_t> data;
  std::vector<mask_t> mask;
  dist::DistArray<std::int64_t> array;
  dist::DistArray<mask_t> dmask;
};

ParityArrays parity_arrays(std::uint64_t mask_seed) {
  const dist::index_t n = 2048;
  auto d = dist::Distribution::block_cyclic(
      dist::Shape({n}), dist::ProcessGrid({kParityProcs}), 16);
  ParityArrays a;
  a.data.resize(static_cast<std::size_t>(n));
  std::iota(a.data.begin(), a.data.end(), 1);
  a.mask = random_mask(n, 0.4, mask_seed);
  a.array = dist::DistArray<std::int64_t>::scatter(d, a.data);
  a.dmask = dist::DistArray<mask_t>::scatter(d, a.mask);
  return a;
}

TEST(Determinism, ThreadedCollectivesMatchSequentialDigest) {
  for (const char* spec : {static_cast<const char*>(nullptr),
                           kParityFaultSpec}) {
    SCOPED_TRACE(spec == nullptr ? "clean" : spec);
    expect_pool_parity(spec, run_all_collectives);
  }
}

TEST(Determinism, ThreadedPackUnpackRoundTripMatchesSequentialDigest) {
  const ParityArrays a = parity_arrays(0x5eed);
  for (const char* spec : {static_cast<const char*>(nullptr),
                           kParityFaultSpec}) {
    SCOPED_TRACE(spec == nullptr ? "clean" : spec);
    expect_pool_parity(spec, [&](sim::Machine& m) {
      PackOptions opt;
      opt.scheme = PackScheme::kCompactMessage;
      auto packed = pack(m, a.array, a.dmask, opt);
      auto restored = unpack(m, packed.vector, a.dmask, a.array);
      Words out = packed.vector.gather();
      EXPECT_EQ(out, serial_pack<std::int64_t>(a.data, a.mask));
      EXPECT_EQ(restored.result.gather(), a.data);
      return out;
    });
  }
}

TEST(Determinism, ThreadedKillRecoveryMatchesSequentialDigest) {
  // A fail-stop kill mid-PRS drives heartbeat detection, epoch rollback of
  // the mailboxes, revive and fault-free re-execution.
  const ParityArrays a = parity_arrays(0x1337);
  expect_pool_parity(nullptr, [&](sim::Machine& m) {
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    const plan::PackPlan plan = plan::compile_pack_plan(
        m, a.array.dist(), sizeof(std::int64_t), opt);
    m.set_fault_plan(sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
    RecoveryPolicy pol;
    pol.max_restarts = 3;
    plan::ResilientExecutor exec(m, pol);
    Words got = exec.pack(plan, a.array, a.dmask).vector.gather();
    EXPECT_EQ(got, serial_pack<std::int64_t>(a.data, a.mask));
    EXPECT_EQ(exec.stats().restarts, 1);
    EXPECT_EQ(m.epochs_rolled_back(), 1);
    return got;
  });
}

TEST(Determinism, RecorderStacksWithProtocolValidator) {
  auto machine = test::make_machine(4, opts());
  analysis::ProtocolValidator validator(machine);
  analysis::DigestRecorder recorder(machine);

  const auto g = coll::Group::world(4);
  std::vector<std::vector<int>> bufs(4);
  for (int r = 0; r < 4; ++r) bufs[r] = {r};
  coll::broadcast(machine, g, 0, bufs);

  // The recorder forwards every event, so the validator (attached first)
  // still sees the full protocol; both observers report on the same run.
  const auto digest = recorder.digest();
  EXPECT_GT(digest.messages, 0);
  EXPECT_EQ(digest.messages, validator.stats().posts);
  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
}

}  // namespace
}  // namespace pup
