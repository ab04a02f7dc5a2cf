// Reliable transport layer (coll/reliable.hpp):
//   * the zero-fault reliable path is digest-identical to the raw
//     transport -- same messages, same bytes, same modeled charges, zero
//     control traffic ("reliability is free when the network is clean");
//   * under a seeded fault schedule every collective completes with
//     bit-identical results, reproducible retransmission counts, and a
//     passing ProtocolValidator;
//   * PACK/UNPACK survive an end-to-end faulty run against the serial
//     oracle;
//   * retry exhaustion raises TransportError deterministically (same rank,
//     same channel, same message text in every run);
//   * without the reliable layer the same fault schedule is a
//     ContractError -- the failure mode this subsystem exists to fix.
//
// Machines install their fault plans explicitly, replacing any startup
// PUP_FAULTS plan the CI fault steps hand make_machine().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/protocol_validator.hpp"
#include "coll/alltoallv.hpp"
#include "coll/broadcast.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/reliable.hpp"
#include "coll/scan.hpp"
#include "core/api.hpp"
#include "sim/fault.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using coll::Group;
using Vec = std::vector<std::int64_t>;
using Bufs = std::vector<Vec>;

constexpr int kP = 8;
const char* const kFaultSpec =
    "seed=1234 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03";

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

/// One pass over every collective; returns all result payloads flattened so
/// runs can be compared bit for bit.
Vec run_all_collectives(sim::Machine& m) {
  const Group g = Group::world(kP);
  Vec flat;
  auto absorb = [&flat](const Bufs& bufs) {
    for (const auto& v : bufs) flat.insert(flat.end(), v.begin(), v.end());
  };

  {  // many-to-many, both schedules
    for (coll::M2MSchedule sched :
         {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive}) {
      std::vector<std::vector<Vec>> send(kP, std::vector<Vec>(kP));
      Xoshiro256 rng(42);
      for (int i = 0; i < kP; ++i) {
        for (int j = 0; j < kP; ++j) {
          auto& v = send[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          v.resize(rng.next_below(6));  // ragged, some empty
          for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(100));
        }
      }
      auto recv = coll::alltoallv_typed<std::int64_t>(m, g, std::move(send),
                                                      sched);
      for (const auto& row : recv) absorb(row);
    }
  }
  {  // binomial broadcast
    Bufs bufs(kP);
    bufs[3] = {11, 22, 33, 44};
    coll::broadcast(m, g, 3, bufs);
    absorb(bufs);
  }
  {  // allreduce (binomial gather + nested broadcast)
    Bufs bufs = make_inputs(kP, 17, 99);
    coll::allreduce_sum(m, g, bufs);
    absorb(bufs);
  }
  {  // dissemination exscan
    Bufs bufs = make_inputs(kP, 9, 7);
    coll::exscan_sum(m, g, bufs);
    absorb(bufs);
  }
  {  // prefix-reduction-sum, direct (pow2) and split
    for (coll::PrsAlgorithm alg :
         {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit}) {
      Bufs prefix = make_inputs(kP, 12, 55);
      Bufs total(kP);
      coll::prefix_reduction_sum(m, g, alg, prefix, total);
      absorb(prefix);
      absorb(total);
    }
  }
  return flat;
}

struct RunResult {
  Vec results;
  analysis::TraceDigest digest;
  coll::ReliableStats stats;
};

/// Runs the full collective pass on a fresh machine.  `reliable` forces the
/// layer on/off; `fault_spec` (may be null) installs a seeded plan.
RunResult run_configured(bool reliable, const char* fault_spec) {
  auto m = make_machine(kP);
  m.set_fault_plan(fault_spec == nullptr ? nullptr
                                         : sim::FaultPlan::parse(fault_spec));
  coll::ReliableTransport::of(m).force(reliable);
  analysis::DigestRecorder recorder(m);
  RunResult out;
  out.results = run_all_collectives(m);
  EXPECT_TRUE(m.mailboxes_empty());
  out.digest = recorder.digest();
  out.stats = coll::ReliableTransport::of(m).stats();
  return out;
}

TEST(ReliableTransport, ZeroFaultPathIsDigestIdenticalToBaseline) {
  const RunResult raw = run_configured(/*reliable=*/false, nullptr);
  const RunResult rel = run_configured(/*reliable=*/true, nullptr);

  // Same results, same trace, same modeled charges: stamping frames is free
  // on a clean network.  No timeouts, no NAKs, no retransmissions -- and
  // therefore not a single added tau startup.
  EXPECT_EQ(raw.results, rel.results);
  EXPECT_EQ(analysis::diff_digests(raw.digest, rel.digest), "");
  EXPECT_GT(rel.stats.data_sent, 0);
  EXPECT_EQ(rel.stats.naks, 0);
  EXPECT_EQ(rel.stats.retransmits, 0);
  EXPECT_EQ(rel.stats.corrupt_discarded, 0);
  EXPECT_EQ(rel.stats.dedup_discarded, 0);
}

TEST(ReliableTransport, CleanNetworkPostsAreZeroCopy) {
  // Without a fault plan nothing can be lost, so the layer must not retain
  // a retransmit copy of any payload: every data frame travels to the
  // mailbox by move.  With injection active the copies come back (pruned
  // later by the ack watermark) -- that asymmetry is the whole point of
  // the retained_copies counter.
  const RunResult clean = run_configured(/*reliable=*/true, nullptr);
  EXPECT_GT(clean.stats.data_sent, 0);
  EXPECT_EQ(clean.stats.retained_copies, 0);

  const RunResult faulty = run_configured(/*reliable=*/true, kFaultSpec);
  EXPECT_GT(faulty.stats.retained_copies, 0);
  EXPECT_EQ(faulty.stats.retained_copies, faulty.stats.data_sent);
}

TEST(ReliableTransport, CollectivesSurviveSeededFaultsBitIdentically) {
  const RunResult clean = run_configured(/*reliable=*/false, nullptr);
  const RunResult faulty1 = run_configured(/*reliable=*/true, kFaultSpec);
  const RunResult faulty2 = run_configured(/*reliable=*/true, kFaultSpec);

  // Recovery is exact: the faulty runs compute the clean results.
  EXPECT_EQ(faulty1.results, clean.results);
  EXPECT_EQ(faulty2.results, clean.results);

  // And deterministic: the same seed reproduces the same recovery, down to
  // the retransmission counts.
  EXPECT_GT(faulty1.stats.retransmits + faulty1.stats.dedup_discarded +
                faulty1.stats.corrupt_discarded,
            0)
      << "fault schedule injected nothing; weaken this test's spec";
  EXPECT_EQ(faulty1.stats.retransmits, faulty2.stats.retransmits);
  EXPECT_EQ(faulty1.stats.naks, faulty2.stats.naks);
  EXPECT_EQ(faulty1.stats.dedup_discarded, faulty2.stats.dedup_discarded);
  EXPECT_EQ(faulty1.stats.corrupt_discarded, faulty2.stats.corrupt_discarded);
  EXPECT_EQ(faulty1.stats.drained, faulty2.stats.drained);
  EXPECT_EQ(analysis::diff_digests(faulty1.digest, faulty2.digest), "");

  // Degradation is visible in the model: recovery traffic charged real
  // tau + mu*m makes the faulty run strictly slower than the clean one.
  double clean_us = 0.0;
  double faulty_us = 0.0;
  for (int r = 0; r < kP; ++r) {
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(sim::kNumCategories); ++c) {
      clean_us += clean.digest.charged_us[static_cast<std::size_t>(r)][c];
      faulty_us += faulty1.digest.charged_us[static_cast<std::size_t>(r)][c];
    }
  }
  EXPECT_GT(faulty_us, clean_us);
}

TEST(ReliableTransport, ValidatorHoldsUnderFaults) {
  auto m = make_machine(kP);
  m.set_fault_plan(sim::FaultPlan::parse(kFaultSpec));
  coll::ReliableTransport::of(m).force(true);
  analysis::ProtocolValidator validator(m);
  (void)run_all_collectives(m);
  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
  EXPECT_TRUE(m.mailboxes_empty());
}

TEST(ReliableTransport, DeterminismCheckerPassesUnderFaults) {
  const auto report = analysis::check_determinism(
      kP, test::test_options(), [](sim::Machine& m) {
        m.set_fault_plan(sim::FaultPlan::parse(kFaultSpec));
        coll::ReliableTransport::of(m).force(true);
        (void)run_all_collectives(m);
      });
  EXPECT_TRUE(report.deterministic) << report.diff;
}

TEST(ReliableTransport, PackUnpackRoundTripUnderFaults) {
  auto machine = make_machine(4);
  machine.set_fault_plan(sim::FaultPlan::parse(kFaultSpec));
  coll::ReliableTransport::of(machine).force(true);

  const dist::index_t n = 256;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({4}), 8);
  std::vector<int> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto mask = random_mask(n, 0.5, 42);
  std::vector<int> field(static_cast<std::size_t>(n), -1);

  auto a = dist::DistArray<int>::scatter(d, data);
  auto mk = dist::DistArray<mask_t>::scatter(d, mask);
  auto f = dist::DistArray<int>::scatter(d, std::span<const int>(field));

  auto packed = pack(machine, a, mk);
  const auto expected_pack = serial_pack<int>(data, mask);
  EXPECT_EQ(packed.vector.gather(), expected_pack);

  auto result = unpack(machine, packed.vector, mk, f);
  const auto expected_unpack = serial_unpack<int>(expected_pack, mask, field);
  EXPECT_EQ(result.result.gather(), expected_unpack);
  EXPECT_TRUE(machine.mailboxes_empty());
}

TEST(ReliableTransport, RetryExhaustionRaisesTransportErrorDeterministically) {
  auto broken_run = []() -> std::string {
    auto m = make_machine(2);
    // Everything on the broadcast tag vanishes, including retransmissions,
    // so the receiver must exhaust its budget.  NAKs still flow (different
    // tag), exercising the full recovery loop before giving up.
    m.set_fault_plan(sim::FaultPlan::parse("seed=1 drop=1.0 tag=0x42c"));
    coll::ReliableTransport::of(m).force(true);
    Bufs bufs(2);
    bufs[0] = {1, 2, 3};
    try {
      coll::broadcast(m, Group::world(2), 0, bufs);
    } catch (const coll::TransportError& e) {
      EXPECT_EQ(e.rank(), 1);
      EXPECT_EQ(e.src(), 0);
      EXPECT_EQ(e.tag(), 0x42c);
      EXPECT_EQ(e.seq(), 1);
      return e.what();
    }
    ADD_FAILURE() << "broadcast over a dead channel did not throw";
    return "";
  };
  const std::string first = broken_run();
  const std::string second = broken_run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // same rank, channel, and attempt count
}

TEST(ReliableTransport, BackoffFactorClampsInsteadOfOverflowing) {
  // Regression: timeout_us used to grow as backoff^(attempt-1) unbounded --
  // at high attempt counts the factor overflows to inf and the modeled
  // timeout with it.  The factor must now saturate at max_timeout_factor
  // and stay finite and monotone for any attempt count.
  coll::ReliableOptions opts;  // defaults: factor 2, backoff 2, ceiling 1024
  double prev = 0.0;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const double f = coll::ReliableTransport::backoff_factor(opts, attempt);
    EXPECT_TRUE(std::isfinite(f)) << "attempt " << attempt;
    EXPECT_GE(f, prev);
    EXPECT_LE(f, opts.max_timeout_factor);
    prev = f;
  }
  // Within the default retry budget (max_attempts 8) the ceiling is never
  // reached, so clamping changes no existing modeled result.
  EXPECT_LT(coll::ReliableTransport::backoff_factor(opts, opts.max_attempts),
            opts.max_timeout_factor);
  // Far beyond any real budget: pow() alone would be inf (2^9999), the
  // clamped factor is exactly the ceiling.
  EXPECT_EQ(coll::ReliableTransport::backoff_factor(opts, 10000),
            opts.max_timeout_factor);
  // A pathological backoff that overflows on the very first growth step
  // still saturates cleanly.
  coll::ReliableOptions wild;
  wild.backoff = 1e308;
  wild.max_timeout_factor = 64.0;
  EXPECT_EQ(coll::ReliableTransport::backoff_factor(wild, 3), 64.0);
}

TEST(ReliableTransport, WithoutRecoveryTheSameScheduleIsAContractError) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 drop=1.0 tag=0x42c"));
  coll::ReliableTransport::of(m).force(false);  // raw transport
  Bufs bufs(2);
  bufs[0] = {1, 2, 3};
  EXPECT_THROW(coll::broadcast(m, Group::world(2), 0, bufs), ContractError);
}

}  // namespace
}  // namespace pup
