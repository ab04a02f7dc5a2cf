// Operation-level recovery (plan/resilient.hpp + sim/epoch.hpp):
//   * epoch checkpoint/rollback restores the machine bit for bit (trace,
//     mailboxes in per-destination arrival order, delayed queue, modeled
//     charges) and survives repeated rollbacks;
//   * ResilientExecutor recovers a mid-PRS fail-stop kill and a loss burst
//     beyond the retry budget, with the recovered output AND trace digest
//     bit-identical to a fault-free run;
//   * restart counts are deterministic across repeats (and across the
//     threaded re-registration in tests/CMakeLists.txt);
//   * recovery disabled: the typed RankFailure/TransportError propagates,
//     deterministically, naming the dead rank;
//   * restart budget exhaustion rethrows with the machine cleanly rolled
//     back and the original fault plan reinstalled;
//   * the protocol validator stays ok through rollback + re-execution;
//   * pack_batch and cached-plan re-execution recover under a seeded
//     fault schedule with digest identity;
//   * PUP_RECOVERY grammar parses (and rejects, naming token + byte
//     offset);
//   * zero faults => zero restarts, zero rollbacks, untouched digest.
//
// Machines that must stay fault-free are built from test_options(), which
// carries the startup PUP_THREADS but never a fault plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/protocol_validator.hpp"
#include "coll/reliable.hpp"
#include "core/api.hpp"
#include "core/recovery.hpp"
#include "plan/executor.hpp"
#include "plan/plan_cache.hpp"
#include "plan/resilient.hpp"
#include "sim/fault.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

struct PackWorkload {
  dist::Distribution d;
  dist::DistArray<std::int64_t> array;
  dist::DistArray<mask_t> mask;
  std::vector<std::int64_t> data;
  std::vector<mask_t> gm;
};

PackWorkload make_workload(dist::index_t n, int p, dist::index_t block,
                           double density, std::uint64_t seed) {
  PackWorkload wl;
  wl.d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                          dist::ProcessGrid({p}), block);
  wl.data.resize(static_cast<std::size_t>(n));
  std::iota(wl.data.begin(), wl.data.end(), 1);
  wl.gm = random_mask(n, density, seed);
  wl.array = dist::DistArray<std::int64_t>::scatter(wl.d, wl.data);
  wl.mask = dist::DistArray<mask_t>::scatter(wl.d, wl.gm);
  return wl;
}

sim::Message make_message(int src, int dst, int tag, std::size_t n_words) {
  std::vector<std::int64_t> words(n_words);
  std::iota(words.begin(), words.end(), 1);
  return sim::Message{src, dst, tag,
                      sim::to_payload<std::int64_t>(
                          std::span<const std::int64_t>(words))};
}

/// Fault-free reference execution: result plus digest of the identical
/// compile + pack sequence on a guaranteed-clean machine.
std::pair<std::vector<std::int64_t>, analysis::TraceDigest> clean_reference(
    const PackWorkload& wl, int p, const PackOptions& opt) {
  sim::Machine m(p, test::test_options());
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  analysis::DigestRecorder rec(m);
  auto result = plan::pack_with_plan(m, plan, wl.array, wl.mask);
  return {result.vector.gather(), rec.digest()};
}

// --- epoch checkpoint mechanics ---------------------------------------

TEST(EpochCheckpoint, RollbackRestoresMachineStateAndSurvivesReuse) {
  sim::Machine m(2, test::test_options());
  m.charge(0, sim::Category::kM2M, 5.0);
  m.post(make_message(0, 1, 7, 4), sim::Category::kM2M);

  auto cp = m.checkpoint_epoch();
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(m.epochs_checkpointed(), 1);

  // Mutate everything the checkpoint covers.
  (void)m.receive(1, 0, 7);
  m.post(make_message(1, 0, 8, 16), sim::Category::kPrs);
  m.charge(1, sim::Category::kPrs, 42.0);
  EXPECT_EQ(m.trace().messages(), 2);

  m.rollback_epoch(*cp);
  EXPECT_EQ(m.epochs_rolled_back(), 1);
  EXPECT_EQ(m.trace().messages(), 1);
  EXPECT_TRUE(m.has_message(1, 0, 7));   // the receive was undone
  EXPECT_FALSE(m.has_message(0, 1, 8));  // the new post was undone
  EXPECT_DOUBLE_EQ(m.modeled_total_us(), 5.0);

  // The checkpoint is reusable: mutate and roll back a second time.
  (void)m.receive(1, 0, 7);
  m.charge(0, sim::Category::kLocal, 1.0);
  m.rollback_epoch(*cp);
  EXPECT_EQ(m.epochs_rolled_back(), 2);
  EXPECT_TRUE(m.has_message(1, 0, 7));
  EXPECT_DOUBLE_EQ(m.modeled_total_us(), 5.0);

  while (m.receive(1).has_value()) {
  }
}

TEST(EpochCheckpoint, RollbackRestoresDelayedQueue) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 delay=1.0 ticks=50"));
  m.post(make_message(0, 1, 7, 4), sim::Category::kM2M);
  ASSERT_EQ(m.delayed_pending(), 1u);

  auto cp = m.checkpoint_epoch();
  m.flush_delayed();
  EXPECT_EQ(m.delayed_pending(), 0u);
  ASSERT_TRUE(m.receive(1, 0, 7).has_value());

  m.rollback_epoch(*cp);
  EXPECT_EQ(m.delayed_pending(), 1u);  // parked again, undelivered
  EXPECT_FALSE(m.has_message(1, 0, 7));
  m.flush_delayed();
  while (m.receive(1).has_value()) {
  }
}

TEST(EpochCheckpoint, RollbackRestoresQueuedMessagesInArrivalOrder) {
  // Messages queued at checkpoint time must come back in the same
  // per-destination arrival order after a rollback.
  sim::Machine m(4, test::test_options());
  auto send = [&m](int src, int dst, int tag, std::int64_t x) {
    m.post(sim::Message{src, dst, tag, sim::to_payload<std::int64_t>({&x, 1})},
           sim::Category::kM2M);
  };
  send(0, 3, 7, 100);
  send(1, 3, 7, 200);  // same (dst, tag), different src: order matters
  send(2, 3, 9, 300);
  send(0, 1, 7, 400);
  const auto cp = m.checkpoint_epoch();
  // Drain rank 3 completely, then roll back; the queue must be restored.
  while (m.receive(3).has_value()) {
  }
  EXPECT_FALSE(m.has_message(3));
  m.rollback_epoch(*cp);
  std::vector<std::tuple<int, int, std::int64_t>> seen;
  for (int rank : {1, 3}) {
    while (auto got = m.receive(rank)) {
      std::vector<std::int64_t> body;
      sim::read_payload<std::int64_t>(got->payload, body);
      seen.emplace_back(got->src, got->tag, body.at(0));
    }
  }
  EXPECT_TRUE(m.mailboxes_empty());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::tuple<int, int, std::int64_t>{0, 7, 400}));
  // Wildcard receive respects arrival order per destination, across two
  // sources with the same tag.
  EXPECT_EQ(seen[1], (std::tuple<int, int, std::int64_t>{0, 7, 100}));
  EXPECT_EQ(seen[2], (std::tuple<int, int, std::int64_t>{1, 7, 200}));
  EXPECT_EQ(seen[3], (std::tuple<int, int, std::int64_t>{2, 9, 300}));
}

TEST(EpochCheckpoint, BoundariesAnnotateEveryPrsRound) {
  const int P = 8;
  sim::Machine m(P, test::test_options());
  PackWorkload wl = make_workload(1024, P, 16, 0.5, 0x5eed);

  struct BoundaryCounter final : sim::MachineObserver {
    std::int64_t events = 0;
    void on_event(const char* name) override {
      if (std::string(name) == "epoch.boundary") ++events;
    }
  };
  BoundaryCounter counter;
  m.add_observer(&counter);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  (void)pack(m, wl.array, wl.mask, opt);
  m.remove_observer(&counter);

  EXPECT_GT(counter.events, 0);  // every PRS round marks a cut
  EXPECT_EQ(m.epoch_boundaries(), counter.events);
}

// --- recovery end to end ----------------------------------------------

TEST(ResilientExecutor, RecoversMidPrsKillWithBitIdenticalDigest) {
  const int P = 8;
  PackWorkload wl = make_workload(2048, P, 16, 0.4, 0x1337);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const auto [expected, clean_digest] = clean_reference(wl, P, opt);

  auto m = make_machine(P);
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  m.set_fault_plan(sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
  analysis::DigestRecorder rec(m);
  RecoveryPolicy pol;
  pol.max_restarts = 3;
  plan::ResilientExecutor exec(m, pol);

  auto got = exec.pack(plan, wl.array, wl.mask);
  EXPECT_EQ(got.vector.gather(), expected);
  const auto digest = rec.digest();
  EXPECT_EQ(digest, clean_digest)
      << analysis::diff_digests(digest, clean_digest);

  EXPECT_EQ(exec.stats().restarts, 1);
  EXPECT_EQ(exec.stats().rank_failures, 1);
  EXPECT_EQ(exec.stats().transport_errors, 0);
  EXPECT_GT(exec.stats().wasted_us, 0.0);   // the aborted attempt cost time
  EXPECT_GT(exec.stats().backoff_us, 0.0);  // ... plus the restart penalty
  EXPECT_EQ(m.epochs_rolled_back(), 1);

  // The original plan returned with the spare revived and the kill spent.
  ASSERT_NE(m.fault_plan(), nullptr);
  EXPECT_FALSE(m.fault_plan()->is_dead(2));
  EXPECT_EQ(m.fault_plan()->stats().kills, 1);
}

TEST(ResilientExecutor, RecoversLossBurstBeyondRetryBudget) {
  const int P = 8;
  PackWorkload wl = make_workload(2048, P, 16, 0.5, 0xd00d);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const auto [expected, clean_digest] = clean_reference(wl, P, opt);

  auto m = make_machine(P);
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  // Total loss inside the PRS: every data frame, NAK, and retransmission
  // vanishes, so the receiver deterministically exhausts its (shrunk)
  // retry budget.
  m.set_fault_plan(sim::FaultPlan::parse("seed=7 drop=1.0 phase=prs"));
  coll::ReliableTransport::of(m).options().max_attempts = 3;
  analysis::DigestRecorder rec(m);
  RecoveryPolicy pol;
  pol.max_restarts = 2;
  plan::ResilientExecutor exec(m, pol);

  auto got = exec.pack(plan, wl.array, wl.mask);
  EXPECT_EQ(got.vector.gather(), expected);
  const auto digest = rec.digest();
  EXPECT_EQ(digest, clean_digest)
      << analysis::diff_digests(digest, clean_digest);
  EXPECT_EQ(exec.stats().restarts, 1);
  EXPECT_EQ(exec.stats().transport_errors, 1);
  EXPECT_EQ(exec.stats().rank_failures, 0);
}

TEST(ResilientExecutor, CombinedKillAndLossScheduleIsDeterministic) {
  const int P = 8;
  PackWorkload wl = make_workload(2048, P, 16, 0.45, 0xabcd);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const auto [expected, clean_digest] = clean_reference(wl, P, opt);

  auto run = [&] {
    auto m = make_machine(P);
    const plan::PackPlan plan =
        plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
    m.set_fault_plan(sim::FaultPlan::parse(
        "kill=3 after=11 phase=prs | seed=5 drop=0.2 phase=prs"));
    coll::ReliableTransport::of(m).options().max_attempts = 4;
    analysis::DigestRecorder rec(m);
    RecoveryPolicy pol;
    pol.max_restarts = 5;
    plan::ResilientExecutor exec(m, pol);
    auto got = exec.pack(plan, wl.array, wl.mask);
    EXPECT_EQ(got.vector.gather(), expected);
    return std::tuple(exec.stats().restarts, exec.stats().attempts,
                      exec.stats().rank_failures,
                      exec.stats().transport_errors, rec.digest());
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // restart counts and digest reproduce exactly
  EXPECT_GE(std::get<0>(a), 1);  // the deterministic kill forces a restart
  const auto& digest = std::get<4>(a);
  EXPECT_EQ(digest, clean_digest)
      << analysis::diff_digests(digest, clean_digest);
}

TEST(ResilientExecutor, DisabledPolicyPropagatesTypedRankFailure) {
  const int P = 8;
  PackWorkload wl = make_workload(2048, P, 16, 0.4, 0xdead);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  auto run = [&]() -> std::tuple<int, int, int> {
    auto m = make_machine(P);
    const plan::PackPlan plan =
        plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
    m.set_fault_plan(
        sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
    plan::ResilientExecutor exec(m, RecoveryPolicy{});  // disabled
    try {
      (void)exec.pack(plan, wl.array, wl.mask);
    } catch (const coll::RankFailure& e) {
      return {e.failed_rank(), e.detected_by(), e.tag()};
    }
    ADD_FAILURE() << "expected RankFailure";
    return {-1, -1, -1};
  };

  const auto a = run();
  EXPECT_EQ(std::get<0>(a), 2);        // names the dead rank
  EXPECT_NE(std::get<1>(a), 2);        // detected by a survivor
  EXPECT_EQ(a, run());                 // deterministically the same rank
}

TEST(ResilientExecutor, ExhaustedBudgetRethrowsWithCleanRollback) {
  const int P = 8;
  PackWorkload wl = make_workload(1024, P, 16, 0.5, 0xfade);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  auto m = make_machine(P);
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  m.set_fault_plan(sim::FaultPlan::parse("seed=7 drop=1.0 phase=prs"));
  coll::ReliableTransport::of(m).options().max_attempts = 2;
  RecoveryPolicy pol;
  pol.max_restarts = 2;
  pol.reseed = true;  // retries keep the (certain) drop rule => keep failing
  plan::ResilientExecutor exec(m, pol);

  const double entry_us = m.modeled_total_us();
  const std::int64_t entry_msgs = m.trace().messages();
  EXPECT_THROW((void)exec.pack(plan, wl.array, wl.mask),
               coll::TransportError);

  EXPECT_EQ(exec.stats().attempts, 3);  // 1 original + 2 restarts
  EXPECT_EQ(exec.stats().restarts, 2);
  // The machine came back to the entry checkpoint: no stray messages, no
  // stray charges, and the original fault plan reinstalled.
  EXPECT_TRUE(m.mailboxes_empty());
  EXPECT_EQ(m.trace().messages(), entry_msgs);
  EXPECT_DOUBLE_EQ(m.modeled_total_us(), entry_us);
  ASSERT_NE(m.fault_plan(), nullptr);
  EXPECT_EQ(m.fault_plan()->seed(), 7u);
}

TEST(ResilientExecutor, ValidatorStaysOkThroughRollback) {
  const int P = 8;
  PackWorkload wl = make_workload(2048, P, 16, 0.4, 0xcafe);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  auto m = make_machine(P);
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  m.set_fault_plan(sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
  analysis::ProtocolValidator validator(m);
  RecoveryPolicy pol;
  pol.max_restarts = 3;
  plan::ResilientExecutor exec(m, pol);
  (void)exec.pack(plan, wl.array, wl.mask);
  validator.finish();
  // The aborted epoch's interrupted collective (scopes unwound with
  // messages in flight) must have been absolved by the rollback.
  EXPECT_TRUE(validator.ok()) << validator.report();
}

TEST(ResilientExecutor, NoFaultsMeansNoRollbacksAndUntouchedDigest) {
  const int P = 8;
  PackWorkload wl = make_workload(1024, P, 16, 0.5, 0xbead);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const auto [expected, clean_digest] = clean_reference(wl, P, opt);

  sim::Machine m(P, test::test_options());
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  analysis::DigestRecorder rec(m);
  RecoveryPolicy pol;
  pol.max_restarts = 3;  // armed, but never needed
  plan::ResilientExecutor exec(m, pol);
  auto got = exec.pack(plan, wl.array, wl.mask);

  EXPECT_EQ(got.vector.gather(), expected);
  const auto digest = rec.digest();
  EXPECT_EQ(digest, clean_digest)
      << analysis::diff_digests(digest, clean_digest);
  EXPECT_EQ(exec.stats().attempts, 1);
  EXPECT_EQ(exec.stats().restarts, 0);
  EXPECT_DOUBLE_EQ(exec.stats().wasted_us, 0.0);
  EXPECT_DOUBLE_EQ(exec.stats().backoff_us, 0.0);
  EXPECT_EQ(m.epochs_rolled_back(), 0);
  EXPECT_EQ(m.epochs_checkpointed(), 1);
}

// --- batched + cached-plan paths under a fault schedule ---------------

TEST(ResilientExecutor, PackBatchRecoversUnderSeededFaultSchedule) {
  const int P = 8;
  const std::size_t B = 3;
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  std::vector<PackWorkload> wls;
  for (std::size_t b = 0; b < B; ++b) {
    wls.push_back(
        make_workload(1024, P, 16, 0.3 + 0.15 * static_cast<double>(b),
                      0x40 + b));
  }
  std::vector<const dist::DistArray<mask_t>*> masks;
  std::vector<const dist::DistArray<std::int64_t>*> arrays;
  for (const PackWorkload& wl : wls) {
    masks.push_back(&wl.mask);
    arrays.push_back(&wl.array);
  }

  // Fault-free reference batch.
  sim::Machine clean(P, test::test_options());
  const plan::PackPlan clean_plan =
      plan::compile_pack_plan(clean, wls[0].d, sizeof(std::int64_t), opt);
  analysis::DigestRecorder clean_rec(clean);
  auto expected =
      plan::pack_batch<std::int64_t>(clean, clean_plan, masks, arrays);
  const auto clean_digest = clean_rec.digest();

  // Same batch under a deterministic mid-PRS kill plus background losses.
  sim::Machine m(P, test::test_options());
  m.set_fault_plan(sim::FaultPlan::parse(
      "kill=1 after=13 phase=prs | seed=1234 drop=0.1 phase=prs"));
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wls[0].d, sizeof(std::int64_t), opt);
  analysis::DigestRecorder rec(m);
  RecoveryPolicy pol;
  pol.max_restarts = 4;
  plan::ResilientExecutor exec(m, pol);
  auto got = exec.pack_batch<std::int64_t>(plan, masks, arrays);

  ASSERT_EQ(got.size(), B);
  for (std::size_t b = 0; b < B; ++b) {
    EXPECT_EQ(got[b].vector.gather(), expected[b].vector.gather())
        << "request " << b;
  }
  const auto digest = rec.digest();
  EXPECT_EQ(digest, clean_digest)
      << analysis::diff_digests(digest, clean_digest);
  EXPECT_GE(exec.stats().restarts, 1);  // the deterministic kill fired
}

TEST(ResilientExecutor, CachedPlanReexecutionRecoversUnderKill) {
  const int P = 8;
  PackWorkload wl = make_workload(1024, P, 16, 0.5, 0x777);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const auto [expected, clean_digest] = clean_reference(wl, P, opt);

  sim::Machine m(P, test::test_options());
  m.set_fault_plan(sim::FaultPlan::parse("kill=2 after=9 phase=prs"));
  plan::PlanCache cache(4);
  auto cached = cache.pack_plan(m, wl.d, sizeof(std::int64_t), opt);
  RecoveryPolicy pol;
  pol.max_restarts = 3;
  plan::ResilientExecutor exec(m, pol);

  // First execution: the kill fires, recovery re-executes.
  analysis::DigestRecorder rec1(m);
  auto first = exec.pack(*cached, wl.array, wl.mask);
  EXPECT_EQ(first.vector.gather(), expected);
  EXPECT_EQ(exec.stats().restarts, 1);
  const auto digest1 = rec1.digest();
  EXPECT_EQ(digest1, clean_digest)
      << analysis::diff_digests(digest1, clean_digest);

  // Re-execution off the same cached plan: the spent kill rule stays
  // spent, so the second run is failure-free off the hit path.
  m.reset_accounting();
  analysis::DigestRecorder rec2(m);
  auto second = exec.pack(*cached, wl.array, wl.mask);
  EXPECT_EQ(second.vector.gather(), expected);
  EXPECT_EQ(exec.stats().restarts, 1);  // unchanged
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 1u);  // one compile
  const auto digest2 = rec2.digest();
  EXPECT_EQ(digest2, clean_digest)
      << analysis::diff_digests(digest2, clean_digest);
}

// --- PUP_RECOVERY grammar ----------------------------------------------

TEST(RecoveryPolicy, ParsesSpecFieldsAndOff) {
  const RecoveryPolicy p =
      RecoveryPolicy::parse("restarts=3, backoff=1.5 reseed=1");
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.max_restarts, 3);
  EXPECT_DOUBLE_EQ(p.backoff, 1.5);
  EXPECT_TRUE(p.reseed);

  EXPECT_FALSE(RecoveryPolicy::parse("off").enabled());
  EXPECT_FALSE(RecoveryPolicy::parse("").enabled());  // default: disabled
}

TEST(RecoveryPolicy, RejectionsNameTokenAndByteOffset) {
  try {
    (void)RecoveryPolicy::parse("restarts=2 bogus=1");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"bogus=1\""), std::string::npos) << what;
    EXPECT_NE(what.find("byte 11"), std::string::npos) << what;
  }
  EXPECT_THROW((void)RecoveryPolicy::parse("restarts=-1"), ContractError);
  EXPECT_THROW((void)RecoveryPolicy::parse("restarts=abc"), ContractError);
  EXPECT_THROW((void)RecoveryPolicy::parse("backoff=x"), ContractError);
  EXPECT_THROW((void)RecoveryPolicy::parse("reseed=2"), ContractError);
}

// --- satellite S1: delayed-queue hygiene --------------------------------

TEST(DelayedQueue, UnreceivedDelayExpiresAtOutermostScopeEnd) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 delay=1.0 ticks=50"));

  struct ExpiryWatcher final : sim::MachineObserver {
    std::int64_t expired = 0;
    std::int64_t annotations = 0;
    void on_expire(const sim::Message&) override { ++expired; }
    void on_event(const char* name) override {
      if (std::string(name) == "fault.delay.expired") ++annotations;
    }
  };
  ExpiryWatcher watcher;
  m.add_observer(&watcher);
  {
    sim::PhaseScope scope(m, "op");
    m.post(make_message(0, 1, 7, 4), sim::Category::kM2M);
    EXPECT_EQ(m.delayed_pending(), 1u);
  }  // outermost scope closed: the leftover delay must not leak onward
  m.remove_observer(&watcher);

  EXPECT_EQ(m.delayed_pending(), 0u);
  EXPECT_TRUE(m.mailboxes_empty());
  EXPECT_EQ(watcher.expired, 1);
  EXPECT_EQ(watcher.annotations, 1);
  EXPECT_EQ(m.fault_plan()->stats().expired, 1);
}

TEST(DelayedQueue, NoLeakAcrossOperationsUnderPrsDelaySchedule) {
  // Regression (satellite S1): a message delay-faulted in the *final* PRS
  // round used to sit in the delayed queue after the last receive and leak
  // into the next operation.  The outermost-scope drain plus the
  // validator's delayed-queue-leak check now pin this down.
  const int P = 8;
  PackWorkload wl = make_workload(1024, P, 16, 0.5, 0x1ea7);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  auto m = make_machine(P);
  m.set_fault_plan(
      sim::FaultPlan::parse("seed=21 delay=0.6 ticks=2 phase=prs"));
  analysis::ProtocolValidator validator(m);
  const auto expected = serial_pack<std::int64_t>(wl.data, wl.gm);

  auto r1 = pack(m, wl.array, wl.mask, opt);
  EXPECT_EQ(r1.vector.gather(), expected);
  EXPECT_EQ(m.delayed_pending(), 0u) << "delayed message leaked past pack";

  m.reset_accounting();  // validator checks the delayed queue here too
  auto r2 = pack(m, wl.array, wl.mask, opt);
  EXPECT_EQ(r2.vector.gather(), expected);
  EXPECT_EQ(m.delayed_pending(), 0u);

  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
}

}  // namespace
}  // namespace pup
