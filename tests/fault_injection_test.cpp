// Deterministic fault injection at the transport boundary (sim/fault.hpp):
//   * PUP_FAULTS grammar -- multi-rule specs, hex tags, scoping fields;
//     malformed specs fail loudly with ContractError;
//   * each action's observable effect at the mailbox (drop vanishes,
//     duplicate delivers a flagged second copy, delay holds for N receive
//     ticks, truncate halves the payload and records the original size);
//   * rule scoping by src/dst/tag and by open annotation scope;
//   * bit-for-bit schedule reproducibility for a fixed seed;
//   * fault.* point events reaching the MachineObserver.
//
// Every machine here installs its fault plan explicitly, replacing any
// startup PUP_FAULTS plan the CI fault steps hand make_machine().
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

sim::Message make_message(int src, int dst, int tag, std::size_t n_words) {
  std::vector<std::int64_t> words(n_words);
  std::iota(words.begin(), words.end(), 1);
  return sim::Message{src, dst, tag,
                      sim::to_payload<std::int64_t>(
                          std::span<const std::int64_t>(words))};
}

TEST(FaultPlan, ParsesMultiRuleSpecsWithScoping) {
  auto plan = sim::FaultPlan::parse(
      "seed=42 drop=0.25 dup=0.25, delay=0.25 ticks=2 trunc=0.25"
      " | drop=0.5 src=1 dst=2 tag=0xa2a phase=alltoallv");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->seed(), 42u);
  ASSERT_EQ(plan->rules().size(), 2u);

  const sim::FaultRule& r0 = plan->rules()[0];
  EXPECT_DOUBLE_EQ(r0.drop, 0.25);
  EXPECT_DOUBLE_EQ(r0.duplicate, 0.25);
  EXPECT_DOUBLE_EQ(r0.delay, 0.25);
  EXPECT_DOUBLE_EQ(r0.truncate, 0.25);
  EXPECT_EQ(r0.delay_ticks, 2);
  EXPECT_EQ(r0.src, -1);
  EXPECT_EQ(r0.tag, -1);

  const sim::FaultRule& r1 = plan->rules()[1];
  EXPECT_DOUBLE_EQ(r1.drop, 0.5);
  EXPECT_EQ(r1.src, 1);
  EXPECT_EQ(r1.dst, 2);
  EXPECT_EQ(r1.tag, 0xa2a);  // hex accepted
  EXPECT_EQ(r1.phase, "alltoallv");
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(sim::FaultPlan::parse(""), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("bogus=1"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("drop"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("drop=abc"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("drop=2.0"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("drop=-0.1"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("drop=0.7 dup=0.6"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("drop=0.5 ticks=0"), ContractError);
  // A spec whose every rule has zero total probability injects nothing;
  // that is a misconfigured experiment, not a valid plan.
  EXPECT_THROW(sim::FaultPlan::parse("drop=0.0"), ContractError);
}

TEST(FaultInjection, DropVanishesWithoutTraceOrDelivery) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 drop=1.0"));
  m.post(make_message(0, 1, 7, 8), sim::Category::kM2M);

  EXPECT_FALSE(m.has_message(1));
  EXPECT_TRUE(m.mailboxes_empty());
  EXPECT_EQ(m.trace().messages(), 0);  // a dropped frame is never traced
  EXPECT_EQ(m.fault_plan()->stats().drops, 1);
  EXPECT_EQ(m.fault_plan()->stats().decisions, 1);
}

TEST(FaultInjection, DuplicateDeliversFlaggedSecondCopy) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 dup=1.0"));
  m.post(make_message(0, 1, 7, 8), sim::Category::kM2M);

  auto first = m.receive(1, 0, 7);
  auto second = m.receive(1, 0, 7);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(first->wire.duplicate);
  EXPECT_TRUE(second->wire.duplicate);
  EXPECT_EQ(first->payload, second->payload);
  EXPECT_FALSE(m.receive(1, 0, 7).has_value());
  EXPECT_EQ(m.fault_plan()->stats().duplicates, 1);
}

TEST(FaultInjection, DelayHoldsForReceiveTicks) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 delay=1.0 ticks=2"));
  m.post(make_message(0, 1, 7, 8), sim::Category::kM2M);

  // The frame is traced at post time but parked in the network.
  EXPECT_EQ(m.trace().messages(), 1);
  EXPECT_FALSE(m.mailboxes_empty());

  EXPECT_FALSE(m.receive(1, 0, 7).has_value());  // tick 1 of 2
  auto msg = m.receive(1, 0, 7);                 // tick 2 releases it
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->wire.delayed);
  EXPECT_TRUE(m.mailboxes_empty());
  EXPECT_EQ(m.fault_plan()->stats().delays, 1);
}

TEST(FaultInjection, FlushDelayedReleasesImmediately) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 delay=1.0 ticks=100"));
  m.post(make_message(0, 1, 7, 8), sim::Category::kM2M);

  EXPECT_FALSE(m.has_message(1));
  m.flush_delayed();
  EXPECT_TRUE(m.has_message(1, 0, 7));
}

TEST(FaultInjection, TruncateHalvesPayloadAndRecordsOriginal) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 trunc=1.0"));
  sim::Message sent = make_message(0, 1, 7, 8);  // 64 payload bytes
  const std::uint64_t full_checksum = sim::payload_checksum(sent.payload);
  m.post(std::move(sent), sim::Category::kM2M);

  sim::Message got = m.receive_required(1, 0, 7);
  EXPECT_TRUE(got.wire.truncated);
  EXPECT_EQ(got.payload.size(), 32u);
  EXPECT_EQ(got.wire.orig_bytes, 64u);
  EXPECT_NE(sim::payload_checksum(got.payload), full_checksum);
  EXPECT_EQ(m.fault_plan()->stats().truncations, 1);
}

TEST(FaultInjection, RulesScopeBySrcTagAndOpenPhase) {
  auto m = make_machine(4);
  m.set_fault_plan(
      sim::FaultPlan::parse("seed=3 drop=1.0 src=0 tag=0x42c phase=bcast"));

  // Wrong source, wrong tag, or no open bcast scope: delivered untouched.
  m.post(make_message(1, 2, 0x42c, 4), sim::Category::kM2M);
  m.post(make_message(0, 2, 0x999, 4), sim::Category::kM2M);
  m.post(make_message(0, 2, 0x42c, 4), sim::Category::kM2M);
  EXPECT_EQ(m.fault_plan()->stats().decisions, 0);
  EXPECT_TRUE(m.receive(2, 1, 0x42c).has_value());
  EXPECT_TRUE(m.receive(2, 0, 0x999).has_value());
  EXPECT_TRUE(m.receive(2, 0, 0x42c).has_value());

  {
    // Substring match against the innermost-to-outermost open scopes.
    sim::PhaseScope scope(m, "bcast.binomial");
    m.post(make_message(0, 2, 0x42c, 4), sim::Category::kM2M);
  }
  EXPECT_EQ(m.fault_plan()->stats().decisions, 1);
  EXPECT_EQ(m.fault_plan()->stats().drops, 1);
  EXPECT_FALSE(m.has_message(2));
}

TEST(FaultInjection, SameSeedReproducesTheSchedule) {
  auto run = [](std::uint64_t seed) {
    auto m = make_machine(2);
    m.set_fault_plan(sim::FaultPlan::parse("seed=" + std::to_string(seed) +
                                           " drop=0.5"));
    std::vector<bool> delivered;
    for (int i = 0; i < 64; ++i) {
      m.post(make_message(0, 1, i, 2), sim::Category::kM2M);
      delivered.push_back(m.receive(1, 0, i).has_value());
    }
    return delivered;
  };
  const auto a = run(9);
  const auto b = run(9);
  const auto c = run(10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to coincide over 64 draws
}

TEST(FaultInjection, InjectionEventsAnnotateTheObserver) {
  struct EventCounter final : sim::MachineObserver {
    std::vector<std::string> events;
    void on_event(const char* name) override {
      if (std::string(name).rfind("fault.", 0) == 0) events.push_back(name);
    }
  };

  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse(
      "seed=1 drop=1.0 tag=1 | dup=1.0 tag=2 | delay=1.0 tag=3 ticks=1"
      " | trunc=1.0 tag=4"));
  EventCounter counter;
  m.add_observer(&counter);

  m.post(make_message(0, 1, 1, 4), sim::Category::kM2M);
  m.post(make_message(0, 1, 2, 4), sim::Category::kM2M);
  m.post(make_message(0, 1, 3, 4), sim::Category::kM2M);
  m.post(make_message(0, 1, 4, 4), sim::Category::kM2M);

  ASSERT_EQ(counter.events.size(), 4u);
  EXPECT_EQ(counter.events[0], "fault.drop");
  EXPECT_EQ(counter.events[1], "fault.duplicate");
  EXPECT_EQ(counter.events[2], "fault.delay");
  EXPECT_EQ(counter.events[3], "fault.truncate");

  m.remove_observer(&counter);
  m.flush_delayed();
  while (m.receive(1).has_value()) {
  }
}

TEST(FaultPlan, ParseErrorsNameTokenAndByteOffset) {
  // Satellite S2: a rejected spec must say *which* token failed and where
  // it sits in the string, so a long PUP_FAULTS value is debuggable.
  auto message_of = [](const char* spec) -> std::string {
    try {
      (void)sim::FaultPlan::parse(spec);
    } catch (const ContractError& e) {
      return e.what();
    }
    return "";
  };

  //          0123456789012345678
  std::string what = message_of("seed=1 drop=0.5 bogus=1");
  EXPECT_NE(what.find("\"bogus=1\""), std::string::npos) << what;
  EXPECT_NE(what.find("at byte 16"), std::string::npos) << what;

  what = message_of("drop=2.0");
  EXPECT_NE(what.find("\"drop=2.0\""), std::string::npos) << what;
  EXPECT_NE(what.find("at byte 0"), std::string::npos) << what;

  // The offset is the token's position in the *full* spec, across rule
  // separators:  "drop=0.5 | ticks=0" -> "ticks=0" starts at byte 11.
  what = message_of("drop=0.5 | ticks=0");
  EXPECT_NE(what.find("\"ticks=0\""), std::string::npos) << what;
  EXPECT_NE(what.find("at byte 11"), std::string::npos) << what;
}

TEST(FaultPlan, ParsesKillRules) {
  auto plan = sim::FaultPlan::parse(
      "seed=3 kill=2 after=5 phase=prs | drop=0.5");
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->rules().size(), 2u);
  const sim::FaultRule& r0 = plan->rules()[0];
  EXPECT_TRUE(r0.is_kill());
  EXPECT_EQ(r0.kill, 2);
  EXPECT_EQ(r0.after, 5);
  EXPECT_EQ(r0.phase, "prs");
  EXPECT_FALSE(plan->rules()[1].is_kill());

  // `after` defaults to 1: the first matching post is the last.
  auto one = sim::FaultPlan::parse("seed=3 kill=0");
  EXPECT_EQ(one->rules()[0].after, 1);

  EXPECT_THROW(sim::FaultPlan::parse("kill=-2"), ContractError);
  EXPECT_THROW(sim::FaultPlan::parse("kill=1 after=0"), ContractError);
  // kill is a one-shot event, not a probability rule; mixing the two in a
  // single rule is ambiguous and rejected.
  EXPECT_THROW(sim::FaultPlan::parse("kill=1 drop=0.5"), ContractError);
  // `after` without `kill` scopes nothing.
  EXPECT_THROW(sim::FaultPlan::parse("after=3 drop=0.5"), ContractError);
}

TEST(FaultInjection, KillStopsSendingButKeepsDelivering) {
  auto m = make_machine(3);
  // Rank 1 dies once two matching posts have been observed.
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 kill=1 after=2"));

  struct EventCounter final : sim::MachineObserver {
    std::vector<std::string> events;
    void on_event(const char* name) override {
      if (std::string(name).rfind("fault.", 0) == 0) {
        events.emplace_back(name);
      }
    }
  };
  EventCounter counter;
  m.add_observer(&counter);

  m.post(make_message(0, 2, 7, 4), sim::Category::kM2M);  // countdown: 1
  EXPECT_FALSE(m.fault_plan()->is_dead(1));
  m.post(make_message(2, 0, 7, 4), sim::Category::kM2M);  // fires: 1 dies
  EXPECT_TRUE(m.fault_plan()->is_dead(1));
  // The firing post itself is from a live rank and is still delivered.
  EXPECT_TRUE(m.has_message(0, 2, 7));

  // Dead rank's posts are discarded -- never traced, never delivered.
  const std::int64_t traced = m.trace().messages();
  m.post(make_message(1, 0, 8, 4), sim::Category::kM2M);
  EXPECT_FALSE(m.has_message(0, 1, 8));
  EXPECT_EQ(m.trace().messages(), traced);
  EXPECT_EQ(m.fault_plan()->stats().kills, 1);
  EXPECT_EQ(m.fault_plan()->stats().dead_dropped, 1);

  // Messages TO the dead rank are still delivered: the zombie mailbox
  // keeps consuming so surviving senders never stall.
  m.post(make_message(0, 1, 9, 4), sim::Category::kM2M);
  EXPECT_TRUE(m.has_message(1, 0, 9));

  ASSERT_GE(counter.events.size(), 2u);
  EXPECT_EQ(counter.events[0], "fault.kill");
  EXPECT_EQ(counter.events[1], "fault.dead");

  m.remove_observer(&counter);
  while (m.receive(0).has_value()) {
  }
  while (m.receive(1).has_value()) {
  }
  while (m.receive(2).has_value()) {
  }
}

TEST(FaultInjection, KillIsTransparentToProbabilityRules) {
  // A kill rule ahead of a probability rule must not shadow it or consume
  // RNG draws: the probability schedule is identical with and without the
  // kill rule present (until the kill fires, scoped here to never match).
  auto run = [](const char* spec) {
    auto m = make_machine(2);
    m.set_fault_plan(sim::FaultPlan::parse(spec));
    std::int64_t delivered = 0;
    for (int i = 0; i < 64; ++i) {
      std::vector<std::int64_t> w(4);
      std::iota(w.begin(), w.end(), i);
      m.post(sim::Message{0, 1, 7,
                          sim::to_payload<std::int64_t>(
                              std::span<const std::int64_t>(w))},
             sim::Category::kM2M);
      if (m.receive(1, 0, 7).has_value()) ++delivered;
    }
    return delivered;
  };

  const auto with_kill =
      run("kill=0 after=1 phase=never-opened | seed=9 drop=0.5");
  const auto without = run("seed=9 drop=0.5");
  EXPECT_EQ(with_kill, without);
}

TEST(FaultInjection, KillFiresEvenWhenListedAfterProbabilityRules) {
  // Regression: countdowns tick in an order-independent pre-pass.  Before
  // that, the first matching probability rule's early-out shadowed every
  // kill rule queued behind it, so a spec like "drop=... | kill=..." (the
  // shape the chaos harness derives) never fired its fail-stop.
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=4 dup=0.5 | kill=1 after=3"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(m.fault_plan()->is_dead(1));
    m.post(make_message(0, 1, 7, 4), sim::Category::kM2M);
  }
  EXPECT_TRUE(m.fault_plan()->is_dead(1));
  EXPECT_EQ(m.fault_plan()->stats().kills, 1);
  while (m.receive(1).has_value()) {
  }
}

TEST(FaultInjection, ReviveRestoresSendingAndKeepsRuleSpent) {
  auto m = make_machine(2);
  m.set_fault_plan(sim::FaultPlan::parse("seed=1 kill=0 after=1"));

  m.post(make_message(0, 1, 7, 4), sim::Category::kM2M);  // fires; 0 dies
  ASSERT_TRUE(m.fault_plan()->is_dead(0));
  m.post(make_message(0, 1, 8, 4), sim::Category::kM2M);  // discarded
  EXPECT_FALSE(m.has_message(1, 0, 8));

  // Failover onto a spare: the rank sends again, but the one-shot rule
  // stays spent -- it must not kill the revived rank a second time.
  m.fault_plan()->revive_all();
  EXPECT_FALSE(m.fault_plan()->is_dead(0));
  m.post(make_message(0, 1, 9, 4), sim::Category::kM2M);
  EXPECT_TRUE(m.has_message(1, 0, 9));
  EXPECT_EQ(m.fault_plan()->stats().kills, 1);  // unchanged

  while (m.receive(1).has_value()) {
  }
}

}  // namespace
}  // namespace pup
