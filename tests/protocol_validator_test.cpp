// ProtocolValidator tests: clean library runs validate, and deliberately
// seeded protocol bugs -- which the unvalidated machine silently accepts --
// are rejected with the expected rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/protocol_validator.hpp"
#include "core/api.hpp"
#include "sim/instrumentation.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using analysis::ProtocolValidator;
using analysis::ValidatorOptions;

test::TestMachine make_machine(int p) {
  return test::make_machine(p, test::test_options({10.0, 0.05, 0.01}));
}

bool has_rule(const ProtocolValidator& v, const char* rule) {
  return std::any_of(v.violations().begin(), v.violations().end(),
                     [&](const analysis::Violation& viol) {
                       return viol.rule == rule;
                     });
}

std::vector<std::byte> payload_of(int words) {
  std::vector<int> values(static_cast<std::size_t>(words), 7);
  return sim::to_payload<int>(std::span<const int>(values));
}

// --- positive: the library's own protocols validate cleanly ---------------

TEST(ProtocolValidator, CleanPackRunValidates) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);

  const dist::index_t n = 64;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({4}), 4);
  std::vector<int> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto mask = random_mask(n, 0.5, 3);
  std::vector<int> field(static_cast<std::size_t>(n), -1);

  auto a = dist::DistArray<int>::scatter(d, data);
  auto mk = dist::DistArray<mask_t>::scatter(d, mask);
  auto f = dist::DistArray<int>::scatter(d, std::span<const int>(field));

  for (PackScheme scheme :
       {PackScheme::kSimpleStorage, PackScheme::kCompactStorage,
        PackScheme::kCompactMessage}) {
    PackOptions opt;
    opt.scheme = scheme;
    auto packed = pack(machine, a, mk, opt);
    unpack(machine, packed.vector, mk, f);
  }

  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
  EXPECT_GT(validator.stats().posts, 0);
  EXPECT_EQ(validator.stats().posts, validator.stats().receives);
  EXPECT_GT(validator.stats().collectives, 0);
  EXPECT_GT(validator.stats().rounds, 0);
  EXPECT_GT(validator.stats().phases, 0);
}

TEST(ProtocolValidator, CleanCollectivesValidate) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  const auto g = coll::Group::world(4);

  std::vector<std::vector<int>> bufs(4);
  for (int r = 0; r < 4; ++r) bufs[r] = {r, r + 1};
  coll::broadcast(machine, g, 0, bufs);

  for (int r = 0; r < 4; ++r) bufs[r] = {r, 2 * r};
  coll::exscan_sum(machine, g, bufs);

  for (int r = 0; r < 4; ++r) bufs[r] = {r, 2 * r};
  coll::allreduce_sum(machine, g, bufs);

  for (coll::PrsAlgorithm alg :
       {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit,
        coll::PrsAlgorithm::kControlNetwork}) {
    std::vector<std::vector<long>> prefix(4), total(4);
    for (int r = 0; r < 4; ++r) prefix[r] = {1 + r, 2, 3, 4, 5, 6, 7, 8};
    coll::prefix_reduction_sum(machine, g, alg, prefix, total);
  }

  for (coll::M2MSchedule sched :
       {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive}) {
    std::vector<std::vector<std::vector<int>>> send(4);
    for (int src = 0; src < 4; ++src) {
      send[src].resize(4);
      for (int dst = 0; dst < 4; ++dst) {
        send[src][dst].assign(static_cast<std::size_t>(src + dst + 1), src);
      }
    }
    coll::alltoallv_typed(machine, g, std::move(send), sched);
  }

  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
}

TEST(ProtocolValidator, ValidatorDoesNotPerturbResults) {
  const dist::index_t n = 48;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<double> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0.0);
  auto mask = random_mask(n, 0.4, 11);

  auto run = [&](bool validated) {
    auto machine = make_machine(4);
    std::optional<ProtocolValidator> validator;
    if (validated) validator.emplace(machine);
    auto a = dist::DistArray<double>::scatter(d, data);
    auto mk = dist::DistArray<mask_t>::scatter(d, mask);
    auto packed = pack(machine, a, mk);
    return std::pair(packed.vector.gather(), machine.trace().messages());
  };

  const auto [plain, plain_msgs] = run(false);
  const auto [validated, validated_msgs] = run(true);
  EXPECT_EQ(plain, validated);
  EXPECT_EQ(plain_msgs, validated_msgs);
}

// --- negative: seeded protocol bugs --------------------------------------
//
// The acceptance-criterion test: an orphaned post inside a round that the
// unvalidated machine silently accepts (no throw, message left queued) but
// the validator rejects.

TEST(ProtocolValidator, SeededOrphanedPostSilentlyAcceptedWithoutValidator) {
  auto machine = make_machine(4);
  auto seeded_bug = [](sim::Machine& m) {
    sim::CollectiveScope scope(m, "buggy", {0x777},
                               sim::RoundDiscipline::kMaxOneExchange);
    sim::RoundScope round(m);
    // Rank 0 posts to rank 1 -- and nobody ever receives it.
    m.post(sim::Message{0, 1, 0x777, payload_of(4)}, sim::Category::kM2M);
    m.charge(0, sim::Category::kM2M, m.message_us(0, 1, 16));
  };

  // Without a validator the machine accepts the broken protocol silently.
  EXPECT_NO_THROW(seeded_bug(machine));
  EXPECT_TRUE(machine.has_message(1, 0, 0x777));

  // The same operation under validation is rejected as an orphaned message.
  auto checked = make_machine(4);
  {
    ProtocolValidator validator(checked, ValidatorOptions{});
    seeded_bug(checked);
    validator.finish();
    EXPECT_FALSE(validator.ok());
    EXPECT_TRUE(has_rule(validator, "orphaned-message"))
        << validator.report();
  }

  // Drain so the machines tear down cleanly.
  (void)machine.receive(1, 0, 0x777);
  (void)checked.receive(1, 0, 0x777);
}

TEST(ProtocolValidator, WrongRoundExchangeRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  {
    sim::CollectiveScope scope(machine, "buggy", {0x777},
                               sim::RoundDiscipline::kMaxOneExchange);
    {
      // Round 1 posts but does not drain...
      sim::RoundScope round(machine);
      machine.post(sim::Message{0, 1, 0x777, payload_of(2)},
                   sim::Category::kM2M);
      machine.charge(0, sim::Category::kM2M, machine.message_us(0, 1, 8));
    }
    {
      // ...and round 2 receives round 1's message.
      sim::RoundScope round(machine);
      (void)machine.receive_required(1, 0, 0x777);
      machine.charge(1, sim::Category::kM2M, machine.message_us(0, 1, 8));
    }
  }
  validator.finish();
  EXPECT_FALSE(validator.ok());
  EXPECT_TRUE(has_rule(validator, "orphaned-message")) << validator.report();
}

TEST(ProtocolValidator, MultipleSendsPerRoundRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  {
    sim::CollectiveScope scope(machine, "buggy", {0x777},
                               sim::RoundDiscipline::kMaxOneExchange);
    sim::RoundScope round(machine);
    machine.post(sim::Message{0, 1, 0x777, payload_of(1)},
                 sim::Category::kM2M);
    machine.post(sim::Message{0, 2, 0x777, payload_of(1)},
                 sim::Category::kM2M);
    (void)machine.receive_required(1, 0, 0x777);
    (void)machine.receive_required(2, 0, 0x777);
    machine.charge(0, sim::Category::kM2M, 1e3);
    machine.charge(1, sim::Category::kM2M, 1e3);
    machine.charge(2, sim::Category::kM2M, 1e3);
  }
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "multiple-sends-per-round"))
      << validator.report();
  EXPECT_FALSE(has_rule(validator, "multiple-receives-per-round"));
}

TEST(ProtocolValidator, MultipleReceivesPerRoundRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  {
    sim::CollectiveScope scope(machine, "buggy", {0x777},
                               sim::RoundDiscipline::kMaxOneExchange);
    sim::RoundScope round(machine);
    machine.post(sim::Message{0, 2, 0x777, payload_of(1)},
                 sim::Category::kM2M);
    machine.post(sim::Message{1, 2, 0x777, payload_of(1)},
                 sim::Category::kM2M);
    (void)machine.receive_required(2, 0, 0x777);
    (void)machine.receive_required(2, 1, 0x777);
    machine.charge(0, sim::Category::kM2M, 1e3);
    machine.charge(1, sim::Category::kM2M, 1e3);
    machine.charge(2, sim::Category::kM2M, 1e3);
  }
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "multiple-receives-per-round"))
      << validator.report();
}

TEST(ProtocolValidator, TagDisciplineRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  {
    sim::CollectiveScope scope(machine, "buggy", {0x111},
                               sim::RoundDiscipline::kUnordered);
    machine.post(sim::Message{0, 1, 0x999, payload_of(1)},
                 sim::Category::kM2M);
    (void)machine.receive_required(1, 0, 0x999);
  }
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "tag-discipline")) << validator.report();
}

TEST(ProtocolValidator, ExchangeOutsideRoundRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  {
    sim::CollectiveScope scope(machine, "buggy", {0x777},
                               sim::RoundDiscipline::kMaxOneExchange);
    // Post between rounds of a round-synchronized schedule.
    machine.post(sim::Message{0, 1, 0x777, payload_of(1)},
                 sim::Category::kM2M);
    (void)machine.receive_required(1, 0, 0x777);
  }
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "exchange-outside-round"))
      << validator.report();
}

TEST(ProtocolValidator, UnscopedPostRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  machine.post(sim::Message{0, 1, 5, payload_of(1)}, sim::Category::kM2M);
  (void)machine.receive_required(1, 0, 5);
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "unscoped-post")) << validator.report();

  // The same traffic is fine when raw transport use is explicitly allowed.
  auto permissive = make_machine(4);
  ValidatorOptions opts;
  opts.require_collective_scope = false;
  ProtocolValidator lax(permissive, opts);
  permissive.post(sim::Message{0, 1, 5, payload_of(1)}, sim::Category::kM2M);
  (void)permissive.receive_required(1, 0, 5);
  lax.finish();
  EXPECT_TRUE(lax.ok()) << lax.report();
}

TEST(ProtocolValidator, CrossPhaseLeakageRejected) {
  auto machine = make_machine(4);
  ValidatorOptions opts;
  opts.require_collective_scope = false;
  ProtocolValidator validator(machine, opts);

  machine.post(sim::Message{0, 1, 5, payload_of(1)}, sim::Category::kM2M);
  // A local phase starts while the message is still in flight.
  machine.local_phase([](int) {});
  (void)machine.receive_required(1, 0, 5);

  validator.finish();
  EXPECT_TRUE(has_rule(validator, "cross-phase-leakage"))
      << validator.report();
}

TEST(ProtocolValidator, UnderchargedExchangeRejected) {
  auto machine = make_machine(4);
  ProtocolValidator validator(machine);
  {
    sim::CollectiveScope scope(machine, "buggy", {0x777},
                               sim::RoundDiscipline::kMaxOneExchange);
    sim::RoundScope round(machine);
    // 4 KiB move, but nobody charges the modeled tau + mu*m for it.
    machine.post(sim::Message{0, 1, 0x777, payload_of(1024)},
                 sim::Category::kM2M);
    (void)machine.receive_required(1, 0, 0x777);
  }
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "undercharged-exchange"))
      << validator.report();
}

TEST(ProtocolValidator, UnmatchedReceiveRejected) {
  auto machine = make_machine(4);
  // Posted before validation starts, received under validation.
  machine.post(sim::Message{0, 1, 5, payload_of(1)}, sim::Category::kM2M);
  ProtocolValidator validator(machine);
  (void)machine.receive_required(1, 0, 5);
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "unmatched-receive")) << validator.report();
}

TEST(ProtocolValidator, RoundOutsideCollectiveRejected) {
  auto machine = make_machine(2);
  ProtocolValidator validator(machine);
  { sim::RoundScope round(machine); }
  validator.finish();
  EXPECT_TRUE(has_rule(validator, "round-outside-collective"))
      << validator.report();
}

TEST(ProtocolValidator, FailFastThrowsContractError) {
  auto machine = make_machine(4);
  ValidatorOptions opts;
  opts.fail_fast = true;
  ProtocolValidator validator(machine, opts);
  EXPECT_THROW(machine.post(sim::Message{0, 1, 5, payload_of(1)},
                            sim::Category::kM2M),
               ContractError);
  (void)machine.receive(1, 0, 5);
}

TEST(ProtocolValidator, LeakageAcrossPointEventReportedAtNextBoundary) {
  // Point events are not phase boundaries, so a message in flight across
  // one is fine at the event itself -- and still caught at the next phase
  // or collective begin.
  for (const bool next_is_phase : {true, false}) {
    // Pinned fault-free: the checks below count exact deliveries.
    sim::Machine machine(4, test::test_options());
    ValidatorOptions opts;
    opts.require_collective_scope = false;
    ProtocolValidator validator(machine, opts);

    machine.post(sim::Message{0, 1, 5, payload_of(1)}, sim::Category::kM2M);
    machine.annotate_event("plan.cache.hit");
    EXPECT_TRUE(validator.ok()) << validator.report();
    if (next_is_phase) {
      machine.local_phase([](int) {});
      (void)machine.receive_required(1, 0, 5);
    } else {
      sim::CollectiveScope scope(machine, "probe", {5},
                                 sim::RoundDiscipline::kUnordered);
      (void)machine.receive_required(1, 0, 5);
    }

    validator.finish();
    EXPECT_TRUE(has_rule(validator, "cross-phase-leakage"))
        << validator.report();
  }
}

TEST(ProtocolValidator, ObserversFanOutInAttachOrder) {
  // Pinned fault-free: the checks below count exact posts.
  sim::Machine machine(2, test::test_options());
  struct Recorder final : sim::MachineObserver {
    Recorder(std::vector<std::string>& log, std::string tag)
        : log(log), tag(std::move(tag)) {}
    void on_post(const sim::Message& /*m*/, sim::Category /*cat*/) override {
      log.push_back(tag + ":post");
    }
    void on_phase_begin(const char* name) override {
      log.push_back(tag + ":" + name);
    }
    void on_event(const char* name) override {
      log.push_back(tag + ":" + name);
    }
    std::vector<std::string>& log;
    std::string tag;
  };
  using Log = std::vector<std::string>;
  Log log;
  Recorder first(log, "first");
  Recorder second(log, "second");
  machine.add_observer(&first);
  machine.add_observer(&second);
  ValidatorOptions opts;
  opts.fail_fast = true;
  ProtocolValidator validator(machine, opts);

  // Every event reaches every observer once, oldest first.
  machine.annotate_event("plan.cache.hit");
  { sim::PhaseScope phase(machine, "unpack.place"); }
  EXPECT_EQ(log, (Log{"first:plan.cache.hit", "second:plan.cache.hit",
                      "first:unpack.place", "second:unpack.place"}));
  EXPECT_EQ(validator.stats().phases, 1);

  // Removing the middle observer leaves the other two attached.
  machine.remove_observer(&second);
  log.clear();
  { sim::PhaseScope phase(machine, "unpack.place"); }
  EXPECT_EQ(log, Log{"first:unpack.place"});
  EXPECT_EQ(validator.stats().phases, 2);

  // The validator, attached last, throws on an unscoped post; the observer
  // attached before it has already seen that post.
  log.clear();
  EXPECT_THROW(machine.post(sim::Message{0, 1, 5, payload_of(1)},
                            sim::Category::kM2M),
               ContractError);
  EXPECT_EQ(log, Log{"first:post"});
  EXPECT_EQ(validator.stats().posts, 1);
  machine.remove_observer(&first);
}

}  // namespace
}  // namespace pup
