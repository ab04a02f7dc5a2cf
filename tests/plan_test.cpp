// Plan subsystem lifecycle and batching guarantees:
//   * compile-then-execute equals the direct path (results and digests);
//   * a plan-cache hit performs zero geometry recompilation
//     (ranking_schedules_compiled-asserted) and is observer-visible;
//   * LRU eviction under a small capacity; invalidation after
//     redistribution;
//   * pack_batch is element-identical to B independent packs while
//     charging at most half the PRS startups for B >= 4;
//   * batched execution is digest-deterministic (fuzz_oracle_test also
//     runs pack_batch on 2-4 threads against a sequential digest).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/protocol_validator.hpp"
#include "core/api.hpp"
#include "plan/executor.hpp"
#include "plan/plan_cache.hpp"
#include "sim/fault.hpp"
#include "sim/instrumentation.hpp"
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

TEST(Plan, CompileThenExecuteMatchesDirectPath) {
  const int P = 8;
  auto machine = make_machine(P);
  PackWorkload wl = make_workload(4096, P, 32, 0.4, 0xbeef);

  for (PackScheme s : {PackScheme::kSimpleStorage,
                       PackScheme::kCompactStorage,
                       PackScheme::kCompactMessage}) {
    PackOptions opt;
    opt.scheme = s;

    machine.reset_accounting();
    analysis::DigestRecorder direct_rec(machine);
    auto direct = pack(machine, wl.array, wl.mask, opt);
    const auto direct_digest = direct_rec.digest();

    const plan::PackPlan p =
        plan::compile_pack_plan(machine, wl.d, sizeof(std::int64_t), opt);
    machine.reset_accounting();
    analysis::DigestRecorder plan_rec(machine);
    auto planned = plan::pack_with_plan(machine, p, wl.array, wl.mask);
    const auto plan_digest = plan_rec.digest();

    EXPECT_EQ(planned.vector.gather(), direct.vector.gather());
    EXPECT_EQ(planned.size, direct.size);
    EXPECT_EQ(plan_digest, direct_digest)
        << analysis::diff_digests(plan_digest, direct_digest);
  }
}

TEST(Plan, UnpackCompileThenExecuteMatchesDirectPath) {
  const int P = 4;
  auto machine = make_machine(P);
  const dist::index_t n = 1024;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({P}), 16);
  auto gm = random_mask(n, 0.5, 0xfeed);
  std::vector<double> fdata(static_cast<std::size_t>(n), -1.0);
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  auto field = dist::DistArray<double>::scatter(d, fdata);
  const auto trues = static_cast<dist::index_t>(
      std::count(gm.begin(), gm.end(), mask_t{1}));
  auto vd = dist::Distribution::block1d(trues, P);
  std::vector<double> vdata(static_cast<std::size_t>(trues));
  std::iota(vdata.begin(), vdata.end(), 100.0);
  auto v = dist::DistArray<double>::scatter(vd, vdata);

  for (UnpackScheme s :
       {UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage}) {
    UnpackOptions opt;
    opt.scheme = s;

    machine.reset_accounting();
    analysis::DigestRecorder direct_rec(machine);
    auto direct = unpack(machine, v, mask, field, opt);
    const auto direct_digest = direct_rec.digest();

    const plan::UnpackPlan p =
        plan::compile_unpack_plan(machine, d, vd, sizeof(double), opt);
    machine.reset_accounting();
    analysis::DigestRecorder plan_rec(machine);
    auto planned = plan::unpack_with_plan(machine, p, v, mask, field);
    const auto plan_digest = plan_rec.digest();

    EXPECT_EQ(planned.result.gather(), direct.result.gather());
    EXPECT_EQ(plan_digest, direct_digest)
        << analysis::diff_digests(plan_digest, direct_digest);
  }
}

TEST(PlanCache, HitSkipsRecompilationAndIsCounted) {
  const int P = 4;
  auto machine = make_machine(P);
  PackWorkload wl = make_workload(512, P, 8, 0.5, 0xabc);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  plan::PlanCache cache(4);
  auto p1 = cache.pack_plan(machine, wl.d, sizeof(std::int64_t), opt);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);

  // Second lookup: a hit, the same plan object, and -- the acceptance
  // criterion -- zero geometry recompilation anywhere in the process.
  const std::int64_t compiled_before = ranking_schedules_compiled();
  auto p2 = cache.pack_plan(machine, wl.d, sizeof(std::int64_t), opt);
  EXPECT_EQ(ranking_schedules_compiled(), compiled_before);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(p1.get(), p2.get());

  // Executing off the cached plan also recompiles nothing (the direct
  // pack() path, by contrast, compiles a schedule per call).
  auto result = plan::pack_with_plan(machine, *p2, wl.array, wl.mask);
  EXPECT_EQ(ranking_schedules_compiled(), compiled_before);
  EXPECT_EQ(result.vector.gather(),
            serial_pack<std::int64_t>(wl.data, wl.gm));

  // A different key (other scheme) is a fresh miss, not a hit.
  PackOptions other = opt;
  other.scheme = PackScheme::kSimpleStorage;
  (void)cache.pack_plan(machine, wl.d, sizeof(std::int64_t), other);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(PlanCache, MachinesWithDifferentCostModelsDoNotSharePlans) {
  // kAuto resolves each PRS under the compiling machine's cost model: a
  // 256-entry PRS over 8 members with blocks of 16 (rounds of one byte
  // per entry, 768 bytes in all, against split's 672) is direct under cm5
  // and split when start-ups are nearly free.  A cache shared by the two
  // machines must hand each its own pick.
  const int P = 8;
  auto cm5 = make_machine(P, test::test_options(sim::CostModel::cm5()));
  auto cheap = make_machine(P, test::test_options(sim::CostModel{0.01, 1.0}));
  PackWorkload wl = make_workload(32768, P, 16, 0.5, 0xc057);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactStorage;

  plan::PlanCache cache(4);
  auto a = cache.pack_plan(cm5, wl.d, sizeof(std::int64_t), opt);
  auto b = cache.pack_plan(cheap, wl.d, sizeof(std::int64_t), opt);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->schedule.steps[0].prs, coll::PrsAlgorithm::kDirect);
  EXPECT_EQ(b->schedule.steps[0].prs, coll::PrsAlgorithm::kSplit);

  UnpackOptions uopt;
  const auto vd = dist::Distribution::block1d(4096, P);
  auto ua = cache.unpack_plan(cm5, wl.d, vd, sizeof(std::int64_t), uopt);
  auto ub = cache.unpack_plan(cheap, wl.d, vd, sizeof(std::int64_t), uopt);
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(ua->schedule.steps[0].prs, coll::PrsAlgorithm::kDirect);
  EXPECT_EQ(ub->schedule.steps[0].prs, coll::PrsAlgorithm::kSplit);

  // Each machine still hits its own entry, and runs it correctly.
  EXPECT_EQ(cache.pack_plan(cheap, wl.d, sizeof(std::int64_t), opt).get(),
            b.get());
  EXPECT_EQ(plan::pack_with_plan(cheap, *b, wl.array, wl.mask)
                .vector.gather(),
            serial_pack<std::int64_t>(wl.data, wl.gm));
}

TEST(PlanCache, CacheEventsReachMachineObserver) {
  // The hit/miss lookups are point events (on_event); only the compile on
  // a miss is a phase, so the validator's phase counter sees plan.compile
  // alone while an event recorder beside it sees every lookup.
  const int P = 4;
  auto machine = make_machine(P);
  auto d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                            dist::ProcessGrid({P}), 8);
  plan::PlanCache cache(4);
  struct EventLog final : sim::MachineObserver {
    std::vector<std::string> names;
    void on_event(const char* name) override { names.emplace_back(name); }
  };
  EventLog log;
  machine.add_observer(&log);
  analysis::ProtocolValidator validator(machine);
  const std::int64_t before = validator.stats().phases;
  (void)cache.pack_plan(machine, d, sizeof(std::int64_t));  // miss + compile
  const std::int64_t after_miss = validator.stats().phases;
  EXPECT_EQ(after_miss, before + 1);  // plan.compile
  (void)cache.pack_plan(machine, d, sizeof(std::int64_t));  // hit
  EXPECT_EQ(validator.stats().phases, after_miss);
  EXPECT_EQ(log.names, (std::vector<std::string>{"plan.cache.miss",
                                                  "plan.cache.hit"}));
  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
  machine.remove_observer(&log);
}

TEST(PlanCache, EvictsLeastRecentlyUsedUnderSmallCapacity) {
  const int P = 4;
  auto machine = make_machine(P);
  plan::PlanCache cache(2);
  std::vector<dist::Distribution> dists;
  for (dist::index_t block : {4, 8, 16}) {
    dists.push_back(dist::Distribution::block_cyclic(
        dist::Shape({256}), dist::ProcessGrid({P}), block));
  }
  (void)cache.pack_plan(machine, dists[0], 8);
  (void)cache.pack_plan(machine, dists[1], 8);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);

  // Touch dists[0] so dists[1] is the LRU entry, then overflow.
  (void)cache.pack_plan(machine, dists[0], 8);
  EXPECT_EQ(cache.stats().hits, 1);
  (void)cache.pack_plan(machine, dists[2], 8);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);

  // dists[0] survived (hit); dists[1] was evicted (miss again).
  (void)cache.pack_plan(machine, dists[0], 8);
  EXPECT_EQ(cache.stats().hits, 2);
  (void)cache.pack_plan(machine, dists[1], 8);
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(PlanCache, PressureStatsTrackFillAndEvictionAge) {
  const int P = 4;
  auto machine = make_machine(P);
  plan::PlanCache cache(2);
  std::vector<dist::Distribution> dists;
  for (dist::index_t block : {4, 8, 16}) {
    dists.push_back(dist::Distribution::block_cyclic(
        dist::Shape({256}), dist::ProcessGrid({P}), block));
  }

  // Empty cache: pressure fields report capacity and the no-eviction
  // sentinel.
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.lookups, 0);
  EXPECT_EQ(s.last_eviction_age, -1);
  EXPECT_EQ(s.max_eviction_age, -1);

  (void)cache.pack_plan(machine, dists[0], 8);  // lookup 1, inserts d0
  (void)cache.pack_plan(machine, dists[1], 8);  // lookup 2, inserts d1
  s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.last_eviction_age, -1);

  // Overflow: d0 (last touched at lookup 1) is evicted by lookup 3, so
  // the eviction age -- lookups since the victim was last touched -- is 2.
  (void)cache.pack_plan(machine, dists[2], 8);
  s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.lookups, 3);
  EXPECT_EQ(s.last_eviction_age, 2);
  EXPECT_EQ(s.max_eviction_age, 2);

  // A hit refreshes last_used, so the *other* entry becomes the victim
  // with a smaller age: hit d2 (lookup 4), then insert d0 (lookup 5) --
  // victim d1 was last touched at lookup 2, age 3.
  (void)cache.pack_plan(machine, dists[2], 8);
  (void)cache.pack_plan(machine, dists[0], 8);
  s = cache.stats();
  EXPECT_EQ(s.lookups, 5);
  EXPECT_EQ(s.last_eviction_age, 3);
  EXPECT_EQ(s.max_eviction_age, 3);

  // Churn: lookup 6 evicts the d2 entry hit at lookup 4, age 2 -- small
  // ages mean the working set exceeds capacity -- while max_eviction_age
  // keeps the high-water mark.
  (void)cache.pack_plan(machine, dists[1], 8);
  s = cache.stats();
  EXPECT_EQ(s.last_eviction_age, 2);
  EXPECT_EQ(s.max_eviction_age, 3);
}

TEST(PlanCache, InvalidationAfterRedistribution) {
  const int P = 4;
  auto machine = make_machine(P);
  const dist::index_t n = 512;
  auto src_d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                                dist::ProcessGrid({P}), 4);
  auto dst_d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                                dist::ProcessGrid({P}), 32);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(n, 0.5, 0x1d);
  auto array = dist::DistArray<std::int64_t>::scatter(src_d, data);
  auto mask = dist::DistArray<mask_t>::scatter(src_d, gm);

  plan::PlanCache cache(8);
  auto p = cache.pack_plan(machine, src_d, sizeof(std::int64_t));
  auto held = p;  // an in-flight consumer keeps the plan alive

  // The array moves to a new layout; plans for the old one no longer
  // apply to it.
  auto moved = dist::DistArray<std::int64_t>(dst_d);
  dist::redistribute(machine, array, moved);
  EXPECT_EQ(cache.invalidate(machine, src_d), 1u);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.size(), 0u);

  // Next lookup for the old layout is a compile, not a stale hit.
  (void)cache.pack_plan(machine, src_d, sizeof(std::int64_t));
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);

  // The held shared_ptr stays valid and usable after invalidation.
  auto result = plan::pack_with_plan(machine, *held, array, mask);
  EXPECT_EQ(result.vector.gather(), serial_pack<std::int64_t>(data, gm));
}

TEST(PlanCache, InvalidateMatchesEveryDistributionInTheKey) {
  // Regression: invalidate() used to compare only the *source* layout, so
  // plans referencing the redistributed layout through a pack plan's
  // pinned result_dist or an unpack plan's vector_dist survived as stale
  // LRU squatters.
  const int P = 4;
  auto machine = make_machine(P);
  const dist::index_t n = 512;
  auto mask_d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                                 dist::ProcessGrid({P}), 8);
  auto vec_d = dist::Distribution::block1d(n / 2, P);

  plan::PlanCache cache(8);
  (void)cache.unpack_plan(machine, mask_d, vec_d, sizeof(double));
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  (void)cache.pack_plan(machine, mask_d, sizeof(double), opt, vec_d);
  // A pack plan with no pinned result layout must NOT match vec_d.
  (void)cache.pack_plan(machine, mask_d, sizeof(double), opt);
  ASSERT_EQ(cache.size(), 3u);

  // Redistributing the n/2 vector layout invalidates the unpack plan (its
  // vector_dist) and the pinned pack plan (its result_dist), nothing else.
  EXPECT_EQ(cache.invalidate(machine, vec_d), 2u);
  EXPECT_EQ(cache.stats().invalidations, 2);
  EXPECT_EQ(cache.size(), 1u);

  // Redistributing the mask/array layout drops the survivor.
  EXPECT_EQ(cache.invalidate(machine, mask_d), 1u);
  EXPECT_EQ(cache.stats().invalidations, 3);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, InvalidateAndClearAnnotateTheObserver) {
  // Regression: invalidate()/clear() used to drop entries silently; every
  // dropped plan must surface as one plan.cache.invalidate event.
  const int P = 4;
  auto machine = make_machine(P);
  auto mask_d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                                 dist::ProcessGrid({P}), 8);
  auto vec_d = dist::Distribution::block1d(128, P);
  plan::PlanCache cache(8);
  (void)cache.unpack_plan(machine, mask_d, vec_d, sizeof(double));
  (void)cache.pack_plan(machine, mask_d, sizeof(double));

  struct EventCounter final : sim::MachineObserver {
    std::int64_t invalidates = 0;
    void on_event(const char* name) override {
      if (std::string(name) == "plan.cache.invalidate") ++invalidates;
    }
  };
  EventCounter counter;
  machine.add_observer(&counter);

  EXPECT_EQ(cache.invalidate(machine, vec_d), 1u);  // the unpack plan
  EXPECT_EQ(counter.invalidates, 1);

  EXPECT_EQ(cache.size(), 1u);
  cache.clear(machine);  // the remaining pack plan, same event
  EXPECT_EQ(counter.invalidates, 2);
  EXPECT_EQ(cache.stats().invalidations, 2);
  EXPECT_EQ(cache.size(), 0u);

  machine.remove_observer(&counter);
}

TEST(PlanCompile, PhaseClosesWhenCompileThrows) {
  // Regression: compile_pack_plan / compile_unpack_plan opened
  // "plan.compile" with a raw begin/end pair, so a ContractError from the
  // ranking schedule (here: a grid of 8 on a 4-processor machine) left the
  // phase open.  Observers saw an unmatched begin, and the stale fault
  // scope made phase=plan rules match every later post.
  const int P = 4;
  sim::Machine machine(P, test::test_options());
  machine.set_fault_plan(sim::FaultPlan::parse("seed=1 drop=1.0 phase=plan"));
  struct PhaseCounter final : sim::MachineObserver {
    std::int64_t begins = 0;
    std::int64_t ends = 0;
    void on_phase_begin(const char* name) override {
      if (std::string(name) == "plan.compile") ++begins;
    }
    void on_phase_end(const char* name) override {
      if (std::string(name) == "plan.compile") ++ends;
    }
  };
  PhaseCounter counter;
  machine.add_observer(&counter);

  const auto wrong = dist::Distribution::block1d(256, 2 * P);
  EXPECT_THROW((void)plan::compile_pack_plan(machine, wrong, 8), ContractError);
  EXPECT_THROW((void)plan::compile_unpack_plan(
                   machine, wrong, dist::Distribution::block1d(128, P), 8),
               ContractError);
  EXPECT_EQ(counter.begins, 2);
  EXPECT_EQ(counter.ends, 2);

  // No "plan" scope is left open, so the phase=plan rule stays idle.
  {
    sim::CollectiveScope scope(machine, "probe", {7},
                               sim::RoundDiscipline::kUnordered);
    machine.post(sim::Message{0, 1, 7, {}}, sim::Category::kM2M);
    EXPECT_TRUE(machine.receive(1, 0, 7).has_value());
  }
  EXPECT_EQ(machine.fault_plan()->stats().drops, 0);
  machine.remove_observer(&counter);
}

TEST(PlanCache, RejectsAutoScheme) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                            dist::ProcessGrid({4}), 8);
  PackOptions opt;
  opt.scheme = PackScheme::kAuto;
  plan::PlanCache cache(4);
  EXPECT_THROW((void)cache.pack_plan(machine, d, 8, opt), ContractError);
  UnpackOptions uopt;
  uopt.scheme = UnpackScheme::kAuto;
  EXPECT_THROW(
      (void)cache.unpack_plan(machine, d, dist::Distribution::block1d(128, 4),
                              8, uopt),
      ContractError);
}

TEST(PlanCache, ConcurrentInvalidateAndClearStaySerialized) {
  // Regression: invalidate()/clear() used to mutate the LRU list and index
  // with no synchronization, so a maintenance thread invalidating plans
  // after a redistribution could race another thread's lookup bookkeeping
  // and corrupt the cache.  All public operations now serialize on one
  // internal mutex, and events ride the machine's serialized-observer
  // discipline -- the observer must see exactly one event per dropped
  // plan.  (TSan covers the memory-order
  // side when the suite runs under the sanitizer jobs.)
  const int P = 4;
  // Annotation scoping is fault-plan-only state and main-thread-only;
  // concurrent cache metadata operations require a fault-free machine.
  sim::Machine machine(P, test::test_options());
  const dist::index_t n = 256;
  constexpr int kDists = 8;
  std::vector<dist::Distribution> dists;
  for (int i = 0; i < kDists; ++i) {
    dists.push_back(dist::Distribution::block_cyclic(
        dist::Shape({n}), dist::ProcessGrid({P}), i + 1));
  }

  struct EventCounter final : sim::MachineObserver {
    std::int64_t invalidates = 0;
    void on_event(const char* name) override {
      if (std::string(name) == "plan.cache.invalidate") ++invalidates;
    }
  };
  EventCounter counter;
  machine.add_observer(&counter);

  // Compiles drive the machine's collectives and stay on this thread; the
  // threads below only exercise the metadata surface.
  plan::PlanCache cache(16);
  for (const auto& d : dists) {
    (void)cache.pack_plan(machine, d, sizeof(std::int64_t));
  }
  ASSERT_EQ(cache.size(), static_cast<std::size_t>(kDists));

  // Four threads: each invalidates a disjoint quarter of the
  // distributions while all of them hammer size()/stats().
  std::atomic<std::size_t> dropped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 100; ++iter) {
        (void)cache.size();
        (void)cache.stats();
      }
      for (int i = t; i < kDists; i += 4) {
        dropped += cache.invalidate(machine, dists[static_cast<std::size_t>(i)]);
      }
      for (int iter = 0; iter < 100; ++iter) (void)cache.size();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(dropped.load(), static_cast<std::size_t>(kDists));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, kDists);
  EXPECT_EQ(counter.invalidates, kDists);

  // Racing clears: exactly one drops the repopulated entries, the rest see
  // an empty cache; the counters never double-count.
  for (const auto& d : dists) {
    (void)cache.pack_plan(machine, d, sizeof(std::int64_t));
  }
  ASSERT_EQ(cache.size(), static_cast<std::size_t>(kDists));
  std::vector<std::thread> clearers;
  for (int t = 0; t < 4; ++t) {
    clearers.emplace_back([&] { cache.clear(machine); });
  }
  for (auto& th : clearers) th.join();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2 * kDists);
  EXPECT_EQ(counter.invalidates, 2 * kDists);

  machine.remove_observer(&counter);
}

TEST(PackBatch, MatchesIndependentCallsAndHalvesPrsStartups) {
  const int P = 8;
  const dist::index_t n = 4096;
  const std::size_t B = 4;
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  std::vector<PackWorkload> wls;
  for (std::size_t b = 0; b < B; ++b) {
    wls.push_back(make_workload(n, P, 16, 0.2 + 0.15 * static_cast<double>(b),
                                0x9000 + b));
  }

  // B independent packs: reference results and the PRS startup baseline.
  auto indep = make_machine(P);
  std::vector<std::vector<std::int64_t>> expected;
  for (std::size_t b = 0; b < B; ++b) {
    auto r = pack(indep, wls[b].array, wls[b].mask, opt);
    expected.push_back(r.vector.gather());
    EXPECT_EQ(expected.back(), serial_pack<std::int64_t>(wls[b].data, wls[b].gm));
  }
  const std::int64_t indep_prs_msgs =
      indep.trace().messages_in(sim::Category::kPrs);

  // One batched pack under the protocol validator.
  auto batched = make_machine(P);
  analysis::ProtocolValidator validator(batched);
  const plan::PackPlan p =
      plan::compile_pack_plan(batched, wls[0].d, sizeof(std::int64_t), opt);
  std::vector<dist::DistArray<mask_t>> masks;
  std::vector<dist::DistArray<std::int64_t>> arrays;
  for (std::size_t b = 0; b < B; ++b) {
    masks.push_back(wls[b].mask);
    arrays.push_back(wls[b].array);
  }
  auto results = plan::pack_batch<std::int64_t>(batched, p, masks, arrays);
  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();

  // Bit-identical packed vectors.
  ASSERT_EQ(results.size(), B);
  for (std::size_t b = 0; b < B; ++b) {
    EXPECT_EQ(results[b].vector.gather(), expected[b]) << "request " << b;
    EXPECT_EQ(results[b].size, static_cast<std::int64_t>(expected[b].size()));
  }

  // Acceptance criterion: with B >= 4 the batch charges at most half the
  // modeled tau startups (messages) of the B independent calls in the PRS
  // category.  Fusing makes it exactly 1/B here; assert the cover bound.
  const std::int64_t batch_prs_msgs =
      batched.trace().messages_in(sim::Category::kPrs);
  ASSERT_GT(indep_prs_msgs, 0);
  EXPECT_LE(2 * batch_prs_msgs, indep_prs_msgs)
      << "batch PRS startups " << batch_prs_msgs << " vs independent "
      << indep_prs_msgs;
  // The per-dimension round count is the single-call one, so the batch's
  // PRS startup count equals one independent call's.
  EXPECT_EQ(batch_prs_msgs * static_cast<std::int64_t>(B), indep_prs_msgs);

  // PRS *bytes* are conserved: fusing concatenates payloads, it does not
  // shrink or grow them.
  EXPECT_EQ(batched.trace().bytes_in(sim::Category::kPrs),
            indep.trace().bytes_in(sim::Category::kPrs));
}

TEST(PackBatch, SssSchemeAndMultiDimGrid) {
  // 2-D grid (two PRS dimensions) with the simple storage scheme: the
  // fused path must thread record_infos through and stay element-exact.
  const int P = 8;
  auto machine = make_machine(P);
  const dist::index_t rows = 64, cols = 64;
  auto d = dist::Distribution::block_cyclic(
      dist::Shape({rows, cols}), dist::ProcessGrid({4, 2}), 8);
  PackOptions opt;
  opt.scheme = PackScheme::kSimpleStorage;

  const std::size_t B = 3;
  std::vector<dist::DistArray<mask_t>> masks;
  std::vector<dist::DistArray<std::int64_t>> arrays;
  std::vector<std::vector<std::int64_t>> datas;
  std::vector<std::vector<mask_t>> gms;
  for (std::size_t b = 0; b < B; ++b) {
    std::vector<std::int64_t> data(static_cast<std::size_t>(rows * cols));
    std::iota(data.begin(), data.end(), static_cast<std::int64_t>(b) * 100000);
    auto gm = random_mask(rows * cols, 0.3 + 0.2 * static_cast<double>(b),
                          0x2d + b);
    arrays.push_back(dist::DistArray<std::int64_t>::scatter(d, data));
    masks.push_back(dist::DistArray<mask_t>::scatter(d, gm));
    datas.push_back(std::move(data));
    gms.push_back(std::move(gm));
  }

  const plan::PackPlan p =
      plan::compile_pack_plan(machine, d, sizeof(std::int64_t), opt);
  auto results = plan::pack_batch<std::int64_t>(machine, p, masks, arrays);
  for (std::size_t b = 0; b < B; ++b) {
    EXPECT_EQ(results[b].vector.gather(),
              serial_pack<std::int64_t>(datas[b], gms[b]))
        << "request " << b;
  }
}

TEST(PackBatch, BatchedExecutionIsDeterministic) {
  const int P = 8;
  const dist::index_t n = 2048;
  const std::size_t B = 4;
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;

  std::vector<PackWorkload> wls;
  for (std::size_t b = 0; b < B; ++b) {
    wls.push_back(make_workload(n, P, 16, 0.5, 0x7a + b));
  }
  const auto report = analysis::check_determinism(
      P, test::test_options(), [&](sim::Machine& machine) {
        const plan::PackPlan p = plan::compile_pack_plan(
            machine, wls[0].d, sizeof(std::int64_t), opt);
        std::vector<dist::DistArray<mask_t>> masks;
        std::vector<dist::DistArray<std::int64_t>> arrays;
        for (std::size_t b = 0; b < B; ++b) {
          masks.push_back(wls[b].mask);
          arrays.push_back(wls[b].array);
        }
        (void)plan::pack_batch<std::int64_t>(machine, p, masks, arrays);
      });
  EXPECT_TRUE(report.deterministic) << report.diff;
}

}  // namespace
}  // namespace pup
