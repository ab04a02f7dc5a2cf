// Static plan verifier (analysis/static/):
//   * no-false-positive sweep -- every (scheme x PRS knob x M2M knob) plan
//     the compiler can produce at p in {4, 8, 16} (plus p = 6, which is the
//     only way to reach the dissemination-exscan + broadcast PRS path)
//     verifies clean, pack and unpack, batched and not;
//   * mutation matrix -- each seeded defect class is caught on every plan
//     shape it can be seeded into, and the verifier names the right rule
//     (0 escapes);
//   * dynamic cross-check -- a real execution's trace (ScheduleRecorder)
//     replays against the static expansion round for round, proving the
//     expansion honest: exact equality for ranking PRS, bound containment
//     for the mask-dependent M2M stages, charge ledger closed;
//   * mailbox accounting -- peaks are reported and budgets enforced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static/closed_form.hpp"
#include "analysis/static/expand.hpp"
#include "analysis/static/mutate.hpp"
#include "analysis/static/trace_check.hpp"
#include "analysis/static/verifier.hpp"
#include "core/api.hpp"
#include "plan/executor.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

namespace st = analysis::statics;

using test::make_machine;

/// The grid/extent shapes the sweep runs.  p = 6 grids exercise the
/// non-power-of-two direct PRS (exscan + broadcast); the 2-d grids give
/// every ranking step more than one PRS group.
struct GridCase {
  const char* name;
  int p;
  dist::Distribution dist;
};

std::vector<GridCase> grid_cases() {
  using dist::Distribution;
  using dist::ProcessGrid;
  using dist::Shape;
  return {
      {"p4.1d", 4, Distribution::block_cyclic(Shape({512}),
                                              ProcessGrid({4}), 16)},
      {"p6.1d", 6, Distribution::block_cyclic(Shape({720}),
                                              ProcessGrid({6}), 8)},
      {"p8.1d", 8, Distribution::block_cyclic(Shape({1024}),
                                              ProcessGrid({8}), 8)},
      {"p6.2d", 6, Distribution::block_cyclic(Shape({48, 36}),
                                              ProcessGrid({2, 3}), 4)},
      {"p16.2d", 16, Distribution::block_cyclic(Shape({64, 64}),
                                                ProcessGrid({4, 4}), 8)},
  };
}

const std::vector<PackScheme> kPackSchemes = {PackScheme::kSimpleStorage,
                                              PackScheme::kCompactStorage,
                                              PackScheme::kCompactMessage};
const std::vector<UnpackScheme> kUnpackSchemes = {
    UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage};
// kAuto and kPaperRule included: the plan compiler resolves them per
// dimension, so the sweep also covers whatever either rule picks (and
// verify_plan checks the picks).
const std::vector<coll::PrsAlgorithm> kPrsKnobs = {
    coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit,
    coll::PrsAlgorithm::kControlNetwork, coll::PrsAlgorithm::kAuto,
    coll::PrsAlgorithm::kPaperRule};
const std::vector<coll::M2MSchedule> kM2MKnobs = {
    coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive};
// The paper's int64 wire and the narrowest proven one.
const std::vector<coll::WireWidth> kWidths = {coll::WireWidth::k64,
                                             coll::WireWidth::kAuto};

std::string case_name(const GridCase& gc, int scheme, int prs, int m2m) {
  return std::string(gc.name) + " scheme=" + std::to_string(scheme) +
         " prs=" + std::to_string(prs) + " m2m=" + std::to_string(m2m);
}

// ---------------------------------------------------------------------------
// No-false-positive sweep: every compilable plan shape verifies clean.

TEST(StaticVerifier, EveryPackPlanShapeVerifies) {
  for (const GridCase& gc : grid_cases()) {
    auto machine = make_machine(gc.p);
    for (std::size_t si = 0; si < kPackSchemes.size(); ++si) {
      for (std::size_t pi = 0; pi < kPrsKnobs.size(); ++pi) {
        for (std::size_t mi = 0; mi < kM2MKnobs.size(); ++mi) {
          PackOptions opt;
          opt.scheme = kPackSchemes[si];
          opt.prs = kPrsKnobs[pi];
          opt.schedule = kM2MKnobs[mi];
          const plan::PackPlan plan = plan::compile_pack_plan(
              machine, gc.dist, sizeof(double), opt);
          for (std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
            const st::VerifyReport report =
                st::verify_plan(plan, machine.cost(), batch);
            EXPECT_TRUE(report.ok())
                << case_name(gc, static_cast<int>(si), static_cast<int>(pi),
                             static_cast<int>(mi))
                << " B=" << batch << ": " << report.summary()
                << (report.issues.empty()
                        ? ""
                        : "\n  first issue: [" + report.issues[0].rule +
                              "] " + report.issues[0].detail);
          }
        }
      }
    }
  }
}

TEST(StaticVerifier, EveryUnpackPlanShapeVerifies) {
  for (const GridCase& gc : grid_cases()) {
    auto machine = make_machine(gc.p);
    const auto vd = dist::Distribution::block1d(
        gc.dist.global().size() / 2 + 1, gc.p);
    for (std::size_t si = 0; si < kUnpackSchemes.size(); ++si) {
      for (std::size_t pi = 0; pi < kPrsKnobs.size(); ++pi) {
        for (std::size_t mi = 0; mi < kM2MKnobs.size(); ++mi) {
          UnpackOptions opt;
          opt.scheme = kUnpackSchemes[si];
          opt.prs = kPrsKnobs[pi];
          opt.schedule = kM2MKnobs[mi];
          const plan::UnpackPlan plan = plan::compile_unpack_plan(
              machine, gc.dist, vd, sizeof(double), opt);
          const st::VerifyReport report =
              st::verify_plan(plan, machine.cost());
          EXPECT_TRUE(report.ok())
              << case_name(gc, static_cast<int>(si), static_cast<int>(pi),
                           static_cast<int>(mi))
              << ": " << report.summary()
              << (report.issues.empty()
                      ? ""
                      : "\n  first issue: [" + report.issues[0].rule + "] " +
                            report.issues[0].detail);
        }
      }
    }
  }
}

// A pinned result layout changes the M2M bound arithmetic; it must verify
// too.
TEST(StaticVerifier, PinnedResultLayoutVerifies) {
  auto machine = make_machine(8);
  const auto d = dist::Distribution::block_cyclic(dist::Shape({1024}),
                                                  dist::ProcessGrid({8}), 8);
  const auto rd = dist::Distribution::block1d(1024, 8);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const plan::PackPlan plan =
      plan::compile_pack_plan(machine, d, sizeof(double), opt, rd);
  const st::VerifyReport report = st::verify_plan(plan, machine.cost());
  EXPECT_TRUE(report.ok()) << report.summary();
}

// The M2M bounds price every index field at the plan's width: the pinned
// result (or vector) layout's index_wire_bytes, else, for an unpinned PACK
// result, that of a ceil(N/P)-element share.
TEST(StaticVerifier, M2MBoundsPriceIndexFieldsAtThePlanWidth) {
  auto machine = make_machine(8);
  const auto d = dist::Distribution::block_cyclic(dist::Shape({4096}),
                                                  dist::ProcessGrid({8}), 8);
  const std::size_t li = 512;  // every rank's mask extent, = ceil(N/P)
  auto pack_bound = [&](PackScheme scheme, coll::WireWidth width,
                        std::optional<dist::Distribution> rd) {
    PackOptions opt;
    opt.scheme = scheme;
    opt.wire_width = width;
    const auto plan = plan::compile_pack_plan(machine, d, sizeof(double), opt,
                                              std::move(rd));
    return st::pack_m2m_bounds(plan)[0][1];
  };
  // Unpinned: shares of ceil(4096 / 8) = 512 need two-byte indices.
  EXPECT_EQ(pack_bound(PackScheme::kCompactStorage, coll::WireWidth::kAuto,
                       std::nullopt),
            li * (2 + 8));
  EXPECT_EQ(pack_bound(PackScheme::kCompactMessage, coll::WireWidth::kAuto,
                       std::nullopt),
            li * (2 * 2 + 8));
  EXPECT_EQ(pack_bound(PackScheme::kSimpleStorage, coll::WireWidth::k64,
                       std::nullopt),
            li * (8 + 8));
  EXPECT_EQ(pack_bound(PackScheme::kCompactMessage, coll::WireWidth::k64,
                       std::nullopt),
            li * (2 * 8 + 8));
  // Pinned: 8 shares of 25 fit one byte, and cap the bound at 25 elements.
  const auto rd = dist::Distribution::block1d(200, 8);
  EXPECT_EQ(pack_bound(PackScheme::kCompactStorage, coll::WireWidth::kAuto,
                       rd),
            std::size_t{25} * (1 + 8));
  EXPECT_EQ(pack_bound(PackScheme::kCompactMessage, coll::WireWidth::k64, rd),
            std::size_t{25} * (2 * 8 + 8));

  // UNPACK requests: one index field per requested rank, at most the
  // owner's share; V's shares of 300 need two bytes.
  const auto vd = dist::Distribution::block1d(2400, 8);
  for (const coll::WireWidth width : kWidths) {
    UnpackOptions opt;
    opt.wire_width = width;
    const auto plan =
        plan::compile_unpack_plan(machine, d, vd, sizeof(double), opt);
    const std::size_t iw = width == coll::WireWidth::k64 ? 8 : 2;
    EXPECT_EQ(st::unpack_request_bounds(plan)[0][1], std::size_t{300} * iw);
    EXPECT_EQ(st::unpack_reply_bounds(plan)[1][0], std::size_t{300} * 8);
    EXPECT_TRUE(st::verify_plan(plan, machine.cost()).ok());
  }
}

// ---------------------------------------------------------------------------
// Mutation matrix: 0 escapes across all defect classes and plan shapes.

TEST(StaticVerifier, MutationHarnessHasNoEscapes) {
  const std::vector<st::Defect> defects = {
      st::Defect::kDroppedPost,       st::Defect::kDroppedRecv,
      st::Defect::kDuplicatedTag,     st::Defect::kForeignTag,
      st::Defect::kCyclicDependency,  st::Defect::kUnderchargedRound,
      st::Defect::kMisroutedRecv,     st::Defect::kOversizedPayload,
      st::Defect::kMisstatedWidth,     st::Defect::kMisstatedIndexWidth,
  };
  std::map<st::Defect, int> seeded;
  for (const GridCase& gc : grid_cases()) {
    auto machine = make_machine(gc.p);
    for (PackScheme scheme : kPackSchemes) {
      for (coll::PrsAlgorithm prs :
           {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit}) {
        for (const coll::WireWidth width : kWidths) {
          for (coll::M2MSchedule m2m : kM2MKnobs) {
            PackOptions opt;
            opt.scheme = scheme;
            opt.prs = prs;
            opt.schedule = m2m;
            opt.wire_width = width;
            const plan::PackPlan plan = plan::compile_pack_plan(
                machine, gc.dist, sizeof(double), opt);
            const st::ExpandedPlan pristine =
                st::expand_pack_plan(plan, machine.cost());
            ASSERT_TRUE(st::verify_schedule(pristine.schedule,
                                            pristine.expectations)
                            .ok());
            for (st::Defect defect : defects) {
              st::ExpandedPlan mutated = pristine;
              if (!st::seed_defect(mutated.schedule, defect)) continue;
              ++seeded[defect];
              const st::VerifyReport report = st::verify_schedule(
                  mutated.schedule, mutated.expectations);
              const std::string want = st::expected_rule(defect);
              const bool caught = std::any_of(
                  report.issues.begin(), report.issues.end(),
                  [&](const st::VerifyIssue& i) { return i.rule == want; });
              EXPECT_TRUE(caught)
                  << st::defect_name(defect) << " escaped on " << gc.name
                  << " (" << pristine.schedule.origin << "); expected rule \""
                  << want << "\", report: " << report.summary();
            }
          }
        }
      }
    }
  }
  // Every defect class must have found at least one seeding site overall.
  for (st::Defect defect : defects) {
    EXPECT_GT(seeded[defect], 0) << st::defect_name(defect) << " never seeded";
  }
}

// ---------------------------------------------------------------------------
// Dynamic cross-check: real executions replay against the expansion.

std::vector<mask_t> checkered_mask(dist::index_t n, std::uint64_t seed) {
  return random_mask(n, 0.45, seed);
}

TEST(StaticVerifier, PackTraceMatchesExpansion) {
  for (const GridCase& gc : grid_cases()) {
    auto machine = make_machine(gc.p);
    const dist::index_t n = gc.dist.global().size();
    std::vector<double> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 1.0);
    const auto array = dist::DistArray<double>::scatter(gc.dist, data);
    const auto mask = dist::DistArray<mask_t>::scatter(
        gc.dist, checkered_mask(n, 0x5eed));

    for (PackScheme scheme : kPackSchemes) {
      for (coll::PrsAlgorithm prs : kPrsKnobs) {
        for (const coll::WireWidth width : kWidths) {
          for (coll::M2MSchedule m2m : kM2MKnobs) {
            PackOptions opt;
            opt.scheme = scheme;
            opt.prs = prs;
            opt.schedule = m2m;
            opt.wire_width = width;
            const plan::PackPlan plan = plan::compile_pack_plan(
                machine, gc.dist, sizeof(double), opt);
            const st::ExpandedPlan expanded =
                st::expand_pack_plan(plan, machine.cost());

            st::ScheduleRecorder recorder;
            machine.add_observer(&recorder);
            (void)plan::pack_with_plan(machine, plan, array, mask);
            machine.remove_observer(&recorder);

            const st::TraceCheckResult check =
                st::check_trace(recorder, expanded.schedule);
            EXPECT_TRUE(check.ok())
                << expanded.schedule.origin << " on " << gc.name << ":\n  "
                << (check.issues.empty() ? "" : check.issues[0]);
          }
        }
      }
    }
  }
}

TEST(StaticVerifier, BatchedPackTraceMatchesExpansion) {
  auto machine = make_machine(8);
  const auto d = dist::Distribution::block_cyclic(dist::Shape({1024}),
                                                  dist::ProcessGrid({8}), 8);
  std::vector<double> data(1024);
  std::iota(data.begin(), data.end(), 1.0);
  const std::size_t B = 3;
  std::vector<dist::DistArray<double>> arrays;
  std::vector<dist::DistArray<mask_t>> masks;
  for (std::size_t b = 0; b < B; ++b) {
    arrays.push_back(dist::DistArray<double>::scatter(d, data));
    masks.push_back(dist::DistArray<mask_t>::scatter(
        d, checkered_mask(1024, 0x100 + b)));
  }
  for (coll::M2MSchedule m2m : kM2MKnobs) {
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    opt.prs = coll::PrsAlgorithm::kSplit;
    opt.schedule = m2m;
    const plan::PackPlan plan =
        plan::compile_pack_plan(machine, d, sizeof(double), opt);
    const st::ExpandedPlan expanded =
        st::expand_pack_plan(plan, machine.cost(), B);

    st::ScheduleRecorder recorder;
    machine.add_observer(&recorder);
    (void)plan::pack_batch<double>(machine, plan, masks, arrays);
    machine.remove_observer(&recorder);

    const st::TraceCheckResult check =
        st::check_trace(recorder, expanded.schedule);
    EXPECT_TRUE(check.ok()) << expanded.schedule.origin << ":\n  "
                            << (check.issues.empty() ? "" : check.issues[0]);
  }
}

TEST(StaticVerifier, UnpackTraceMatchesExpansion) {
  for (const GridCase& gc : grid_cases()) {
    auto machine = make_machine(gc.p);
    const dist::index_t n = gc.dist.global().size();
    const auto gm = checkered_mask(n, 0xfeedbeef);
    const auto trues = static_cast<dist::index_t>(
        std::count(gm.begin(), gm.end(), mask_t{1}));
    const auto mask = dist::DistArray<mask_t>::scatter(gc.dist, gm);
    const auto field = dist::DistArray<double>::scatter(
        gc.dist, std::vector<double>(static_cast<std::size_t>(n), -1.0));
    const auto vd = dist::Distribution::block1d(trues, gc.p);
    std::vector<double> vdata(static_cast<std::size_t>(trues));
    std::iota(vdata.begin(), vdata.end(), 100.0);
    const auto v = dist::DistArray<double>::scatter(vd, vdata);

    for (UnpackScheme scheme : kUnpackSchemes) {
      for (coll::PrsAlgorithm prs : kPrsKnobs) {
        for (const coll::WireWidth width : kWidths) {
          for (coll::M2MSchedule m2m : kM2MKnobs) {
            UnpackOptions opt;
            opt.scheme = scheme;
            opt.prs = prs;
            opt.schedule = m2m;
            opt.wire_width = width;
            const plan::UnpackPlan plan = plan::compile_unpack_plan(
                machine, gc.dist, vd, sizeof(double), opt);
            const st::ExpandedPlan expanded =
                st::expand_unpack_plan(plan, machine.cost());

            st::ScheduleRecorder recorder;
            machine.add_observer(&recorder);
            (void)plan::unpack_with_plan(machine, plan, v, mask, field);
            machine.remove_observer(&recorder);

            const st::TraceCheckResult check =
                st::check_trace(recorder, expanded.schedule);
            EXPECT_TRUE(check.ok())
                << expanded.schedule.origin << " on " << gc.name << ":\n  "
                << (check.issues.empty() ? "" : check.issues[0]);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mailbox accounting.

TEST(StaticVerifier, MailboxPeakReportedAndBudgetEnforced) {
  auto machine = make_machine(8);
  const auto d = dist::Distribution::block_cyclic(dist::Shape({1024}),
                                                  dist::ProcessGrid({8}), 8);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactStorage;
  const plan::PackPlan plan =
      plan::compile_pack_plan(machine, d, sizeof(double), opt);

  const st::VerifyReport unlimited = st::verify_plan(plan, machine.cost());
  ASSERT_TRUE(unlimited.ok());
  ASSERT_EQ(unlimited.peak_in_flight.size(), 8u);
  EXPECT_GT(unlimited.peak.bytes, 0u);
  EXPECT_GE(unlimited.peak.rank, 0);
  for (std::size_t bytes : unlimited.peak_in_flight) {
    EXPECT_LE(bytes, unlimited.peak.bytes);
  }

  st::VerifyOptions tight;
  tight.mailbox_budget_bytes = 1;
  const st::VerifyReport capped =
      st::verify_plan(plan, machine.cost(), 1, tight);
  EXPECT_FALSE(capped.ok());
  EXPECT_TRUE(std::any_of(capped.issues.begin(), capped.issues.end(),
                          [](const st::VerifyIssue& i) {
                            return i.rule == "mailbox-budget";
                          }))
      << capped.summary();

  st::VerifyOptions loose;
  loose.mailbox_budget_bytes = unlimited.peak.bytes;
  EXPECT_TRUE(st::verify_plan(plan, machine.cost(), 1, loose).ok());
}

// ---------------------------------------------------------------------------
// PRS picks: a resolved step that is not the rule's pick is reported.

bool has_rule(const st::VerifyReport& report, const std::string& rule) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const st::VerifyIssue& i) { return i.rule == rule; });
}

TEST(StaticVerifier, DearerPrsPickIsReported) {
  // P = 8, cyclic: one 1024-entry PRS on a 1-byte wire per PACK.  Under
  // cm5 direct charges 627 us per member against split's 1527; the
  // paper's rule splits.
  auto machine = make_machine(8, test::test_options(sim::CostModel::cm5()));
  const auto d = dist::Distribution::block_cyclic(dist::Shape({8192}),
                                                  dist::ProcessGrid({8}), 1);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactStorage;
  plan::PackPlan plan =
      plan::compile_pack_plan(machine, d, sizeof(double), opt);
  ASSERT_EQ(plan.schedule.steps[0].prs, coll::PrsAlgorithm::kDirect);
  EXPECT_TRUE(st::verify_plan(plan, machine.cost()).ok());

  // Forced to the dearer algorithm, the schedule itself still conforms to
  // its closed forms; only the pick check can see the waste.
  plan.schedule.steps[0].prs = coll::PrsAlgorithm::kSplit;
  const st::VerifyReport dearer = st::verify_plan(plan, machine.cost());
  EXPECT_TRUE(has_rule(dearer, "prs-pick")) << dearer.summary();
  EXPECT_FALSE(has_rule(dearer, "cost-conformance")) << dearer.summary();

  // The paper's rule is held to its own pick, in UNPACK plans too.
  UnpackOptions uopt;
  uopt.prs = coll::PrsAlgorithm::kPaperRule;
  plan::UnpackPlan uplan = plan::compile_unpack_plan(
      machine, d, dist::Distribution::block1d(4096, 8), sizeof(double),
      uopt);
  ASSERT_EQ(uplan.schedule.steps[0].prs, coll::PrsAlgorithm::kSplit);
  EXPECT_TRUE(st::verify_plan(uplan, machine.cost()).ok());
  uplan.schedule.steps[0].prs = coll::PrsAlgorithm::kDirect;
  EXPECT_TRUE(has_rule(st::verify_plan(uplan, machine.cost()), "prs-pick"));
}

// ---------------------------------------------------------------------------
// Closed forms: spot-check the algebra against hand computations.

TEST(StaticVerifier, ClosedFormDirectPow2) {
  const sim::CostModel cost{10.0, 0.1};
  // G = 8, 16 int64 words: 3 rounds of tau + mu*128 per member.
  const auto costs =
      coll::predict_prs(coll::PrsAlgorithm::kDirect, 8, 16, 8, cost);
  ASSERT_EQ(costs.size(), 8u);
  for (const auto& mc : costs) {
    EXPECT_EQ(mc.posts, 3);
    EXPECT_EQ(mc.recvs, 3);
    EXPECT_EQ(mc.bytes_out, 3u * 128u);
    EXPECT_DOUBLE_EQ(mc.charge_us, 3 * (10.0 + 0.1 * 128));
  }
}

TEST(StaticVerifier, ClosedFormSplitConservesBytes) {
  const sim::CostModel cost{10.0, 0.1};
  for (int G : {3, 4, 7, 8}) {
    for (std::size_t M : {std::size_t{5}, std::size_t{64}}) {
      const auto costs =
          coll::predict_prs(coll::PrsAlgorithm::kSplit, G, M, 8, cost);
      std::size_t out = 0;
      std::size_t in = 0;
      for (const auto& mc : costs) {
        out += mc.bytes_out;
        in += mc.bytes_in;
      }
      // Every byte posted is received exactly once.
      EXPECT_EQ(out, in) << "G=" << G << " M=" << M;
      // Phase 1 ships all non-self chunks once (M - own chunks), phase 2
      // returns them doubled: total = 3 * 8 * sum of non-self chunk sizes.
      std::size_t nonself = 0;
      for (int c = 0; c < G; ++c) {
        const std::size_t lo = (M * static_cast<std::size_t>(c)) /
                               static_cast<std::size_t>(G);
        const std::size_t hi = (M * static_cast<std::size_t>(c + 1)) /
                               static_cast<std::size_t>(G);
        nonself += (hi - lo) * static_cast<std::size_t>(G - 1);
      }
      EXPECT_EQ(out, 3u * 8u * nonself) << "G=" << G << " M=" << M;
    }
  }
}

TEST(StaticVerifier, ClosedFormGroupOfOneIsFree) {
  const sim::CostModel cost{10.0, 0.1};
  for (coll::PrsAlgorithm alg :
       {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit,
        coll::PrsAlgorithm::kControlNetwork}) {
    const auto costs = coll::predict_prs(alg, 1, 64, 8, cost);
    ASSERT_EQ(costs.size(), 1u);
    EXPECT_EQ(costs[0].posts, 0);
    EXPECT_DOUBLE_EQ(costs[0].charge_us, 0.0);
  }
}

// require_verified: the ResilientExecutor debug hook aborts with the
// report's issues.
TEST(StaticVerifier, RequireVerifiedThrowsWithIssues) {
  auto machine = make_machine(4);
  const auto d = dist::Distribution::block_cyclic(dist::Shape({512}),
                                                  dist::ProcessGrid({4}), 16);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactStorage;
  const plan::PackPlan plan =
      plan::compile_pack_plan(machine, d, sizeof(double), opt);
  st::ExpandedPlan expanded = st::expand_pack_plan(plan, machine.cost());
  st::require_verified(
      st::verify_schedule(expanded.schedule, expanded.expectations),
      "pristine plan");  // must not throw
  ASSERT_TRUE(st::seed_defect(expanded.schedule, st::Defect::kDroppedPost));
  EXPECT_THROW(
      st::require_verified(
          st::verify_schedule(expanded.schedule, expanded.expectations),
          "mutated plan"),
      ContractError);
}

}  // namespace
}  // namespace pup
