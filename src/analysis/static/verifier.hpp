// Static schedule verifier: proves a symbolic communication schedule
// correct before anything runs.
//
// Four proof obligations, checked per round and across rounds (ISSUE 6):
//
//   1. communication matching -- in every round the multiset of posts
//      equals the multiset of blocking receives (same src/dst/tag/bytes),
//      every tag on the wire is declared by its block, and kMaxOneExchange
//      rounds give each rank at most one send and one receive;
//   2. deadlock freedom -- each block's round dependency graph is acyclic
//      (rounds execute in a topological order), and because matching pairs
//      every receive with a post in the *same* round, every blocking
//      receive has a statically reachable matching post;
//   3. cost conformance -- the per-rank tau + mu*m totals accumulated from
//      the IR equal the closed-form predictions (coll::predict_prs,
//      closed_form.hpp) derived independently from the paper's algebra:
//      message counts, byte volumes, and charges must all agree;
//   4. mailbox bounds -- the peak per-rank in-flight bytes over any round
//      are computed and reported, and optionally checked against a budget.
//
// verify_plan adds a fifth, on the compiled plan itself: every ranking
// step of a kAuto plan runs the PRS algorithm with the lower predicted
// busiest-member charge (direct on a tie), and every step of a kPaperRule
// plan the paper's size rule.
//
// The verifier is pure: it consumes the IR (and expectations) and returns
// a report; it never touches a Machine.  The dynamic ProtocolValidator
// (analysis/protocol_validator.hpp) remains the execution-time oracle the
// static results are cross-checked against (trace_check.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/static/comm_ir.hpp"
#include "analysis/static/expand.hpp"
#include "plan/plan.hpp"
#include "sim/cost_model.hpp"
#include "support/check.hpp"

namespace pup::analysis::statics {

struct VerifyOptions {
  /// When nonzero, any round whose in-flight bytes into one rank exceed
  /// this budget is reported as a mailbox-budget violation.  Zero means
  /// report-only (the peak still appears in the report).
  std::size_t mailbox_budget_bytes = 0;
  /// Absolute tolerance for charge comparisons (microseconds).  Charges
  /// are sums of identical double terms accumulated in two different
  /// orders, so only rounding noise is tolerated.
  double tolerance_us = 1e-6;
};

/// One verification failure.  `rule` is the proof obligation that failed
/// ("comm-matching", "tag-discipline", "round-discipline", "deadlock",
/// "cost-conformance", "mailbox-budget", "structure", "prs-pick").
struct VerifyIssue {
  std::string rule;
  std::string detail;
};

/// Where the schedule's peak per-rank in-flight volume occurs.
struct MailboxPeak {
  int rank = -1;
  std::size_t bytes = 0;
  std::string block;
  int round = -1;
};

struct VerifyReport {
  std::vector<VerifyIssue> issues;
  /// Peak in-flight bytes per rank across all rounds (index = rank).
  std::vector<std::size_t> peak_in_flight;
  MailboxPeak peak;
  int blocks = 0;
  int rounds = 0;
  std::int64_t posts = 0;
  bool ok() const { return issues.empty(); }
  /// One line: counts, peak mailbox, and the verdict.
  std::string summary() const;
};

/// Verifies an arbitrary schedule against its expectations.  This is the
/// core the mutation harness targets: seed a defect into the IR and the
/// report must name it.
VerifyReport verify_schedule(const CommSchedule& schedule,
                             const std::vector<BlockExpectation>& expect,
                             const VerifyOptions& options = {});

/// Expands and verifies a compiled PACK plan (executed with `batch` fused
/// requests), and checks its ranking steps' PRS picks under `cost`.
VerifyReport verify_plan(const plan::PackPlan& plan,
                         const sim::CostModel& cost, std::size_t batch = 1,
                         const VerifyOptions& options = {});

/// Expands and verifies a compiled UNPACK plan, PRS picks included.
VerifyReport verify_plan(const plan::UnpackPlan& plan,
                         const sim::CostModel& cost,
                         const VerifyOptions& options = {});

/// Appends a "prs-pick" issue for every ranking step of `sched` (compiled
/// from a `requested` PRS knob under `cost`) whose algorithm is not the
/// one the closed forms require: under kAuto whichever of direct and split
/// has the lower busiest-member charge at the step's group size,
/// single-request vector length and wire width (direct on a tie); under
/// kPaperRule the paper's size rule.  Concrete requests pass through.
void check_prs_picks(VerifyReport& report, const RankingSchedule& sched,
                     coll::PrsAlgorithm requested,
                     const sim::CostModel& cost);

/// Aborts (PUP_CHECK) with the report's issues when verification fails;
/// the debug-build hook ResilientExecutor uses.
void require_verified(const VerifyReport& report, const char* what);

}  // namespace pup::analysis::statics
