// Plan expansion: lowers a compiled PackPlan/UnpackPlan into the symbolic
// communication schedule (comm_ir.hpp) it will execute.
//
// The expansion mirrors the collective implementations round for round --
// the same partner arithmetic, the same empty-message skips, the same
// charge_exchange/charge_oneway accounting -- but reads only the plan (and
// the static per-pair payload bounds), never a mask.  Honesty of the mirror
// is enforced twice: the verifier proves the expansion's totals equal the
// independent closed forms (closed_form.hpp), and the dynamic trace
// cross-check (trace_check.hpp) replays a real execution against it.
//
// Alongside the IR, expansion emits one BlockExpectation per collective:
// the closed-form per-member prediction the verifier must reproduce from
// the IR.  A PRS that lowers to two blocks (dissemination exscan + binomial
// broadcast for non-power-of-two groups) carries one expectation spanning
// both blocks, because the closed form predicts the fused collective.
// lint: allow-no-preconditions -- inputs are compiled plans, already
// validated by the plan compiler; defects are the verifier's output, not
// exceptions.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/static/closed_form.hpp"
#include "analysis/static/comm_ir.hpp"
#include "plan/plan.hpp"
#include "sim/cost_model.hpp"

namespace pup::analysis::statics {

/// Closed-form prediction attached to the block(s) lowered from one
/// collective call.  `ranks[k]` is the machine rank of group position k and
/// `expected[k]` its prediction; `exact` distinguishes equality transfers
/// (ranking PRS) from upper-bound transfers (mask-dependent M2M payloads)
/// for the dynamic cross-check.  The verifier itself always demands
/// IR == closed form: both sides are derived from the same static inputs,
/// so any disagreement is a lowering (or mutation) defect.
struct BlockExpectation {
  std::vector<std::size_t> blocks;  ///< indices into CommSchedule::blocks
  bool exact = true;
  std::vector<int> ranks;
  std::vector<MemberCost> expected;
};

struct ExpandedPlan {
  CommSchedule schedule;
  std::vector<BlockExpectation> expectations;
};

/// Static per-pair payload upper bounds for a plan's many-to-many stage(s),
/// world-rank indexed.  Exposed so tests can probe the bound arithmetic
/// directly.
///
/// PACK: source i holds at most its local mask extent selected elements,
/// and destination j owns at most its result-vector capacity (from the
/// pinned result layout, or ceil(N/P) under the default block1d of the true
/// count, which never exceeds ceil(N/P) slots per rank).  Each element
/// costs iw+w bytes as an (index, value) pair, or 2 iw+w worst case under
/// CMS (every element its own run-length segment), where iw is the plan's
/// index width: index_wire_bytes of the pinned layout, else of a share of
/// ceil(N/P) elements.
std::vector<std::vector<std::size_t>> pack_m2m_bounds(
    const plan::PackPlan& plan);

/// UNPACK requests: min(local mask extent of i, vector capacity of j)
/// requested ranks at the plan's index width (index_wire_bytes of the
/// vector layout) each.
std::vector<std::vector<std::size_t>> unpack_request_bounds(
    const plan::UnpackPlan& plan);

/// UNPACK replies: the transpose of the request counts at elem_width bytes
/// per value.
std::vector<std::vector<std::size_t>> unpack_reply_bounds(
    const plan::UnpackPlan& plan);

/// Lowers a PACK plan executed with `batch` fused requests: the ranking
/// PRS payloads concatenate (vector length batch * level_size), then one
/// bounded M2M block runs per request.  batch == 1 is pack_with_plan.
ExpandedPlan expand_pack_plan(const plan::PackPlan& plan,
                              const sim::CostModel& cost,
                              std::size_t batch = 1);

/// Lowers an UNPACK plan: ranking, then the bounded request and reply M2M
/// blocks.
ExpandedPlan expand_unpack_plan(const plan::UnpackPlan& plan,
                                const sim::CostModel& cost);

}  // namespace pup::analysis::statics
