// Closed-form per-member cost predictions for the collective schedules.
//
// The verifier's cost-conformance check needs a second, independent
// derivation of what each rank must pay: the IR expansion (expand.hpp)
// enumerates rounds and transfers by mirroring the collective
// implementations, while the closed forms compute the same totals from the
// paper's algebra -- message counts and tau + mu*m sums as a function of
// the group size G and the payload sizes alone, never by walking rounds.
// The PRS prediction lives with the collective (coll::predict_prs), where
// the ranking's schedule compiler also resolves kAuto with it; the
// many-to-many one is here.
// A schedule change that silently inflates (or undercharges) a round makes
// the two derivations disagree and fails verification instead of a bench.
//
// All formulas assume the virtual crossbar of the paper's two-level model
// (every pair equidistant); see sim/cost_model.hpp.
// lint: allow-no-preconditions -- pure arithmetic on scalar inputs,
// validated by the verifier's conformance equality itself.
#pragma once

#include <cstddef>
#include <vector>

#include "coll/alltoallv.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "sim/cost_model.hpp"

namespace pup::analysis::statics {

/// Closed-form *upper-bound* prediction for a many-to-many personalized
/// exchange with per-pair payload bounds `bound[i][j]` (group-position
/// indexed, diagonal ignored -- self messages bypass the network).
///
///   linear permutation: G-1 rounds, member i exchanging with (i+r) mod G /
///     (i-r) mod G; a round charges max of the two one-way times.
///   naive: every nonempty (i, j) message charges tau + mu*m to both
///     endpoints, serialized.
std::vector<coll::MemberCost> predict_m2m(
    coll::M2MSchedule schedule,
    const std::vector<std::vector<std::size_t>>& bound,
    const sim::CostModel& cost);

}  // namespace pup::analysis::statics
