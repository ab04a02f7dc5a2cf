// Mutation harness for the static verifier: seeds one known defect into a
// (correct) communication schedule so tests can prove the verifier has no
// escapes -- for every defect class, on every plan shape, the mutated
// schedule must fail verification while the pristine one passes.
//
// Mutations edit the IR only; they never touch a plan or a machine.  Each
// defect corresponds to a class of schedule-construction bugs the verifier
// exists to catch (dropped post, duplicated frame, tag leak, dependency
// cycle, undercharged round, misrouted receive, mailbox blow-up, a PRS, a
// direct PRS round or a redistribution's index fields lowered at the
// wrong wire width).
// lint: allow-no-preconditions -- deliberately produces invalid schedules;
// the verifier is the validation.
#pragma once

#include <string>

#include "analysis/static/comm_ir.hpp"

namespace pup::analysis::statics {

enum class Defect {
  kDroppedPost,       ///< erase one post; its receive blocks forever
  kDroppedRecv,       ///< erase one receive; its frame is never drained
  kDuplicatedTag,     ///< post one frame twice under the same tag
  kForeignTag,        ///< retag one matched pair to an undeclared tag
  kCyclicDependency,  ///< make the first round depend on the last
  kUnderchargedRound, ///< halve one round's charges
  kMisroutedRecv,     ///< receive expects the wrong source rank
  kOversizedPayload,  ///< inflate one post's bytes past its receive's
  kMisstatedWidth,    ///< price one PRS block's entries at twice their width
  kMisstatedIndexWidth,  ///< price one M2M block's index fields at twice
                         ///< their width
  kRoundAtLevelWidth,  ///< price one packed direct PRS round at its level's
                       ///< width
};

/// The rule (VerifyIssue::rule) the verifier must report for a defect.
const char* expected_rule(Defect defect);

/// Human-readable defect name for test diagnostics.
const char* defect_name(Defect defect);

/// Seeds `defect` into the first block that can host it.  Returns false if
/// the schedule has no viable site (e.g. a cyclic dependency needs a block
/// with at least two rounds); the schedule is unchanged in that case.
bool seed_defect(CommSchedule& schedule, Defect defect);

}  // namespace pup::analysis::statics
