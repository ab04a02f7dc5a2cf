// Deterministic fault injection at the transport boundary.
//
// The paper's two-level cost model assumes a lossless machine; production
// networks are not.  A FaultPlan is a seeded, ordered list of injection
// rules applied by Machine::post to every message the moment it enters the
// network: a message may be dropped (it vanishes -- never traced, observed,
// or delivered), duplicated (a second flagged copy is delivered), delayed
// (held in a machine-owned queue for a fixed number of receive ticks), or
// truncated (the payload is cut in half, detectable through the wire
// checksum).  Rules are scoped by source rank, destination rank, tag, and
// an open annotation scope (collective or phase name), so a schedule can
// target exactly one protocol.
//
// Fail-stop rank death: a `kill=R` rule models rank R crashing mid-phase.
// Kill rules carry a deterministic countdown instead of a probability: the
// rule observes posts that match its scope and, once `after=N` of them have
// been seen, marks rank R dead.  Kill rules are *transparent* -- observing
// a post never decides that post's fate, and their countdowns tick in a
// pre-pass so probability rules apply unchanged regardless of where the
// kill sits in the list -- and one-shot: a fired rule stays spent even if
// the rank is later revived (FaultPlan::revive models failover to a spare).
// From the moment a rank is dead, every message it posts is silently
// discarded (FaultAction::kDeadSource) while messages *to* it are still
// delivered -- a crashed processor stops sending but its peers keep
// talking into the void, which is exactly what makes the death observable
// as a heartbeat timeout in the reliable layer (coll/reliable.hpp).
//
// Determinism: the plan owns a single xoshiro256** stream seeded once, and
// the transport runs strictly on the calling thread, so the same seed, the
// same workload, and the same rule list reproduce the same fault schedule
// bit for bit -- which is what makes retransmission counts assertable in
// tests.  Each posted message that matches a probability rule consumes
// exactly one draw; non-matching messages, kill countdowns, and dead-source
// drops consume none.
//
// A machine injects faults only once a plan is installed with
// Machine::set_fault_plan(FaultPlan::parse(spec)); the library never reads
// the environment, but the test main and example_quickstart accept the
// same spec in PUP_FAULTS (support::Env::read).  Syntax, '|'-separated
// rules of whitespace- or comma-separated key=value fields, first matching
// probability rule wins:
//
//   PUP_FAULTS="seed=42 drop=0.02 dup=0.01 delay=0.01 ticks=2 trunc=0.005"
//   PUP_FAULTS="seed=7 drop=0.5 tag=0xa2a phase=alltoallv | drop=0.01"
//   PUP_FAULTS="kill=3 after=5 phase=prs | drop=0.02"
//
//   seed=N     global RNG seed (default 1; last one mentioned wins)
//   drop=P dup=P delay=P trunc=P   per-message probabilities, sum <= 1
//   ticks=N    delay length in receive ticks (default 3)
//   src=R dst=R tag=T              scope to one endpoint / tag (default any;
//                                  tag accepts hex)
//   phase=S    scope to posts made while an open collective/phase
//              annotation contains S as a substring
//   kill=R     fail-stop: rank R dies once the rule's countdown expires.
//              May not be combined with probability fields in one rule.
//   after=N    countdown for kill rules: the rank dies at the N-th matching
//              post (default 1, i.e. the first matching post)
//
// Parse failures identify the offending token and its byte offset in the
// spec -- an env-driven typo must fail loudly and precisely, not run a
// silently fault-free experiment.
//
// Every injected event is reported through the MachineObserver as a point
// event (on_event: "fault.drop", "fault.duplicate", "fault.delay",
// "fault.truncate", "fault.kill", "fault.dead", "fault.delay.expired") so
// validators and traces can see exactly where the schedule fired.
// Injection alone provides no recovery: run the collectives with the
// reliable layer (coll/reliable.hpp) or a lost message becomes a
// ContractError at the next required receive; a killed rank additionally
// needs the operation-level recovery layer (plan/resilient.hpp) to turn
// the resulting RankFailure into a rollback + re-execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "support/rng.hpp"

namespace pup::sim {

enum class FaultAction {
  kDeliver,
  kDrop,
  kDuplicate,
  kDelay,
  kTruncate,
  kDeadSource,  ///< the sender is dead; the message silently vanishes
};

/// Outcome of one injection decision.
struct FaultEvent {
  FaultAction action = FaultAction::kDeliver;
  int delay_ticks = 0;          ///< kDelay: receive calls before release
  std::size_t truncate_to = 0;  ///< kTruncate: new payload size in bytes
  int killed_rank = -1;         ///< >= 0 when this post fired a kill rule
};

/// One scoped injection rule; see the header comment for the field grammar.
struct FaultRule {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double truncate = 0.0;
  int delay_ticks = 3;
  int kill = -1;      ///< >= 0: fail-stop rule killing this rank
  int after = 1;      ///< kill countdown in matching posts
  int src = -1;       ///< -1 = any source rank
  int dst = -1;       ///< -1 = any destination rank
  int tag = -1;       ///< -1 = any tag
  std::string phase;  ///< "" = anywhere; else substring of an open scope

  double probability_sum() const {
    return drop + duplicate + delay + truncate;
  }
  bool is_kill() const { return kill >= 0; }

  /// True when this rule applies to `m` posted under the given stack of
  /// open collective/phase annotation names (innermost last).
  bool matches(const Message& m, const std::vector<std::string>& scopes) const;
};

class FaultPlan {
 public:
  struct Stats {
    std::int64_t decisions = 0;  ///< posts that matched some probability rule
    std::int64_t drops = 0;
    std::int64_t duplicates = 0;
    std::int64_t delays = 0;
    std::int64_t truncations = 0;
    std::int64_t kills = 0;         ///< kill rules fired
    std::int64_t dead_dropped = 0;  ///< posts discarded from dead ranks
    std::int64_t expired = 0;       ///< delayed messages expired at scope end
    std::int64_t injected() const {
      return drops + duplicates + delays + truncations + dead_dropped;
    }
  };

  FaultPlan(std::uint64_t seed, std::vector<FaultRule> rules);

  /// Parses the PUP_FAULTS grammar; throws pup::ContractError on malformed
  /// specs (unknown key, probability outside [0,1], probabilities summing
  /// past 1, bad number, kill mixed with probabilities).  Every error
  /// message names the offending token and its byte offset in the spec.
  static std::unique_ptr<FaultPlan> parse(const std::string& spec);

  /// Decides the fate of one posted message.  Dead-source posts short-
  /// circuit to kDeadSource.  Kill countdowns tick on every matching post
  /// in an order-independent pre-pass; the first matching probability rule
  /// then decides alone, consuming one RNG draw.
  FaultEvent decide(const Message& m, const std::vector<std::string>& scopes);

  /// Fail-stop state.  A dead rank's posts are discarded by decide();
  /// revive() models failover onto a spare processor after a successful
  /// operation-level recovery (the fired kill rule stays spent).
  bool is_dead(int rank) const { return dead_.count(rank) != 0; }
  void revive(int rank) { dead_.erase(rank); }
  void revive_all() { dead_.clear(); }
  std::vector<int> dead_ranks() const {
    return std::vector<int>(dead_.begin(), dead_.end());
  }

  /// Bookkeeping hook for Machine's end-of-scope delayed-queue drain.
  void note_expired(std::int64_t n) { stats_.expired += n; }

  const Stats& stats() const { return stats_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultRule>& rules() const { return rules_; }

 private:
  std::uint64_t seed_;
  std::vector<FaultRule> rules_;
  std::vector<int> kill_remaining_;  ///< per-rule countdown; <= 0 = spent
  std::set<int> dead_;
  Xoshiro256 rng_;
  Stats stats_;
};

}  // namespace pup::sim
