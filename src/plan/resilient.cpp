#include "plan/resilient.hpp"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace pup::plan {

void ResilientExecutor::on_cancel(const sim::EpochCheckpoint& cp,
                                  double entry_us) {
  ++stats_.cancels;
  stats_.cancelled_us += machine_.modeled_total_us() - entry_us;
  machine_.rollback_epoch(cp);
  // A cancel can strike mid-retry, while the machine runs fault-free (or
  // reseeded) and the original plan is parked; put the original back with
  // its RNG stream intact.  Dead ranks stay dead -- cancellation is not
  // recovery, so nothing is revived.
  if (held_plan_ != nullptr) machine_.set_fault_plan(std::move(held_plan_));
  machine_.annotate_event("plan.cancel.rollback");
}

void ResilientExecutor::on_success() {
  if (held_plan_ == nullptr) return;
  // The retry ran on spare hardware: every fail-stop rank comes back
  // (fired kill rules stay spent, so the spare is not re-killed), and the
  // original plan -- RNG stream intact -- resumes for later operations.
  held_plan_->revive_all();
  machine_.set_fault_plan(std::move(held_plan_));
}

bool ResilientExecutor::on_failure(const coll::TransportError& e,
                                   const sim::EpochCheckpoint& cp,
                                   double entry_us) {
  if (dynamic_cast<const coll::RankFailure*>(&e) != nullptr) {
    ++stats_.rank_failures;
  } else {
    ++stats_.transport_errors;
  }
  // Meter the modeled time the aborted attempt charged before it is rolled
  // away.  Recovery cost lives here, never on the machine: the recovered
  // run's digest must match a fault-free run bit for bit.
  stats_.wasted_us += machine_.modeled_total_us() - entry_us;
  machine_.rollback_epoch(cp);
  // First failure parks the machine's original plan; later failures only
  // discard whatever retry plan was installed for the aborted attempt.
  std::unique_ptr<sim::FaultPlan> installed = machine_.take_fault_plan();
  if (held_plan_ == nullptr) held_plan_ = std::move(installed);
  if (stats_.restarts >= policy_.max_restarts) {
    // Budget spent: leave the machine rolled back and consistent, put the
    // original plan back (dead ranks stay dead -- recovery gave up on
    // them), and let the typed error propagate to the caller.
    if (held_plan_ != nullptr) machine_.set_fault_plan(std::move(held_plan_));
    return false;
  }
  ++stats_.restarts;
  stats_.backoff_us +=
      machine_.cost().tau_us * policy_.backoff *
      std::pow(2.0, static_cast<double>(stats_.restarts - 1));
  // The retry's fault environment: fault-free by default (failover onto
  // clean spares); under reseed, the original probability rules return
  // with a deterministically derived seed while kill rules stay retired
  // (re-killing the replacement rank would make recovery divergent).
  std::unique_ptr<sim::FaultPlan> retry;
  if (policy_.reseed && held_plan_ != nullptr) {
    std::vector<sim::FaultRule> rules;
    for (const sim::FaultRule& r : held_plan_->rules()) {
      if (!r.is_kill()) rules.push_back(r);
    }
    if (!rules.empty()) {
      const std::uint64_t seed =
          held_plan_->seed() ^
          (0x9e3779b97f4a7c15ULL *
           static_cast<std::uint64_t>(stats_.restarts));
      retry = std::make_unique<sim::FaultPlan>(seed, std::move(rules));
    }
  }
  machine_.set_fault_plan(std::move(retry));
  return true;
}

}  // namespace pup::plan
