// Operation-level recovery: rollback + re-execute around plan execution.
//
// The reliable transport (coll/reliable.hpp) recovers individual messages;
// two failure classes are beyond it and surface as typed exceptions:
//
//   * coll::RankFailure  -- a fail-stop `kill` fault fired and a surviving
//     rank's heartbeat detected the death, and
//   * coll::TransportError -- a loss burst exhausted the bounded retry
//     budget.
//
// ResilientExecutor turns either into a rollback + re-execution.  Before
// the operation it captures an epoch checkpoint (sim/epoch.hpp) of the
// machine's complete modeled state.  When the operation throws a transport
// failure, the executor rolls the machine back to that checkpoint -- bit
// for bit, including trace and modeled charges -- removes the fault plan
// (modeling failover onto clean spare hardware; RecoveryPolicy::reseed
// instead reinstalls the probability rules under a derived seed), and runs
// the operation again, up to RecoveryPolicy::max_restarts times.  On
// success the original plan returns to the machine with every fail-stop
// rank revived (fired kill rules stay spent, so the spare is not re-killed
// by the same rule).
//
// Determinism contract: because the rollback restores *everything* the
// determinism digest covers, a recovered run's result and trace digest are
// bit-identical to a fault-free run of the same operation.  The cost of
// recovery is therefore deliberately kept out of the machine's meters and
// reported through RecoveryStats instead: wasted_us is the modeled time the
// aborted attempts charged before being rolled away, backoff_us the modeled
// restart penalty (backoff * 2^(k-1) * tau for restart k).  With recovery
// disabled (max_restarts == 0, the default) run() degenerates to a plain
// call and the typed error propagates -- deterministically from the lowest
// surviving group position (see coll/reliable.hpp).
#pragma once

#include <memory>
#include <span>
#include <vector>

#ifndef NDEBUG
#include "analysis/static/verifier.hpp"
#endif
#include "coll/reliable.hpp"
#include "core/recovery.hpp"
#include "core/runtime.hpp"
#include "plan/executor.hpp"
#include "sim/epoch.hpp"
#include "sim/fault.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"

namespace pup::plan {

/// What recovery cost, kept out of the machine's meters so recovered
/// digests stay bit-identical to fault-free runs (see the header comment).
struct RecoveryStats {
  int attempts = 0;          ///< operation executions (successful or not)
  int restarts = 0;          ///< rollback + re-execute cycles taken
  int rank_failures = 0;     ///< RankFailure caught (fail-stop deaths)
  int transport_errors = 0;  ///< other TransportError caught (loss bursts)
  int cancels = 0;           ///< CancelError rollbacks (not retried)
  double wasted_us = 0.0;    ///< modeled time rolled away with aborted runs
  double backoff_us = 0.0;   ///< modeled restart penalty (policy.backoff)
  double cancelled_us = 0.0;  ///< modeled time rolled away with cancels
};

class ResilientExecutor {
 public:
  ResilientExecutor(sim::Machine& machine, RecoveryPolicy policy)
      : machine_(machine), policy_(policy) {}

  /// Wraps a Runtime's machine under its recovery() policy.
  explicit ResilientExecutor(Runtime& rt)
      : ResilientExecutor(rt.machine(), rt.recovery()) {}

  const RecoveryPolicy& policy() const { return policy_; }
  const RecoveryStats& stats() const { return stats_; }

  /// Arms (nullptr: disarms) cooperative cancellation for subsequent
  /// run() calls.  The token is installed on the machine for the duration
  /// of each operation, whose round boundaries poll it; a trip raises
  /// sim::CancelError, which run() turns into a rollback to the entry
  /// checkpoint before rethrowing -- a cancelled operation leaves the
  /// machine exactly as it found it, never mid-collective.  The token must
  /// outlive the run; the caller may request_cancel() it from any thread.
  void set_cancel_token(const sim::CancelToken* token) {
    cancel_token_ = token;
  }

  /// Runs `op` under the recovery policy.  `op` must be an operation-shaped
  /// unit: it starts and ends with empty mailboxes (every plan executor and
  /// collective does), so the entry checkpoint is a consistent cut.  With
  /// the policy disabled and no cancel token armed this is a plain call
  /// (the zero-overhead path).  Rethrows the operation's transport error
  /// once the restart budget is spent, with the machine rolled back to the
  /// entry checkpoint and the fault plan reinstalled; rethrows CancelError
  /// immediately (cancelled work is never retried), also rolled back.
  template <typename F>
  auto run(F&& op) {
    if (!policy_.enabled() && cancel_token_ == nullptr) {
      ++stats_.attempts;
      return op();
    }
    // A checkpoint is taken even when only cancellation is armed: a trip
    // mid-operation must be able to roll back, or the machine would be
    // left with in-flight state no later request could run on.
    const auto cp = machine_.checkpoint_epoch();
    const double entry_us = machine_.modeled_total_us();
    machine_.set_cancel_token(cancel_token_);
    for (;;) {
      ++stats_.attempts;
      try {
        auto result = op();
        machine_.set_cancel_token(nullptr);
        on_success();
        return result;
      } catch (const sim::CancelError&) {
        // The poll site already removed the token from the machine.
        on_cancel(*cp, entry_us);
        throw;
      } catch (const coll::TransportError& e) {
        if (!on_failure(e, *cp, entry_us)) {
          machine_.set_cancel_token(nullptr);
          throw;
        }
      } catch (...) {
        // Non-transport failures (contract violations) are not retried and
        // must not leave a dangling token on the machine.
        machine_.set_cancel_token(nullptr);
        throw;
      }
    }
  }

  /// PACK one request with a compiled plan, recovering per the policy.
  template <typename T>
  PackResult<T> pack(const PackPlan& plan, const dist::DistArray<T>& array,
                     const dist::DistArray<mask_t>& mask) {
    verify_debug(plan, 1);
    return run(
        [&] { return pack_with_plan<T>(machine_, plan, array, mask); });
  }

  /// Batched PACK (fused PRS rounds), recovering per the policy.  The whole
  /// batch is one operation: a failure in any request rolls back and
  /// re-executes every request, keeping the fused ranking consistent.  The
  /// requests are borrowed, not copied.
  template <typename T>
  std::vector<PackResult<T>> pack_batch(
      const PackPlan& plan,
      std::span<const dist::DistArray<mask_t>* const> masks,
      std::span<const dist::DistArray<T>* const> arrays) {
    verify_debug(plan, masks.size());
    return run([&] {
      return ::pup::plan::pack_batch<T>(machine_, plan, masks, arrays);
    });
  }

  /// UNPACK one request with a compiled plan, recovering per the policy.
  template <typename T>
  UnpackResult<T> unpack(const UnpackPlan& plan, const dist::DistArray<T>& v,
                         const dist::DistArray<mask_t>& mask,
                         const dist::DistArray<T>& field) {
    verify_debug(plan);
    return run([&] {
      return unpack_with_plan<T>(machine_, plan, v, mask, field);
    });
  }

 private:
  /// Debug builds statically verify every plan before executing it:
  /// rollback + re-execution assumes operation-shaped schedules (balanced
  /// sends/receives, deadlock-free rounds, conformant charges), and a plan
  /// violating that contract would corrupt the epoch checkpoint's
  /// consistent-cut property rather than fail loudly.  Release builds skip
  /// the proof; the plan compiler's own tests cover it.
#ifndef NDEBUG
  void verify_debug(const PackPlan& plan, std::size_t batch) {
    sim::PhaseScope phase(machine_, "plan.verify");
    analysis::statics::require_verified(
        analysis::statics::verify_plan(plan, machine_.cost(), batch),
        "resilient pack plan");
  }
  void verify_debug(const UnpackPlan& plan) {
    sim::PhaseScope phase(machine_, "plan.verify");
    analysis::statics::require_verified(
        analysis::statics::verify_plan(plan, machine_.cost()),
        "resilient unpack plan");
  }
#else
  void verify_debug(const PackPlan&, std::size_t) {}
  void verify_debug(const UnpackPlan&) {}
#endif

  /// Failure path of run(): classify, meter, roll back, swap the fault
  /// plan for the retry.  Returns false when the restart budget is spent
  /// (caller rethrows).
  bool on_failure(const coll::TransportError& e,
                  const sim::EpochCheckpoint& cp, double entry_us);
  /// Success path of run(): revive fail-stop ranks and reinstall the
  /// original fault plan held across the retries.
  void on_success();
  /// Cancellation path of run(): meter the discarded modeled time, roll
  /// back to the entry checkpoint, and reinstall a fault plan parked by an
  /// earlier retry (caller rethrows the CancelError).
  void on_cancel(const sim::EpochCheckpoint& cp, double entry_us);

  sim::Machine& machine_;
  RecoveryPolicy policy_;
  RecoveryStats stats_;
  const sim::CancelToken* cancel_token_ = nullptr;
  /// The machine's original fault plan, held while retries run fault-free
  /// (or reseeded) and reinstalled afterwards with its RNG stream intact.
  std::unique_ptr<sim::FaultPlan> held_plan_;
};

}  // namespace pup::plan
