// Operation-level recovery policy.
//
// The reliable transport (coll/reliable.hpp) recovers *messages*; when a
// whole rank dies (a `kill` fault rule fired) or a loss burst exhausts the
// retry budget, the failure surfaces as a typed coll::TransportError /
// coll::RankFailure and the *operation* must be retried.  RecoveryPolicy is
// the user-facing knob for that layer: how many rollback + re-execute
// cycles plan::ResilientExecutor may attempt and how the modeled restart
// penalty grows.  It lives in core/ (not plan/) so the Runtime facade can
// own one without core depending on plan headers.
//
// Callers pass a policy explicitly (Runtime::recovery(),
// Server::Options::recovery, the ResilientExecutor constructor); the
// library never reads the environment.  Entry points that honour
// PUP_RECOVERY (support::Env::read) parse it with parse().  Syntax --
// whitespace- or comma-separated key=value fields, or the single word
// "off":
//
//   PUP_RECOVERY="restarts=3 backoff=2.0 reseed=0"
//   PUP_RECOVERY="off"
//
//   restarts=N   rollback + re-execute cycles allowed (0 = recovery off;
//                the typed error propagates to the caller)
//   backoff=F    modeled restart penalty factor: restart k charges
//                F * 2^(k-1) * tau to the executor's backoff_us meter
//                (never to the machine -- recovered digests must stay
//                bit-identical to fault-free runs)
//   reseed=0|1   0 (default): retries run fault-free, modeling failover
//                onto clean spare hardware.  1: retries reinstall the
//                original probability rules under a deterministically
//                derived seed (kill rules stay retired), modeling a retry
//                over the same flaky network.
//
// Parse failures identify the offending token and its byte offset, same
// contract as PUP_FAULTS.
#pragma once

#include <string>

namespace pup {

struct RecoveryPolicy {
  /// Rollback + re-execute cycles allowed before the typed transport error
  /// propagates to the caller.  0 disables the recovery layer entirely
  /// (ResilientExecutor::run degenerates to a plain call).
  int max_restarts = 0;
  /// Restart-penalty factor, in units of the machine's tau (see header).
  double backoff = 2.0;
  /// Reinstall reseeded probability rules on retry instead of running the
  /// retry fault-free.
  bool reseed = false;

  bool enabled() const { return max_restarts > 0; }

  /// Parses the PUP_RECOVERY grammar; throws pup::ContractError on
  /// malformed specs, naming the offending token and its byte offset.
  static RecoveryPolicy parse(const std::string& spec);
};

}  // namespace pup
