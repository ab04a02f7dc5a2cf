// Execution policy for the simulated machine's local phases.
//
// A Machine runs every local phase either sequentially (one rank after the
// other, the historical default) or on a persistent thread pool that
// executes the per-rank bodies concurrently.  The policy is chosen per
// machine through MachineOptions::exec (sim/machine.hpp); the library
// never reads it from the environment.  example_quickstart, which honours
// PUP_THREADS, translates it at its entry point (support::Env::read).
//
// Threading is a pure wall-clock optimization: every *modeled* quantity
// (message payloads, tau + mu*m charges, trace digests) is identical under
// both policies -- see the "Execution model" section of DESIGN.md.
#pragma once

#include "support/check.hpp"

namespace pup::sim {

struct ExecPolicy {
  /// Number of OS threads (pool workers + the calling thread) available to
  /// local phases.  1 means sequential execution.
  int threads = 1;

  bool is_threaded() const { return threads > 1; }

  static ExecPolicy sequential() { return ExecPolicy{1}; }

  static ExecPolicy threaded(int n) {
    PUP_REQUIRE(n >= 1, "thread count must be >= 1, got " << n);
    return ExecPolicy{n};
  }
};

}  // namespace pup::sim
