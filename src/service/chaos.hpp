// Seeded chaos-soak harness for the service layer.
//
// One soak = one seed.  From the seed the harness derives, deterministically:
//
//   * a workload: a mixed pack/unpack trace over three tenants with
//     distinct priority classes and two registered arrays each,
//   * a fault schedule: a random mixed PUP_FAULTS-style plan
//     (drop/dup/delay/trunc probabilities, sometimes a fail-stop kill),
//   * a deadline assignment: a random subset of requests carries either a
//     sure-to-miss or a never-missed deadline, and
//   * a cancellation schedule: a random subset of submissions is
//     cancelled from a client thread mid-run.
//
// The soak then runs the trace twice with the requested local-phase pool
// size: once on a pristine reference server (no faults, no deadlines, no
// cancels -- every response must be kOk) and once on a chaos server with
// recovery, cancellation, watchdog, brown-out, and (for some seeds)
// overload shedding armed.  It asserts the robustness contract end to end:
//
//   1. every future resolves, typed, within the wall-clock bound (a
//      timeout is reported as a hang, never waited out),
//   2. every kOk response's digest and selected count are bit-identical
//      to the fault-free reference for the same request,
//   3. the accounting balances exactly: admitted == completed + failed +
//      shed + cancelled + deadline_misses + watchdog_trips, submitted ==
//      admitted + rejected, and bytes_in_flight unwinds to zero, and
//   4. the server survives to a clean shutdown.
//
// tests/chaos_soak_test.cpp sweeps seeds x fault schedules x pool sizes
// (ctest -R chaos_soak); tools/chaos_soak drives arbitrary seed ranges from the
// command line for long soaks.
#pragma once

#include <cstdint>
#include <string>

namespace pup::service::chaos {

struct SoakConfig {
  std::uint64_t seed = 1;
  int threads = 1;  ///< Server::Options::threads (1 = sequential)
  int nprocs = 4;
  int requests = 16;
  std::int64_t elements = 1024;  ///< global array size
  /// Install the seed-derived fault plan on the chaos server (off = soak
  /// only deadlines/cancels/overload on a clean network).
  bool faults = true;
  /// Per-future resolution bound in seconds; exceeding it is a hang.
  double wall_bound_s = 120.0;
};

struct SoakResult {
  bool ok = false;
  std::string error;  ///< first violated assertion (empty when ok)
  std::string fault_spec;  ///< the derived fault plan ("" when disabled)
  // Chaos-run outcome census (reference-run responses are all kOk).
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t cancelled = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t watchdog_trips = 0;
  std::int64_t restarts = 0;  ///< recovery restarts taken by the chaos run
};

/// Runs one seeded soak; never throws for contract violations (they come
/// back as result.ok == false with the first error), only for harness
/// misuse (a non-positive thread count and the like).
SoakResult run_soak(const SoakConfig& cfg);

}  // namespace pup::service::chaos
