// Read-once snapshot of the PUP_* environment configuration.
//
// The library is configured through a handful of environment variables
// (PUP_THREADS, PUP_FAULTS, PUP_RELIABLE, PUP_RECOVERY, PUP_SIMD).
// std::getenv is not guaranteed thread-safe, and machines are constructed
// while other threads are live (a second Server next to a running one, the
// local-phase pool workers of an earlier machine), so a per-call read would
// race any concurrent setenv.
//
// Env::get() captures every variable exactly once, on first use, under the
// thread-safe magic-static guard; afterwards the snapshot is immutable and
// every consumer reads plain value members.  The process environment itself
// is never touched again, so no consumer needs a concurrency waiver.
//
// Env::refresh() re-captures the snapshot for tests that mutate the
// environment mid-process (ScopedEnv helpers around setenv/unsetenv).  It
// is NOT thread-safe: call it only while no machine or server is live --
// exactly the discipline the test helpers already follow.
#pragma once

#include <optional>
#include <string>

namespace pup::support {

struct Env {
  std::optional<std::string> threads;   ///< PUP_THREADS
  std::optional<std::string> faults;    ///< PUP_FAULTS
  std::optional<std::string> reliable;  ///< PUP_RELIABLE
  std::optional<std::string> recovery;  ///< PUP_RECOVERY
  std::optional<std::string> simd;      ///< PUP_SIMD

  /// The process-wide snapshot, captured on first call (thread-safe).
  static const Env& get();

  /// Re-captures the snapshot from the current environment.  Test-only:
  /// must not race any concurrent Env::get() reader, so call it only from
  /// a single-threaded section with no live machines or servers.
  static void refresh();

  /// Overrides one variable of the snapshot *in place*, without touching
  /// the process environment -- the programmatic alternative to
  /// setenv + refresh() for embedded servers and tests (process-env
  /// mutation is exactly what the snapshot exists to avoid).  `name` is
  /// the environment-variable spelling ("PUP_THREADS", "PUP_FAULTS",
  /// "PUP_RELIABLE", "PUP_RECOVERY", "PUP_SIMD"); anything else throws
  /// ContractError.  nullopt models an unset variable.  Same thread-safety
  /// contract as refresh(); a later refresh() discards the override.
  /// Components that take explicit configuration (e.g.
  /// service::Server::Options) should prefer constructor injection --
  /// this hook steers only the consumers that read the snapshot.
  static void override_for_testing(const std::string& name,
                                   std::optional<std::string> value);
};

}  // namespace pup::support
