// The PUP_* environment variables, read strictly at a process entry point.
//
// The library never reads the environment: every Machine, Runtime and
// Server is configured by its caller (sim::MachineOptions,
// Machine::set_fault_plan, Runtime::recovery(), Server::Options,
// kernels::set_path).  Env::read() is the one place the variables are
// parsed, and only a process entry point calls it -- example_quickstart
// -- once, at startup, before any thread exists (std::getenv is not
// guaranteed thread-safe).  Test binaries read no environment.
//
//   PUP_THREADS   local-phase pool size, an integer in 1..1024
//   PUP_FAULTS    a fault plan in the sim/fault.hpp grammar
//   PUP_RECOVERY  a recovery policy in the core/recovery.hpp grammar
//   PUP_SIMD      auto|on|1|simd (vector kernels) or off|0|scalar
//
// An unset or empty variable means "not configured".  Any other malformed
// value throws pup::ContractError naming the variable, so a typo in a CI
// step fails at startup instead of silently dropping its coverage.
#pragma once

#include <optional>
#include <string>

namespace pup::support {

struct Env {
  std::optional<int> threads;           ///< PUP_THREADS
  std::optional<std::string> faults;    ///< PUP_FAULTS, grammar-checked
  std::optional<std::string> recovery;  ///< PUP_RECOVERY, grammar-checked
  std::optional<bool> simd;             ///< PUP_SIMD; false = scalar kernels

  /// Reads and validates the four variables from the process environment.
  static Env read();
};

}  // namespace pup::support
