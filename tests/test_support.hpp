// The startup environment and the helpers that hand it to test machines.
//
// The library never reads the environment.  The shared test main
// (test_main.cpp) reads PUP_THREADS, PUP_FAULTS, PUP_RECOVERY and PUP_SIMD
// once (support::Env::read), pins the kernel path, and keeps the rest for
// the helpers below.  That is how the ctest re-run registrations
// (*_threaded, *_faulted, *_faulted2, *_simd_off) and the CI steps that
// export these variables reach the machines under test: a test that should
// follow them builds its machine with make_machine() (or its Runtime with
// test_options(), its Server with env_threads()); a test that pins its own
// configuration constructs sim::Machine directly.
#pragma once

#include <optional>
#include <utility>

#include "core/kernels/kernels.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "support/env.hpp"

namespace pup::test {

/// The environment as the test main read it at startup.
const support::Env& startup_env();

/// Local-phase pool size from PUP_THREADS (1 when unset).
inline int env_threads() { return startup_env().threads.value_or(1); }

/// The kernel path PUP_SIMD asks for (nullopt = auto); test_main pins it,
/// and tests that pin another path restore this one.
inline std::optional<kernels::Path> startup_path() {
  if (startup_env().simd.value_or(true)) return std::nullopt;
  return kernels::Path::kScalar;
}

/// The fixed, host-independent cost model most suites use, with the
/// startup PUP_THREADS as the execution policy.
inline sim::MachineOptions test_options(
    sim::CostModel cost = sim::CostModel{10.0, 0.1}) {
  return {.cost = cost, .exec = sim::ExecPolicy::threaded(env_threads())};
}

/// A Machine carrying the startup PUP_FAULTS plan, if any.  Machine can be
/// neither copied nor moved, so make_machine returns this subclass as a
/// prvalue; bind it with `auto`.
class TestMachine : public sim::Machine {
 public:
  TestMachine(int nprocs, sim::MachineOptions options)
      : sim::Machine(nprocs, std::move(options)) {
    if (const auto& spec = startup_env().faults) {
      set_fault_plan(sim::FaultPlan::parse(*spec));
    }
  }
};

inline TestMachine make_machine(int nprocs,
                                sim::MachineOptions options = test_options()) {
  return TestMachine(nprocs, std::move(options));
}

}  // namespace pup::test
