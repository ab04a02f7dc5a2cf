// Machine helpers the suites share.
//
// Every test configures its machines in process: the library never reads
// the environment, and neither do the tests.  A suite that covers more
// than one configuration says so with an explicit parameter (a thread
// count, a fault plan, a kernel path); the seeded draw in
// fuzz_oracle_test.cpp covers the configuration space as a whole.
#pragma once

#include <utility>

#include "sim/machine.hpp"

namespace pup::test {

/// The fixed, host-independent cost model most suites use, with
/// sequential local phases.
inline sim::MachineOptions test_options(
    sim::CostModel cost = sim::CostModel{10.0, 0.1}) {
  return {.cost = cost};
}

/// Machine can be neither copied nor moved; the prvalue return is a
/// guaranteed copy elision, so bind the result with `auto`.
inline sim::Machine make_machine(int nprocs,
                                 sim::MachineOptions options = test_options()) {
  return sim::Machine(nprocs, std::move(options));
}

}  // namespace pup::test
