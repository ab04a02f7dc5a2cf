// Quickstart: PACK and UNPACK on a 1-D block-cyclic array.
//
// Builds a 16-processor simulated machine, distributes a 64-element array
// block-cyclically (W = 2), packs the elements selected by a mask into a
// block-distributed vector, and unpacks them back.  Execution goes through
// compiled plans wrapped in a ResilientExecutor, so the same binary also
// demonstrates operation-level recovery:
//
//   $ ./example_quickstart
//   $ export PUP_FAULTS="kill=2 after=9 phase=prs" PUP_RECOVERY=restarts=3
//   $ ./example_quickstart       # recovers instead of terminating
//
// With recovery off (the default), faults the reliable transport cannot
// absorb terminate the run with a typed error; with PUP_RECOVERY set, the
// executor rolls back to the operation-entry checkpoint and re-executes,
// and the recovery cost shows up in its stats instead of the answer.
// PUP_THREADS and PUP_SIMD are honoured too.  The library itself never
// reads the environment: main() reads it once (support/env.hpp) and hands
// every setting to the machine explicitly.  A malformed value exits 2.
#include <iostream>
#include <numeric>

#include "core/api.hpp"
#include "plan/resilient.hpp"
#include "sim/fault.hpp"
#include "support/env.hpp"

int main() {
  using namespace pup;

  support::Env env;
  try {
    env = support::Env::read();
  } catch (const ContractError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (!env.simd.value_or(true)) kernels::set_path(kernels::Path::kScalar);

  // A simulated coarse-grained machine with 16 processors (two-level cost
  // model: tau + mu*m per message, CM-5 constants by default).
  sim::MachineOptions options;
  if (env.threads) options.exec = sim::ExecPolicy::threaded(*env.threads);
  sim::Machine machine(16, options);
  if (env.faults) machine.set_fault_plan(sim::FaultPlan::parse(*env.faults));

  // A(64) distributed block-cyclic(2) over 16 logical processors.
  auto layout = dist::Distribution::block_cyclic(
      dist::Shape({64}), dist::ProcessGrid({16}), 2);

  std::vector<double> host(64);
  std::iota(host.begin(), host.end(), 0.0);
  auto a = dist::DistArray<double>::scatter(layout, host);

  // Mask: keep elements whose value is divisible by 3.
  std::vector<mask_t> host_mask(64);
  for (std::size_t i = 0; i < 64; ++i) host_mask[i] = (i % 3 == 0);
  auto m = dist::DistArray<mask_t>::scatter(layout, host_mask);

  // With the default (disabled) policy the executor runs each operation
  // directly and adds nothing.
  plan::ResilientExecutor exec(machine,
                               env.recovery
                                   ? RecoveryPolicy::parse(*env.recovery)
                                   : RecoveryPolicy{});

  // V = PACK(A, M).  The scheme defaults to the compact message scheme;
  // PackScheme::kAuto applies the paper's analytical selector instead.
  auto pack_plan = plan::compile_pack_plan(machine, layout, sizeof(double));
  auto packed = exec.pack(pack_plan, a, m);
  std::cout << "PACK selected " << packed.size << " of 64 elements:\n  ";
  for (double v : packed.vector.gather()) std::cout << v << ' ';
  std::cout << "\n";

  // A2 = UNPACK(V, M, F) with F = -1 everywhere: scatters the packed
  // values back to their original positions.
  std::vector<double> field(64, -1.0);
  auto f = dist::DistArray<double>::scatter(layout, field);
  auto unpack_plan = plan::compile_unpack_plan(
      machine, layout, packed.vector.dist(), sizeof(double));
  auto restored = exec.unpack(unpack_plan, packed.vector, m, f);
  std::cout << "UNPACK round trip (first 12): ";
  const auto back = restored.result.gather();
  for (int i = 0; i < 12; ++i) std::cout << back[static_cast<std::size_t>(i)] << ' ';
  std::cout << "\n";

  // Per-category time accounting, the way the paper reports it.
  std::cout << "busiest processor: local "
            << machine.max_us(sim::Category::kLocal) << " us, PRS "
            << machine.max_us(sim::Category::kPrs) << " us, many-to-many "
            << machine.max_us(sim::Category::kM2M) << " us\n";
  if (exec.stats().restarts > 0) {
    std::cout << "recovery: " << exec.stats().attempts << " attempts, "
              << exec.stats().restarts << " restarts, wasted "
              << exec.stats().wasted_us << " us (+"
              << exec.stats().backoff_us << " us backoff)\n";
  }
  return 0;
}
