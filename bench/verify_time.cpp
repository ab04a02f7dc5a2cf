// Verify-time smoke bench: how long does proving a plan take, and how does
// it scale with the plan's size?
//
// verify_plan() runs in the serving path of debug builds (ResilientExecutor
// verifies every plan before executing it).  Compilation is cheap -- plans
// defer most work to execution -- so verification costs a multiple of
// compile time that grows with the schedule (O(rounds * posts)); what this
// bench guards is that the absolute cost stays in microseconds-to-
// milliseconds even at p=64, i.e. negligible next to one plan execution.
// For each (P, local size) configuration
// this measures wall-clock for plan compilation, static expansion, and
// verification (expansion + all four proofs), plus the schedule's size
// (blocks/rounds/posts), and reports verify time as a fraction of compile
// time.  One JSON line per configuration on stdout; exits nonzero if any
// plan fails verification (the proof is re-checked here, so the bench
// doubles as a large-size smoke the unit sweep does not reach).
#include <chrono>
#include <iostream>
#include <vector>

#include "analysis/static/expand.hpp"
#include "analysis/static/verifier.hpp"
#include "bench_common.hpp"
#include "plan/plan.hpp"

namespace pup::bench {
namespace {

namespace st = analysis::statics;

double wall_us(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int run() {
  std::cout << "# Static verification time vs plan size (CMS, split PRS, "
               "linear M2M)\n\n";
  int failures = 0;
  for (const int p : {8, 16, 32, 64}) {
    for (const dist::index_t local : {dist::index_t{4096},
                                      dist::index_t{65536}}) {
      sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1, 0.01}});
      const auto d = dist::Distribution::block_cyclic(
          dist::Shape({local * p}), dist::ProcessGrid({p}), 64);
      PackOptions opt;
      opt.scheme = PackScheme::kCompactMessage;
      opt.prs = coll::PrsAlgorithm::kSplit;
      opt.schedule = coll::M2MSchedule::kLinearPermutation;

      auto t0 = std::chrono::steady_clock::now();
      const plan::PackPlan plan =
          plan::compile_pack_plan(machine, d, sizeof(double), opt);
      const double compile_us = wall_us(t0);

      t0 = std::chrono::steady_clock::now();
      const st::ExpandedPlan expanded =
          st::expand_pack_plan(plan, machine.cost());
      const double expand_us = wall_us(t0);

      t0 = std::chrono::steady_clock::now();
      const st::VerifyReport report = st::verify_plan(plan, machine.cost());
      const double verify_us = wall_us(t0);
      if (!report.ok()) {
        std::cerr << "FAIL: " << expanded.schedule.origin << ": "
                  << report.summary() << "\n";
        ++failures;
      }

      std::cout << "{\"p\": " << p << ", \"local\": " << local
                << ", \"blocks\": " << expanded.schedule.blocks.size()
                << ", \"rounds\": " << report.rounds
                << ", \"posts\": " << report.posts
                << ", \"peak_bytes\": " << report.peak.bytes
                << ", \"compile_us\": " << compile_us
                << ", \"expand_us\": " << expand_us
                << ", \"verify_us\": " << verify_us
                << ", \"verify_over_compile\": "
                << (compile_us > 0 ? verify_us / compile_us : 0.0)
                << ", \"ok\": " << (report.ok() ? "true" : "false") << "}\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pup::bench

int main() { return pup::bench::run(); }
