// Threaded-execution scaling on the Figure-4 pack workload (1-D, P=32).
//
// Runs the same PACK calls on two machines -- one sequential, one with the
// thread pool (PUP_THREADS when above 1, else 4 threads) -- and reports
// end-to-end wall-clock time, speedup, and whether the determinism digests
// of the two runs match (they must: threading may only change wall-clock
// time, never any modeled quantity).  Alongside the text table, one JSON
// line per configuration is emitted on stdout for machine consumption.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "analysis/determinism.hpp"
#include "bench_common.hpp"
#include "sim/exec_policy.hpp"
#include "support/env.hpp"

namespace pup::bench {
namespace {

constexpr int kProcs = 32;
constexpr dist::index_t kLocal = 65536;  // Figure-4 scale: 2M elements total

struct Config {
  Density density;
  dist::index_t block;
};

/// One full pack of the workload; both policies run exactly this.
void run_pack(sim::Machine& machine, const Workload& wl) {
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  (void)pack(machine, wl.array, wl.mask, opt);
}

double wall_ms(sim::Machine& machine, const Workload& wl, int reps) {
  double best = -1.0;
  for (int i = 0; i < reps; ++i) {
    machine.reset_accounting();
    const auto start = std::chrono::steady_clock::now();
    run_pack(machine, wl);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

analysis::TraceDigest digest_of(sim::Machine& machine, const Workload& wl) {
  machine.reset_accounting();
  analysis::DigestRecorder recorder(machine);
  run_pack(machine, wl);
  return recorder.digest();
}

int run(int threads) {
  const unsigned hw = std::thread::hardware_concurrency();

  std::cout << "# Threading scaling: Figure-4 pack workload, P=" << kProcs
            << ", L=" << kLocal << "/rank, CMS scheme\n"
            << "# host cores: " << hw << ", threaded policy: " << threads
            << " threads\n";
  if (hw > 0 && hw < static_cast<unsigned>(threads)) {
    std::cout << "# WARNING: fewer host cores than pool threads; speedup "
                 "will not reflect a multi-core host\n";
  }
  std::cout << "\n";

  const std::vector<Config> configs = {
      {{0.3, false}, 1024}, {{0.5, false}, 1024}, {{0.9, false}, 4096}};

  TextTable table("Sequential vs threaded wall-clock (ms, best of reps)");
  table.header({"density", "W0", "seq_ms", "par_ms", "speedup", "digests"});

  bool all_match = true;
  std::ostringstream json;
  for (const Config& c : configs) {
    Workload wl = make_workload({kLocal * kProcs}, {kProcs}, {c.block},
                                c.density);
    sim::Machine seq(kProcs);
    sim::Machine par(kProcs, {.exec = sim::ExecPolicy::threaded(threads)});

    // Digest cross-check first (also warms both machines' allocations).
    const auto dseq = digest_of(seq, wl);
    const auto dpar = digest_of(par, wl);
    const bool match = dseq == dpar;
    all_match = all_match && match;

    const int reps = 5;
    const double seq_ms = wall_ms(seq, wl, reps);
    const double par_ms = wall_ms(par, wl, reps);
    const double speedup = par_ms > 0 ? seq_ms / par_ms : 0.0;

    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", speedup);
    table.row({c.density.label(), std::to_string(c.block),
               std::to_string(seq_ms), std::to_string(par_ms),
               std::string(buf), match ? "match" : "MISMATCH"});

    json << "{\"bench\":\"threading_scaling\",\"p\":" << kProcs
         << ",\"local\":" << kLocal << ",\"density\":" << c.density.value
         << ",\"w0\":" << c.block << ",\"threads\":" << threads
         << ",\"host_cores\":" << hw << ",\"seq_ms\":" << seq_ms
         << ",\"par_ms\":" << par_ms << ",\"speedup\":" << speedup
         << ",\"digests_match\":" << (match ? "true" : "false") << "}\n";
  }
  table.print(std::cout);
  std::cout << "\n" << json.str();

  if (!all_match) {
    std::cerr << "FATAL: threaded digests diverged from sequential\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pup::bench

int main() {
  const auto threads = pup::support::Env::read().threads;
  return pup::bench::run(threads.value_or(1) > 1 ? *threads : 4);
}
