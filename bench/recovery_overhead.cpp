// Operation-level recovery overhead on the Figure-4 pack workload (P=16).
//
// Proves the contract the recovery layer (plan/resilient.hpp) is built
// around: with no faults injected, wrapping execution in a
// ResilientExecutor adds *zero* modeled cost -- zero restarts, zero
// rollbacks, the same message count (and therefore the same number of tau
// startups), bit-identical determinism digest.  The entry checkpoint is
// bookkeeping on the side; nothing is charged to the machine.
//
// The same workload is then run under fail-stop kills and loss bursts
// severe enough to defeat the reliable transport's retry budget, so every
// faulted configuration forces at least one rollback + re-execution.  For
// each, the bench reports the recovered run's surviving modeled time
// (which must equal the clean run's -- recovery restores the fault-free
// digest) plus the *wasted* modeled time of aborted attempts and the
// modeled restart backoff, i.e. the true price of recovery.  One JSON
// line per configuration is emitted on stdout for machine consumption.
//
// Exits non-zero if the zero-fault resilient run diverges from the direct
// baseline in any modeled quantity, if it restarts, or if any recovered
// run miscomputes the packed vector or fails to restore the fault-free
// digest.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "bench_common.hpp"
#include "coll/reliable.hpp"
#include "plan/resilient.hpp"
#include "sim/fault.hpp"

namespace pup::bench {
namespace {

constexpr int kProcs = 16;
constexpr dist::index_t kLocal = 16384;

struct Config {
  const char* label;
  const char* spec;  ///< PUP_FAULTS grammar; nullptr = no injection
  bool resilient;    ///< wrap execution in a ResilientExecutor
};

struct RunStats {
  analysis::TraceDigest digest;
  plan::RecoveryStats recovery;
  std::vector<Element> packed;
  double charged_us = 0.0;
  std::int64_t rollbacks = 0;
};

RunStats run_config(const Workload& wl, const Config& c) {
  sim::Machine m(kProcs);
  m.set_fault_plan(c.spec == nullptr ? nullptr
                                     : sim::FaultPlan::parse(c.spec));
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  const plan::PackPlan plan =
      plan::compile_pack_plan(m, wl.dist, sizeof(Element), opt);
  if (c.spec != nullptr) {
    // Shrink the retry budget so loss bursts defeat the reliable layer and
    // escalate to the recovery layer instead of being absorbed silently.
    coll::ReliableTransport::of(m).options().max_attempts = 3;
  }

  analysis::DigestRecorder recorder(m);
  RunStats out;
  if (c.resilient) {
    RecoveryPolicy pol;
    pol.max_restarts = 4;
    plan::ResilientExecutor exec(m, pol);
    out.packed = exec.pack(plan, wl.array, wl.mask).vector.gather();
    out.recovery = exec.stats();
  } else {
    out.packed = plan::pack_with_plan(m, plan, wl.array, wl.mask)
                     .vector.gather();
  }
  out.digest = recorder.digest();
  out.rollbacks = m.epochs_rolled_back();
  for (const auto& per_rank : out.digest.charged_us) {
    for (const double us : per_rank) out.charged_us += us;
  }
  return out;
}

int run() {
  const Workload wl =
      make_workload({kLocal * kProcs}, {kProcs}, {1024}, {0.5, false});

  const std::vector<Config> configs = {
      {"direct-clean", nullptr, false},
      {"resilient-clean", nullptr, true},
      {"kill-mid-prs", "kill=5 after=9 phase=prs", true},
      {"loss-burst", "seed=1234 drop=1.0 phase=prs", true},
      {"kill+loss",
       "kill=5 after=9 phase=prs | seed=1234 drop=0.3 phase=prs", true},
  };

  std::cout << "# Recovery overhead: Figure-4 pack workload, P=" << kProcs
            << ", L=" << kLocal << "/rank, CMS scheme\n\n";

  TextTable table("Modeled cost vs failure severity (charges in ms)");
  table.header({"config", "msgs", "attempts", "restarts", "rollbacks",
                "charged_ms", "wasted_ms", "backoff_ms"});

  const RunStats base = run_config(wl, configs[0]);
  bool ok = true;
  std::ostringstream json;
  for (const Config& c : configs) {
    const RunStats r =
        (c.label == configs[0].label) ? base : run_config(wl, c);
    if (r.packed != base.packed) {
      std::cerr << "FATAL: config " << c.label
                << " miscomputed the packed vector\n";
      ok = false;
    }
    // Recovery's headline: the run that *survives* is the fault-free run.
    const std::string diff = analysis::diff_digests(r.digest, base.digest);
    if (!diff.empty()) {
      std::cerr << "FATAL: config " << c.label
                << " failed to restore the fault-free digest: " << diff
                << "\n";
      ok = false;
    }
    table.row({c.label, std::to_string(r.digest.messages),
               std::to_string(r.recovery.attempts),
               std::to_string(r.recovery.restarts),
               std::to_string(r.rollbacks),
               std::to_string(r.charged_us / 1000.0),
               std::to_string(r.recovery.wasted_us / 1000.0),
               std::to_string(r.recovery.backoff_us / 1000.0)});
    json << "{\"bench\":\"recovery_overhead\",\"config\":\"" << c.label
         << "\",\"p\":" << kProcs << ",\"local\":" << kLocal
         << ",\"messages\":" << r.digest.messages
         << ",\"attempts\":" << r.recovery.attempts
         << ",\"restarts\":" << r.recovery.restarts
         << ",\"rollbacks\":" << r.rollbacks
         << ",\"charged_us\":" << r.charged_us
         << ",\"wasted_us\":" << r.recovery.wasted_us
         << ",\"backoff_us\":" << r.recovery.backoff_us << "}\n";
  }
  table.print(std::cout);
  std::cout << "\n" << json.str();

  // The headline claim: arming recovery costs nothing when nothing fails.
  const RunStats clean = run_config(wl, configs[1]);
  if (clean.digest.messages != base.digest.messages ||
      clean.recovery.restarts != 0 || clean.rollbacks != 0 ||
      clean.recovery.wasted_us != 0.0 || clean.recovery.backoff_us != 0.0) {
    std::cerr << "FATAL: zero-fault resilient run added modeled startups, "
                 "restarts, or rollbacks\n";
    ok = false;
  }
  // Every faulted configuration must actually have exercised recovery.
  for (std::size_t i = 2; i < configs.size(); ++i) {
    const RunStats r = run_config(wl, configs[i]);
    if (r.recovery.restarts < 1) {
      std::cerr << "FATAL: config " << configs[i].label
                << " never restarted; the schedule is too benign to "
                   "measure recovery\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pup::bench

int main() { return pup::bench::run(); }
