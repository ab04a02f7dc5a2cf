// chaos_soak -- command-line driver for the seeded service chaos harness.
//
//   chaos_soak [--seeds N] [--start S] [--threads T] [--requests R]
//              [--procs P] [--elements E] [--no-faults] [--wall SECONDS]
//
// Runs N consecutive seeds through service::chaos::run_soak with a
// T-thread local-phase pool (default 1: sequential), printing one census
// line per soak and a final summary.
// Exits non-zero on the first contract violation (hang, divergent digest,
// unbalanced accounting), making it usable as a long-soak CI job or a
// bisection driver: `chaos_soak --start 4211 --seeds 1` replays exactly
// the failing combination a sweep reported.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/chaos.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: chaos_soak [--seeds N] [--start S] [--threads T] "
      "[--requests R]\n                  [--procs P] [--elements E] "
      "[--no-faults] [--wall SECONDS]\n");
  std::exit(2);
}

long long parse_ll(const char* flag, const char* value) {
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || v < 0) {
    std::fprintf(stderr, "chaos_soak: bad value for %s: %s\n", flag, value);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 16;
  std::uint64_t start = 1;
  pup::service::chaos::SoakConfig base;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--no-faults") {
      base.faults = false;
    } else if (value == nullptr) {
      usage();
    } else if (arg == "--seeds") {
      seeds = static_cast<std::uint64_t>(parse_ll("--seeds", value));
      ++i;
    } else if (arg == "--start") {
      start = static_cast<std::uint64_t>(parse_ll("--start", value));
      ++i;
    } else if (arg == "--threads") {
      base.threads = static_cast<int>(parse_ll("--threads", value));
      if (base.threads < 1) usage();
      ++i;
    } else if (arg == "--requests") {
      base.requests = static_cast<int>(parse_ll("--requests", value));
      ++i;
    } else if (arg == "--procs") {
      base.nprocs = static_cast<int>(parse_ll("--procs", value));
      ++i;
    } else if (arg == "--elements") {
      base.elements = parse_ll("--elements", value);
      ++i;
    } else if (arg == "--wall") {
      base.wall_bound_s = static_cast<double>(parse_ll("--wall", value));
      ++i;
    } else {
      usage();
    }
  }

  pup::service::chaos::SoakResult total;
  std::uint64_t ran = 0;
  for (std::uint64_t seed = start; seed < start + seeds; ++seed) {
    pup::service::chaos::SoakConfig cfg = base;
    cfg.seed = seed;
    const auto r = pup::service::chaos::run_soak(cfg);
    if (!r.ok) {
      std::fprintf(stderr, "FAIL seed=%llu threads=%d faults=[%s]: %s\n",
                   static_cast<unsigned long long>(seed), cfg.threads,
                   r.fault_spec.c_str(), r.error.c_str());
      return 1;
    }
    std::printf(
        "ok seed=%llu threads=%d completed=%lld failed=%lld shed=%lld "
        "cancelled=%lld deadline=%lld watchdog=%lld restarts=%lld "
        "faults=[%s]\n",
        static_cast<unsigned long long>(seed), cfg.threads,
        static_cast<long long>(r.completed),
        static_cast<long long>(r.failed), static_cast<long long>(r.shed),
        static_cast<long long>(r.cancelled),
        static_cast<long long>(r.deadline_misses),
        static_cast<long long>(r.watchdog_trips),
        static_cast<long long>(r.restarts), r.fault_spec.c_str());
    total.completed += r.completed;
    total.failed += r.failed;
    total.shed += r.shed;
    total.cancelled += r.cancelled;
    total.deadline_misses += r.deadline_misses;
    total.watchdog_trips += r.watchdog_trips;
    total.restarts += r.restarts;
    ++ran;
  }
  std::printf(
      "summary soaks=%llu completed=%lld failed=%lld shed=%lld "
      "cancelled=%lld deadline=%lld watchdog=%lld restarts=%lld\n",
      static_cast<unsigned long long>(ran),
      static_cast<long long>(total.completed),
      static_cast<long long>(total.failed),
      static_cast<long long>(total.shed),
      static_cast<long long>(total.cancelled),
      static_cast<long long>(total.deadline_misses),
      static_cast<long long>(total.watchdog_trips),
      static_cast<long long>(total.restarts));
  return 0;
}
