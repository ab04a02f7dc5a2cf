#include "support/env.hpp"

#include <charconv>
#include <cstdlib>
#include <system_error>

#include "core/recovery.hpp"
#include "sim/fault.hpp"
#include "support/check.hpp"

namespace pup::support {
namespace {

std::optional<std::string> read_var(const char* name) {
  // The library's sole std::getenv call site; Env::read() runs once at a
  // process entry point, before any thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

int parse_threads(const std::string& v) {
  constexpr int kMaxThreads = 1024;  // sanity cap, not a tuning knob
  int n = 0;
  const char* end = v.data() + v.size();
  const auto [stop, err] = std::from_chars(v.data(), end, n);
  PUP_REQUIRE(err == std::errc{} && stop == end && n >= 1 && n <= kMaxThreads,
              "PUP_THREADS=\"" << v << "\" is not an integer in 1.."
                               << kMaxThreads);
  return n;
}

bool parse_simd(const std::string& v) {
  if (v == "auto" || v == "on" || v == "1" || v == "simd") return true;
  if (v == "off" || v == "0" || v == "scalar") return false;
  PUP_REQUIRE(false, "PUP_SIMD=\"" << v << "\" is not recognized (use "
                                   << "auto, on, 1, simd, off, 0, scalar)");
  return true;  // unreachable
}

}  // namespace

Env Env::read() {
  Env env;
  if (auto v = read_var("PUP_THREADS")) env.threads = parse_threads(*v);
  if (auto v = read_var("PUP_SIMD")) env.simd = parse_simd(*v);
  // The grammar parsers' errors already name their variable.
  env.faults = read_var("PUP_FAULTS");
  if (env.faults) sim::FaultPlan::parse(*env.faults);
  env.recovery = read_var("PUP_RECOVERY");
  if (env.recovery) RecoveryPolicy::parse(*env.recovery);
  return env;
}

}  // namespace pup::support
