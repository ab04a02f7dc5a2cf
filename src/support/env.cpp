#include "support/env.hpp"

#include <cstdlib>
#include <utility>

#include "support/check.hpp"

namespace pup::support {
namespace {

std::optional<std::string> read(const char* name) {
  // The process's sole std::getenv call site.  Reached only from the
  // magic-static initializer below (exactly once, under its thread-safe
  // guard) or from the explicitly single-threaded Env::refresh(), so the
  // unsynchronized environment access can never race.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

Env capture() {
  Env env;
  env.threads = read("PUP_THREADS");
  env.faults = read("PUP_FAULTS");
  env.reliable = read("PUP_RELIABLE");
  env.recovery = read("PUP_RECOVERY");
  env.simd = read("PUP_SIMD");
  return env;
}

Env& instance() {
  static Env env = capture();
  return env;
}

}  // namespace

const Env& Env::get() { return instance(); }

void Env::refresh() { instance() = capture(); }

void Env::override_for_testing(const std::string& name,
                               std::optional<std::string> value) {
  Env& env = instance();
  if (name == "PUP_THREADS") env.threads = std::move(value);
  else if (name == "PUP_FAULTS") env.faults = std::move(value);
  else if (name == "PUP_RELIABLE") env.reliable = std::move(value);
  else if (name == "PUP_RECOVERY") env.recovery = std::move(value);
  else if (name == "PUP_SIMD") env.simd = std::move(value);
  else {
    PUP_REQUIRE(false, "Env::override_for_testing: unknown variable \""
                           << name << "\"");
  }
}

}  // namespace pup::support
