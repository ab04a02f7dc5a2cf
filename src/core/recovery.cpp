#include "core/recovery.hpp"

#include <cstdlib>

#include "support/check.hpp"

namespace pup {
namespace {

bool is_sep(char c) { return c == ' ' || c == '\t' || c == ','; }

}  // namespace

RecoveryPolicy RecoveryPolicy::parse(const std::string& spec) {
  RecoveryPolicy policy;
  std::size_t i = 0;
  while (i < spec.size()) {
    if (is_sep(spec[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < spec.size() && !is_sep(spec[j])) ++j;
    const std::string tok = spec.substr(i, j - i);
    const std::size_t offset = i;
    i = j;
    if (tok == "off") {
      policy.max_restarts = 0;
      continue;
    }
    const std::size_t eq = tok.find('=');
    PUP_REQUIRE(eq != std::string::npos && eq > 0,
                "PUP_RECOVERY: expected key=value or \"off\" (token \""
                    << tok << "\" at byte " << offset << ')');
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    char* end = nullptr;
    if (key == "restarts") {
      const long v = std::strtol(value.c_str(), &end, 10);
      PUP_REQUIRE(end != nullptr && *end == '\0' && !value.empty() && v >= 0,
                  "PUP_RECOVERY: restarts needs an integer >= 0 (token \""
                      << tok << "\" at byte " << offset << ')');
      policy.max_restarts = static_cast<int>(v);
    } else if (key == "backoff") {
      const double v = std::strtod(value.c_str(), &end);
      PUP_REQUIRE(end != nullptr && *end == '\0' && !value.empty() && v >= 0.0,
                  "PUP_RECOVERY: backoff needs a number >= 0 (token \""
                      << tok << "\" at byte " << offset << ')');
      policy.backoff = v;
    } else if (key == "reseed") {
      PUP_REQUIRE(value == "0" || value == "1",
                  "PUP_RECOVERY: reseed must be 0 or 1 (token \""
                      << tok << "\" at byte " << offset << ')');
      policy.reseed = value == "1";
    } else {
      PUP_REQUIRE(false, "PUP_RECOVERY: unknown key \""
                             << key << "\" (token \"" << tok << "\" at byte "
                             << offset << ')');
    }
  }
  return policy;
}

}  // namespace pup
