// The shared gtest entry point of every test binary.  It is the only place
// a test process reads the PUP_* environment: once, before any test runs.
// A malformed value prints the error and exits 2, so a typo in a CI step
// or a ctest ENVIRONMENT property fails loudly instead of silently running
// an unconfigured suite.
#include <gtest/gtest.h>

#include <iostream>

#include "support/check.hpp"
#include "test_support.hpp"

namespace {

pup::support::Env g_startup_env;

}  // namespace

const pup::support::Env& pup::test::startup_env() { return g_startup_env; }

int main(int argc, char** argv) {
  try {
    g_startup_env = pup::support::Env::read();
  } catch (const pup::ContractError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  pup::kernels::set_path(pup::test::startup_path());
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
