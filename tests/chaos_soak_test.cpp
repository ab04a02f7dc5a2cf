// Chaos soak (ctest -L chaos): seeded random workloads x random mixed
// fault schedules x deadlines x cancels, sequential and on a 4-thread
// local-phase pool (so TSan races cancellation and watchdog trips against
// concurrent rank bodies).  Each seed runs the full harness contract
// (src/service/chaos.hpp): every future resolves typed within the wall
// bound, delivered digests are bit-identical to the fault-free reference,
// and the accounting balances exactly.
//
// The sweep is 16 seeds x {faulted, clean} x {1, 4 threads} = 64 soak
// combinations, sized to stay inside the ctest timeout under ASan/TSan;
// tools/chaos_soak drives arbitrary ranges for longer campaigns.
#include <gtest/gtest.h>

#include <cstdint>

#include "service/chaos.hpp"

namespace pup {
namespace {

using service::chaos::SoakConfig;
using service::chaos::SoakResult;

constexpr std::uint64_t kSeeds = 16;

/// Sweeps kSeeds soaks and asserts each one's contract plus, across the
/// sweep, that the outcome census is diverse: the harness must actually
/// complete work AND exercise the typed failure paths, or the soak is
/// vacuously green.
void sweep(int threads, bool faults) {
  SoakResult total;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SoakConfig cfg;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.faults = faults;
    const SoakResult r = service::chaos::run_soak(cfg);
    ASSERT_TRUE(r.ok) << "seed " << seed << " [threads=" << threads
                      << (faults ? ", faulted" : ", clean")
                      << "]: " << r.error;
    total.completed += r.completed;
    total.failed += r.failed;
    total.shed += r.shed;
    total.cancelled += r.cancelled;
    total.deadline_misses += r.deadline_misses;
    total.watchdog_trips += r.watchdog_trips;
    total.restarts += r.restarts;
  }
  EXPECT_GT(total.completed, 0) << "no soak delivered any result";
  EXPECT_GT(total.cancelled + total.deadline_misses, 0)
      << "no soak exercised a typed deadline/cancel resolution";
  if (faults) {
    EXPECT_GT(total.restarts + total.failed + total.watchdog_trips, 0)
        << "no faulted soak tripped recovery or a typed failure";
  }
}

TEST(ChaosSoak, SequentialFaulted) { sweep(1, true); }
TEST(ChaosSoak, SequentialClean) { sweep(1, false); }
TEST(ChaosSoak, PoolFaulted) { sweep(4, true); }
TEST(ChaosSoak, PoolClean) { sweep(4, false); }

}  // namespace
}  // namespace pup
