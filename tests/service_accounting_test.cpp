// Property test: every ServerStats and TenantStats bucket equals a tally
// of the Responses the futures actually delivered, across randomized mixed
// pack / unpack / admit / reject / shed / cancel / complete sequences,
// including recovery re-execution, unrecovered kills that fail whole fused
// batches, and queued-at-shutdown disposal.  A kRejected response counts
// as refused at admission when its Submission id is 0 and as shed
// otherwise; a kOk response also tallies its cache hit and fusion.  Sums
// alone are not enough: filing a cancel as shed keeps every sum true.
// At quiescence the byte budget has unwound to bytes_in_flight == 0.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "service/server.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"

namespace pup {
namespace {

using service::Element;
using service::PackRequest;
using service::Response;
using service::Server;
using service::ServerStats;
using service::Status;
using service::TenantStats;
using service::UnpackRequest;

constexpr int kProcs = 4;
constexpr dist::index_t kN = 1024;
const char* const kTenants[2] = {"a", "b"};

dist::Distribution layout() {
  return dist::Distribution::block_cyclic(dist::Shape({kN}),
                                          dist::ProcessGrid({kProcs}), 16);
}

dist::DistArray<Element> make_array(const dist::Distribution& d) {
  std::vector<Element> data(static_cast<std::size_t>(d.global().size()));
  std::iota(data.begin(), data.end(), 1);
  return dist::DistArray<Element>::scatter(d, data);
}

/// The buckets a tenant's delivered Responses say its TenantStats hold.
void tally(TenantStats& t, const Server::Submission& s, const Response& r) {
  ++t.submitted;
  if (r.status == Status::kRejected && s.id == 0) {
    switch (r.reason) {
      case service::RejectReason::kInFlightQuota: ++t.rejected_quota; break;
      case service::RejectReason::kByteBudget: ++t.rejected_bytes; break;
      default: ++t.rejected_other; break;
    }
    return;
  }
  ++t.admitted;
  switch (r.status) {
    case Status::kOk:
      ++t.completed;
      ++(r.cache_hit ? t.cache_hits : t.cache_misses);
      ++(r.fused ? t.fused : t.singleton);
      break;
    case Status::kFailed: ++t.failed; break;
    case Status::kRejected: ++t.shed; break;
    case Status::kCancelled: ++t.cancelled; break;
    case Status::kDeadlineExceeded: ++t.deadline_misses; break;
    case Status::kWatchdogTimeout: ++t.watchdog_trips; break;
  }
}

void expect_tenant(const TenantStats& got, const TenantStats& want,
                   const std::string& label) {
#define PUP_BUCKET(f) EXPECT_EQ(got.f, want.f) << label << ": " #f
  PUP_BUCKET(submitted);
  PUP_BUCKET(admitted);
  PUP_BUCKET(rejected_quota);
  PUP_BUCKET(rejected_bytes);
  PUP_BUCKET(rejected_other);
  PUP_BUCKET(completed);
  PUP_BUCKET(failed);
  PUP_BUCKET(shed);
  PUP_BUCKET(cancelled);
  PUP_BUCKET(deadline_misses);
  PUP_BUCKET(watchdog_trips);
  PUP_BUCKET(cache_hits);
  PUP_BUCKET(cache_misses);
  PUP_BUCKET(fused);
  PUP_BUCKET(singleton);
#undef PUP_BUCKET
}

/// Only registered tenants submit here, so every server bucket is the sum
/// of the tenants' tallies.
void expect_server(const ServerStats& g, const TenantStats& a,
                   const TenantStats& b, const std::string& label) {
#define PUP_BUCKET(gf, tf) EXPECT_EQ(g.gf, a.tf + b.tf) << label << ": " #gf
  PUP_BUCKET(submitted, submitted);
  PUP_BUCKET(admitted, admitted);
  PUP_BUCKET(completed, completed);
  PUP_BUCKET(failed, failed);
  PUP_BUCKET(shed, shed);
  PUP_BUCKET(cancelled, cancelled);
  PUP_BUCKET(deadline_misses, deadline_misses);
  PUP_BUCKET(watchdog_trips, watchdog_trips);
  PUP_BUCKET(fused_requests, fused);
#undef PUP_BUCKET
  EXPECT_EQ(g.rejected, a.rejected_quota + a.rejected_bytes +
                            a.rejected_other + b.rejected_quota +
                            b.rejected_bytes + b.rejected_other)
      << label;
  EXPECT_EQ(g.bytes_in_flight, 0u) << label;
}

/// Which fault plans a scenario runs under.
enum class Faults {
  kDrawn,            ///< half the seeds: a kill that recovery rolls back
  kUnrecoveredKill,  ///< every seed: a kill with recovery off, so batches
                     ///< (fused ones included) fail
};

/// One randomized scenario.  `drain_first` selects the quiescence path:
/// drain-then-shutdown (everything executes) vs. shutdown-while-queued
/// (the queue is dropped as shed) -- the books must match either way.
/// Returns the number of kFailed responses.
int run_scenario(std::uint64_t seed, bool drain_first, Faults faults) {
  Xoshiro256 rng(seed);
  const auto d = layout();
  const auto vd = dist::Distribution::block(dist::Shape({kN}),
                                            dist::ProcessGrid({kProcs}));
  const bool unrecovered = faults == Faults::kUnrecoveredKill;
  Server::Options opt;
  opt.nprocs = kProcs;
  opt.cost = sim::CostModel{10.0, 0.1};
  opt.start_paused = true;
  // The unrecovered variant always fuses, so failed batches are fused.
  opt.window_us = !unrecovered && rng.next_below(2) == 0 ? 0.0 : 300.0;
  opt.max_batch = (unrecovered ? 2 : 1) + rng.next_below(4);
  opt.cancellation = true;
  // Small quotas and a tight budget force real admission rejections.
  opt.tenant_inflight_quota = 3 + rng.next_below(8);
  const std::size_t per_request =
      static_cast<std::size_t>(d.global().size()) *
      (sizeof(mask_t) + sizeof(Element));
  opt.byte_budget = per_request * (4 + rng.next_below(8));
  if (rng.next_below(2) == 0) {
    opt.overload_factor =
        6.0 * static_cast<double>(per_request) /
        static_cast<double>(opt.byte_budget);
  }
  const bool faulted = unrecovered || rng.next_below(2) == 0;
  if (faulted && !unrecovered) opt.recovery.max_restarts = 3;

  Server server(opt);
  for (const char* t : kTenants) {
    server.register_tenant(t);
    server.register_array(t, "x", make_array(d));
  }
  if (faulted) {
    // A fail-stop kill mid-PRS.  Recovered, the re-execution must not
    // double-count any terminal bucket; unrecovered, every member of the
    // failing batch resolves kFailed, fused or not.
    server.machine().set_fault_plan(sim::FaultPlan::parse(
        "seed=" + std::to_string(1 + rng.next_below(100)) +
        " kill=1 after=9 phase=prs"));
  }

  const int requests = 12 + static_cast<int>(rng.next_below(10));
  std::vector<Server::Submission> subs;
  std::vector<const char*> owners;
  for (int i = 0; i < requests; ++i) {
    const char* tenant = kTenants[rng.next_below(2)];
    auto mask = dist::DistArray<mask_t>::scatter(
        d, random_mask(kN, 0.2 + 0.6 * rng.next_double(),
                       seed ^ (31ULL * i)));
    const auto roll = rng.next_below(100);
    double deadline_us = 0.0;
    if (roll < 20) {
      deadline_us = 1.0;  // certain miss while the scheduler is paused
    } else if (roll < 35) {
      deadline_us = 60e6;
    }
    if (rng.next_below(100) < 30) {
      UnpackRequest r;
      r.tenant = tenant;
      r.field = "x";
      r.mask = std::move(mask);
      r.vector = make_array(vd);
      r.deadline_us = deadline_us;
      subs.push_back(server.submit_tracked(std::move(r)));
    } else {
      PackRequest r;
      r.tenant = tenant;
      r.array = "x";
      r.mask = std::move(mask);
      r.deadline_us = deadline_us;
      subs.push_back(server.submit_tracked(std::move(r)));
    }
    owners.push_back(tenant);
  }
  // Cancel a random subset (queued, rejected-already, and repeats: every
  // combination must keep the books exact).
  for (auto& s : subs) {
    if (rng.next_below(100) < 25) {
      server.cancel(s.id);
      if (rng.next_below(4) == 0) server.cancel(s.id);  // double-cancel
    }
  }

  if (drain_first) {
    server.resume();
    server.drain();
    server.shutdown();
  } else {
    // Tear down with the queue still staged: everything queued must
    // resolve Rejected{kShutdown} and be counted as shed.
    server.shutdown();
  }
  const std::string label = "seed " + std::to_string(seed) +
                            (drain_first ? " drained" : " dropped") +
                            (unrecovered ? " unrecovered" : "");
  TenantStats want[2];
  int failed = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    EXPECT_EQ(subs[i].response.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << label << ": a future leaked";
    const Response r = subs[i].response.get();
    failed += r.status == Status::kFailed ? 1 : 0;
    tally(want[owners[i] == kTenants[0] ? 0 : 1], subs[i], r);
  }
  expect_tenant(server.tenant_stats("a"), want[0], label + " a");
  expect_tenant(server.tenant_stats("b"), want[1], label + " b");
  expect_server(server.stats(), want[0], want[1], label);
  return failed;
}

TEST(ServiceAccounting, BalancesAcrossRandomMixedSequencesDrained) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_scenario(seed, /*drain_first=*/true, Faults::kDrawn);
  }
}

TEST(ServiceAccounting, BalancesAcrossRandomMixedSequencesDroppedAtShutdown) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_scenario(seed, /*drain_first=*/false, Faults::kDrawn);
  }
}

TEST(ServiceAccounting, BalancesWhenUnrecoveredKillsFailFusedBatches) {
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    failed += run_scenario(seed, /*drain_first=*/true,
                           Faults::kUnrecoveredKill);
  }
  EXPECT_GT(failed, 0) << "no unrecovered kill failed a request";
}

}  // namespace
}  // namespace pup
