#include "service/chaos.hpp"

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "service/server.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"

namespace pup::service::chaos {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTenants = 3;
const char* const kTenantNames[kTenants] = {"a", "b", "c"};
const Priority kTenantPriority[kTenants] = {
    Priority::kCritical, Priority::kStandard, Priority::kBestEffort};

/// One derived request: everything needed to replay it on any server.
struct TraceItem {
  int tenant = 0;
  std::string array;                ///< "x" or "y"
  bool unpack = false;
  dist::DistArray<mask_t> mask;
  dist::DistArray<Element> vector;  ///< unpack input (oracle-packed)
  double deadline_us = 0.0;         ///< chaos run only
  bool cancel = false;              ///< chaos run only
};

sim::CostModel soak_cost() { return sim::CostModel{10.0, 0.1, 0.01}; }

dist::DistArray<Element> make_array(const dist::Distribution& d,
                                    Element offset) {
  std::vector<Element> data(static_cast<std::size_t>(d.global().size()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = offset + static_cast<Element>(i) + 1;
  }
  return dist::DistArray<Element>::scatter(d, data);
}

/// The seed-derived fault schedule: a mixed probability storm, sometimes
/// with a fail-stop kill layered on top (recovery is armed on the chaos
/// server, so kills exercise rollback + re-execution under the soak).
std::string derive_fault_spec(Xoshiro256& rng, int nprocs) {
  std::ostringstream spec;
  spec << "seed=" << (1 + rng.next_below(1'000'000));
  const char* const knobs[4] = {"drop", "dup", "delay", "trunc"};
  bool any = false;
  for (const char* knob : knobs) {
    if (rng.next_below(100) < 60) {
      spec << ' ' << knob << "=0.0" << (1 + rng.next_below(4));
      any = true;
    }
  }
  if (!any) spec << " drop=0.02";
  spec << " ticks=" << (1 + rng.next_below(3));
  if (rng.next_below(100) < 35) {
    // Kill rules may not mix with probability fields: separate '|' rule.
    spec << " | kill=" << rng.next_below(static_cast<std::uint64_t>(nprocs))
         << " after=" << (5 + rng.next_below(40)) << " phase=prs";
  }
  return spec.str();
}

void register_soak_tenants(Server& server, const dist::Distribution& dx,
                           const dist::Distribution& dy) {
  for (int t = 0; t < kTenants; ++t) {
    server.register_tenant(kTenantNames[t], std::nullopt,
                           kTenantPriority[t]);
    server.register_array(kTenantNames[t], "x",
                          make_array(dx, 1000 * (t + 1)));
    server.register_array(kTenantNames[t], "y",
                          make_array(dy, 1000 * (t + 1) + 500));
  }
}

struct Replay {
  std::vector<Response> responses;  ///< one per trace item, typed
  ServerStats stats;
  TenantStats per_tenant[kTenants];
  std::int64_t restarts = 0;
  bool hang = false;
  std::size_t hang_index = 0;
};

/// Replays the trace on `server`.  `chaos` arms deadlines and fires the
/// cancellation schedule from a separate client thread (mirroring a real
/// caller); the reference run submits the same requests bare.
Replay replay(Server& server, const std::vector<TraceItem>& trace,
              bool chaos, double wall_bound_s) {
  std::vector<Server::Submission> subs;
  subs.reserve(trace.size());
  for (const TraceItem& item : trace) {
    if (item.unpack) {
      UnpackRequest r;
      r.tenant = kTenantNames[item.tenant];
      r.field = item.array;
      r.mask = item.mask;
      r.vector = item.vector;
      if (chaos) r.deadline_us = item.deadline_us;
      subs.push_back(server.submit_tracked(std::move(r)));
    } else {
      PackRequest r;
      r.tenant = kTenantNames[item.tenant];
      r.array = item.array;
      r.mask = item.mask;
      if (chaos) r.deadline_us = item.deadline_us;
      subs.push_back(server.submit_tracked(std::move(r)));
    }
  }
  std::thread canceller;
  if (chaos) {
    canceller = std::thread([&] {
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].cancel && subs[i].id != 0) server.cancel(subs[i].id);
      }
    });
  }
  server.resume();
  Replay out;
  out.responses.reserve(subs.size());
  const auto bound = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(wall_bound_s));
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].response.wait_for(bound) != std::future_status::ready) {
      out.hang = true;
      out.hang_index = i;
      if (canceller.joinable()) canceller.join();
      return out;  // leave the wedged server to the caller's report
    }
    out.responses.push_back(subs[i].response.get());
  }
  if (canceller.joinable()) canceller.join();
  server.drain();
  out.stats = server.stats();
  for (int t = 0; t < kTenants; ++t) {
    out.per_tenant[t] = server.tenant_stats(kTenantNames[t]);
  }
  out.restarts = server.recovery_stats().restarts;
  return out;
}

bool balanced(const ServerStats& s) {
  return s.admitted == s.completed + s.failed + s.shed + s.cancelled +
                           s.deadline_misses + s.watchdog_trips &&
         s.submitted == s.admitted + s.rejected && s.bytes_in_flight == 0;
}

bool balanced(const TenantStats& s) {
  return s.admitted == s.completed + s.failed + s.shed + s.cancelled +
                           s.deadline_misses + s.watchdog_trips &&
         s.submitted == s.admitted + s.rejected_quota + s.rejected_bytes +
                            s.rejected_other;
}

}  // namespace

SoakResult run_soak(const SoakConfig& cfg) {
  SoakResult result;
  Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);

  // Seed-derived shapes: two layouts so pack requests split into two fuse
  // keys and unpacks hit both fields.
  const auto block = static_cast<dist::index_t>(8 << rng.next_below(3));
  const dist::Distribution dx = dist::Distribution::block_cyclic(
      dist::Shape({cfg.elements}), dist::ProcessGrid({cfg.nprocs}), block);
  const dist::Distribution dy = dist::Distribution::block_cyclic(
      dist::Shape({cfg.elements}), dist::ProcessGrid({cfg.nprocs}),
      block * 2);

  // Derive the trace.  Unpack inputs come from a standalone oracle machine
  // (a library-level pack of the same mask), so both servers receive
  // byte-identical requests.
  sim::Machine oracle(cfg.nprocs, soak_cost());
  std::vector<TraceItem> trace;
  trace.reserve(static_cast<std::size_t>(cfg.requests));
  for (int i = 0; i < cfg.requests; ++i) {
    TraceItem item;
    item.tenant = static_cast<int>(rng.next_below(kTenants));
    item.array = rng.next_below(2) == 0 ? "x" : "y";
    const auto& d = item.array == "x" ? dx : dy;
    const double density = 0.1 + 0.8 * rng.next_double();
    item.mask = dist::DistArray<mask_t>::scatter(
        d, random_mask(d.global().size(), density, cfg.seed ^ (77ULL * i)));
    item.unpack = rng.next_below(100) < 25;
    if (item.unpack) {
      auto field = make_array(d, 1000 * (item.tenant + 1) +
                                     (item.array == "y" ? 500 : 0));
      item.vector = pup::pack(oracle, field, item.mask).vector;
    }
    const auto roll = rng.next_below(100);
    if (roll < 15) {
      item.deadline_us = 1.0 + static_cast<double>(rng.next_below(200));
    } else if (roll < 30) {
      item.deadline_us = 60e6;  // a minute: never missed while healthy
    }
    item.cancel = rng.next_below(100) < 20;
    trace.push_back(std::move(item));
  }

  // Reference run: pristine server, every response must be kOk.
  Server::Options ref_opt;
  ref_opt.nprocs = cfg.nprocs;
  ref_opt.cost = soak_cost();
  ref_opt.threads = cfg.threads;
  ref_opt.start_paused = true;
  ref_opt.window_us = 400.0;
  ref_opt.max_batch = 4;
  ref_opt.tenant_inflight_quota = 1 << 20;
  Server reference(ref_opt);
  register_soak_tenants(reference, dx, dy);
  Replay ref = replay(reference, trace, /*chaos=*/false, cfg.wall_bound_s);
  if (ref.hang) {
    result.error = "reference run hung at request " +
                   std::to_string(ref.hang_index);
    return result;
  }
  for (std::size_t i = 0; i < ref.responses.size(); ++i) {
    if (ref.responses[i].status != Status::kOk) {
      result.error = "reference request " + std::to_string(i) +
                     " not kOk: " + ref.responses[i].message;
      return result;
    }
  }
  reference.shutdown();

  // Chaos run: same trace + faults + deadlines + cancels, with every
  // robustness subsystem armed.
  Server::Options opt = ref_opt;
  opt.recovery.max_restarts = 4;
  opt.cancellation = true;
  opt.watchdog_factor = 16.0;  // generous: only genuine storms trip
  opt.brownout_p95_us = 20'000.0;
  if (rng.next_below(2) == 0) {
    // Half the seeds also soak overload shedding under a tight pressure
    // limit derived from the actual per-request payload.
    // Pressure is queue depth x queued bytes; size the threshold so
    // shedding engages near full depth but most of the trace still
    // executes (digest parity is only checked on kOk survivors).
    const double per_request =
        static_cast<double>(cfg.elements) *
        (sizeof(mask_t) + 2.0 * sizeof(Element));
    const double keep = 0.6 * static_cast<double>(cfg.requests);
    opt.overload_factor = keep * keep * per_request /
                          static_cast<double>(opt.byte_budget);
  }
  Server server(opt);
  register_soak_tenants(server, dx, dy);
  if (cfg.faults) {
    result.fault_spec = derive_fault_spec(rng, cfg.nprocs);
    server.machine().set_fault_plan(sim::FaultPlan::parse(result.fault_spec));
  }
  Replay run = replay(server, trace, /*chaos=*/true, cfg.wall_bound_s);
  if (run.hang) {
    result.error = "chaos run hung at request " +
                   std::to_string(run.hang_index) +
                   " (faults: " + result.fault_spec + ")";
    return result;
  }

  // 2. Delivered results are bit-identical to the fault-free reference.
  for (std::size_t i = 0; i < run.responses.size(); ++i) {
    const Response& r = run.responses[i];
    if (r.status == Status::kOk &&
        (r.digest != ref.responses[i].digest ||
         r.selected != ref.responses[i].selected)) {
      result.error = "request " + std::to_string(i) +
                     " delivered a divergent digest under faults";
      return result;
    }
  }

  // 3. Accounting balances exactly, globally and per tenant.
  if (!balanced(run.stats)) {
    result.error = "server accounting does not balance";
    return result;
  }
  for (int t = 0; t < kTenants; ++t) {
    if (!balanced(run.per_tenant[t])) {
      result.error = std::string("tenant ") + kTenantNames[t] +
                     " accounting does not balance";
      return result;
    }
  }

  // 4. Clean shutdown (the destructor would also do this; doing it here
  // keeps a wedge inside the soak's wall-clock bound accounting).
  server.shutdown();

  result.completed = run.stats.completed;
  result.failed = run.stats.failed;
  result.rejected = run.stats.rejected;
  result.shed = run.stats.shed;
  result.cancelled = run.stats.cancelled;
  result.deadline_misses = run.stats.deadline_misses;
  result.watchdog_trips = run.stats.watchdog_trips;
  result.restarts = run.restarts;
  result.ok = true;
  return result;
}

}  // namespace pup::service::chaos
