// pup_serviced: the multi-tenant pack/unpack service driver.
//
// Stands up one service::Server and drives it with an in-process client
// fleet: every tenant gets its own client threads, each submitting a
// Poisson-paced stream of pack requests against the tenant's registered
// array.  When the run drains, the driver prints one JSON line per tenant
// (admission/quota/cache accounting) and one for the server (throughput,
// latency percentiles, fusion and cache rates, recovery counters), so the
// service can be profiled and tuned entirely from a shell.
//
//   $ ./pup_serviced --procs 8 --tenants 3 --clients 2 --requests 16
//       --window-us 1500 --max-batch 8 --quota 8 --threads 4
//
// Options (all have defaults):
//   --procs P           simulated machine size
//   --tenants T         registered tenants (named t0..t{T-1})
//   --clients C         client threads per tenant
//   --requests R        requests per client thread
//   --mean-arrival-us A Poisson mean inter-arrival per client (0 = as fast
//                       as possible)
//   --window-us W       batching window (0 = FIFO singletons)
//   --max-batch B       fusion cap per dispatch
//   --quota Q           per-tenant in-flight quota (rejections are typed
//                       and counted, not errors)
//   --budget-mb M       global in-flight byte budget
//   --n N --block W0    array extent and block size (one shared layout --
//                       every tenant's traffic is mutually fusable)
//   --density D         mask density in (0,1)
//   --scheme sss|css|cms  pack scheme (concrete; the service rejects auto)
//   --threads N         local-phase pool size (default consults PUP_THREADS)
//   --restarts N        recovery budget (pair with --faults)
//   --faults "SPEC"     PUP_FAULTS-grammar fault plan installed on the
//                       machine before serving (e.g. "seed=11 kill=2
//                       after=9 phase=prs")
//   --seed S            mask RNG seed
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "service/server.hpp"

namespace {

using pup::service::Response;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

pup::PackScheme parse_scheme(const std::string& s) {
  if (s == "sss") return pup::PackScheme::kSimpleStorage;
  if (s == "css") return pup::PackScheme::kCompactStorage;
  if (s == "cms") return pup::PackScheme::kCompactMessage;
  std::cerr << "unknown scheme '" << s << "' (use sss|css|cms)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pup;

  int procs = 8;
  int tenants = 3;
  int clients = 2;
  int requests = 16;
  double mean_arrival_us = 200.0;
  double window_us = 1500.0;
  std::size_t max_batch = 8;
  std::size_t quota = 8;
  std::size_t budget_mb = 1024;
  dist::index_t n = 1 << 16;
  dist::index_t block = 64;
  double density = 0.5;
  std::string scheme_arg = "cms";
  int threads = 0;
  int restarts = 0;
  std::string faults;
  std::uint64_t seed = 0x5eed;

  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 == argc) {
      std::cerr << "missing value for " << key << "\n";
      return 2;
    }
    const std::string val = argv[i + 1];
    if (key == "--procs") procs = std::stoi(val);
    else if (key == "--tenants") tenants = std::stoi(val);
    else if (key == "--clients") clients = std::stoi(val);
    else if (key == "--requests") requests = std::stoi(val);
    else if (key == "--mean-arrival-us") mean_arrival_us = std::stod(val);
    else if (key == "--window-us") window_us = std::stod(val);
    else if (key == "--max-batch") max_batch = std::stoul(val);
    else if (key == "--quota") quota = std::stoul(val);
    else if (key == "--budget-mb") budget_mb = std::stoul(val);
    else if (key == "--n") n = std::stoll(val);
    else if (key == "--block") block = std::stoll(val);
    else if (key == "--density") density = std::stod(val);
    else if (key == "--scheme") scheme_arg = val;
    else if (key == "--threads") threads = std::stoi(val);
    else if (key == "--restarts") restarts = std::stoi(val);
    else if (key == "--faults") faults = val;
    else if (key == "--seed") seed = std::stoull(val);
    else {
      std::cerr << "unknown option " << key << "\n";
      return 2;
    }
  }
  if (tenants < 1 || clients < 1 || requests < 1) {
    std::cerr << "--tenants, --clients and --requests must be >= 1\n";
    return 2;
  }
  const PackScheme scheme = parse_scheme(scheme_arg);

  service::Server::Options opt;
  opt.nprocs = procs;
  opt.cost = sim::CostModel::calibrated_cm5();
  opt.window_us = window_us;
  opt.max_batch = max_batch;
  opt.tenant_inflight_quota = quota;
  opt.byte_budget = budget_mb << 20;
  opt.recovery.max_restarts = restarts;
  if (threads > 0) opt.threads = threads;
  service::Server server(opt);

  const auto layout = dist::Distribution::block_cyclic(
      dist::Shape({n}), dist::ProcessGrid({procs}), block);
  for (int t = 0; t < tenants; ++t) {
    const std::string name = "t" + std::to_string(t);
    server.register_tenant(name);
    std::vector<service::Element> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 1 + 1000000LL * t);
    server.register_array(
        name, "x", dist::DistArray<service::Element>::scatter(layout, data));
  }
  if (!faults.empty()) {
    server.machine().set_fault_plan(sim::FaultPlan::parse(faults));
  }

  // Client fleet: `clients` threads per tenant, each submitting `requests`
  // Poisson-paced packs.  Futures are collected per thread and harvested
  // after the drain, so clients never close the loop on responses.
  std::vector<std::thread> fleet;
  std::vector<std::vector<std::future<Response>>> harvest(
      static_cast<std::size_t>(tenants * clients));
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < tenants; ++t) {
    for (int c = 0; c < clients; ++c) {
      const int slot = t * clients + c;
      fleet.emplace_back([&, t, c, slot] {
        std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (slot + 1)));
        std::exponential_distribution<double> gap(
            mean_arrival_us > 0 ? 1.0 / mean_arrival_us : 1.0);
        auto& futures = harvest[static_cast<std::size_t>(slot)];
        futures.reserve(static_cast<std::size_t>(requests));
        for (int r = 0; r < requests; ++r) {
          if (mean_arrival_us > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(gap(rng)));
          }
          service::PackRequest req;
          req.tenant = "t" + std::to_string(t);
          req.array = "x";
          req.scheme = scheme;
          req.mask = dist::DistArray<mask_t>::scatter(
              layout, random_mask(n, density,
                                  seed + 977ULL * slot + 31ULL * r + c));
          futures.push_back(server.submit(std::move(req)));
        }
      });
    }
  }
  for (auto& th : fleet) th.join();
  server.drain();
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  std::vector<double> latencies;
  std::int64_t ok = 0, rejected = 0, failed = 0, fused = 0;
  for (auto& futures : harvest) {
    for (auto& f : futures) {
      const Response resp = f.get();
      switch (resp.status) {
        case service::Status::kOk:
          ++ok;
          latencies.push_back(resp.latency_us);
          if (resp.fused) ++fused;
          break;
        case service::Status::kRejected: ++rejected; break;
        case service::Status::kFailed:
        case service::Status::kDeadlineExceeded:
        case service::Status::kCancelled:
        case service::Status::kWatchdogTimeout:
          // The driver arms no deadlines, cancels, or watchdog, so these
          // only appear if a caller wires them up; bucket as failures.
          ++failed;
          break;
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());

  for (int t = 0; t < tenants; ++t) {
    const std::string name = "t" + std::to_string(t);
    const auto ts = server.tenant_stats(name);
    std::cout << "{\"tenant\":\"" << name << "\",\"submitted\":" << ts.submitted
              << ",\"admitted\":" << ts.admitted
              << ",\"rejected_quota\":" << ts.rejected_quota
              << ",\"rejected_bytes\":" << ts.rejected_bytes
              << ",\"completed\":" << ts.completed
              << ",\"failed\":" << ts.failed
              << ",\"cache_hits\":" << ts.cache_hits
              << ",\"cache_misses\":" << ts.cache_misses
              << ",\"fused\":" << ts.fused
              << ",\"singleton\":" << ts.singleton << "}\n";
  }

  const auto ss = server.stats();
  const auto cs = server.plan_cache().stats();
  const auto& rs = server.recovery_stats();
  const double ops_per_s =
      wall_us > 0 ? static_cast<double>(ok) * 1e6 / wall_us : 0.0;
  std::cout << "{\"server\":\"pup_serviced\",\"procs\":" << procs
            << ",\"window_us\":" << window_us
            << ",\"max_batch\":" << max_batch << ",\"quota\":" << quota
            << ",\"submitted\":" << ss.submitted
            << ",\"completed\":" << ss.completed
            << ",\"rejected\":" << rejected << ",\"failed\":" << failed
            << ",\"ops_per_s\":" << ops_per_s
            << ",\"p50_us\":" << percentile(latencies, 0.50)
            << ",\"p95_us\":" << percentile(latencies, 0.95)
            << ",\"p99_us\":" << percentile(latencies, 0.99)
            << ",\"batches\":" << ss.batches
            << ",\"fused_requests\":" << fused
            << ",\"cache_hits\":" << cs.hits
            << ",\"cache_misses\":" << cs.misses
            << ",\"cache_entries\":" << cs.entries
            << ",\"cache_capacity\":" << cs.capacity
            << ",\"peak_bytes_in_flight\":" << ss.peak_bytes_in_flight
            << ",\"restarts\":" << rs.restarts
            << ",\"rank_failures\":" << rs.rank_failures
            << ",\"prs_msgs\":"
            << server.machine().trace().messages_in(sim::Category::kPrs)
            << ",\"wall_us\":" << wall_us << "}\n";

  server.shutdown();
  // Failures are an error unless a fault plan without recovery budget was
  // explicitly requested; rejections are expected under tight quotas.
  return failed > 0 && (faults.empty() || restarts > 0) ? 1 : 0;
}
