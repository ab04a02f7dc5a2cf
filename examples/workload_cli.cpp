// Command-line workload driver: describe a distributed PACK workload in
// HPF notation and get the paper-style timing breakdown.
//
//   $ ./example_workload_cli --shape 512x512 --density 0.5 --scheme cms
//       --dist "DISTRIBUTE (CYCLIC(2), CYCLIC(2)) ONTO (4, 4)"
//
// Options (all have defaults):
//   --shape   NxM[xK...]       global array extents (dimension 0 first)
//   --dist    "<directive>"    HPF DISTRIBUTE directive (must carry ONTO)
//   --density 0..1 | lt        mask density, or the paper's LT mask
//   --scheme  sss|css|cms|auto storage/message scheme
//   --seed    <int>            mask RNG seed
//   --repeat  N                serve the pack N times through the plan cache
//                              (compile once, hit N-1 times)
//   --batch   B                serve B concurrent requests per repetition
//                              via pack_batch (fused PRS rounds)
//   --service NxM              drive the same workload through an in-process
//                              service::Server instead of direct library
//                              calls: N client threads x M requests each,
//                              admitted, window-batched and executed by the
//                              scheduler (same timing breakdown, plus
//                              admission/fusion/latency accounting)
//   --window-us W              service mode: batching window (default 1000;
//                              0 = FIFO singletons)
#include <algorithm>
#include <cstdint>
#include <future>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "hpf/directives.hpp"
#include "plan/executor.hpp"
#include "plan/plan_cache.hpp"
#include "service/server.hpp"

namespace {

std::vector<pup::dist::index_t> parse_shape(const std::string& s) {
  std::vector<pup::dist::index_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('x', pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(std::stoll(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

pup::PackScheme parse_scheme(const std::string& s) {
  if (s == "sss") return pup::PackScheme::kSimpleStorage;
  if (s == "css") return pup::PackScheme::kCompactStorage;
  if (s == "cms") return pup::PackScheme::kCompactMessage;
  if (s == "auto") return pup::PackScheme::kAuto;
  std::cerr << "unknown scheme '" << s << "' (use sss|css|cms|auto)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pup;

  std::string shape_arg = "65536";
  std::string dist_arg = "DISTRIBUTE (CYCLIC(64)) ONTO (16)";
  std::string density_arg = "0.5";
  std::string scheme_arg = "cms";
  std::uint64_t seed = 0x5eed;
  int repeat = 1;
  int batch = 1;
  int service_clients = 0;
  int service_requests = 0;
  double window_us = 1000.0;

  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 == argc) {
      std::cerr << "missing value for " << key << "\n";
      return 2;
    }
    const std::string val = argv[i + 1];
    try {
      if (key == "--shape") shape_arg = val;
      else if (key == "--dist") dist_arg = val;
      else if (key == "--density") density_arg = val;
      else if (key == "--scheme") scheme_arg = val;
      else if (key == "--seed") seed = std::stoull(val);
      else if (key == "--repeat") repeat = std::stoi(val);
      else if (key == "--batch") batch = std::stoi(val);
      else if (key == "--service") {
        const auto x = val.find('x');
        if (x == std::string::npos) {
          std::cerr << "--service wants NxM (clients x requests)\n";
          return 2;
        }
        service_clients = std::stoi(val.substr(0, x));
        service_requests = std::stoi(val.substr(x + 1));
      }
      else if (key == "--window-us") window_us = std::stod(val);
      else {
        std::cerr << "unknown option " << key << "\n";
        return 2;
      }
    } catch (const std::logic_error&) {  // std::sto*: invalid or out of range
      std::cerr << "bad value for " << key << "\n";
      return 2;
    }
  }
  if (repeat < 1 || batch < 1) {
    std::cerr << "--repeat and --batch must be >= 1\n";
    return 2;
  }

  const dist::Shape shape(parse_shape(shape_arg));
  dist::Distribution layout = hpf::distribute(dist_arg, shape);
  const int P = layout.nprocs();
  sim::Machine machine(P);

  std::vector<std::int64_t> data(static_cast<std::size_t>(shape.size()));
  std::iota(data.begin(), data.end(), 0);
  auto make_mask = [&](std::uint64_t s) -> std::vector<mask_t> {
    if (density_arg == "lt") {
      return shape.rank() == 1 ? lt_mask_1d(shape.extent(0)) : lt_mask(shape);
    }
    return random_mask(shape.size(), std::stod(density_arg), s);
  };

  auto a = dist::DistArray<std::int64_t>::scatter(layout, data);
  auto m = dist::DistArray<mask_t>::scatter(layout, make_mask(seed));

  PackOptions opt;
  opt.scheme = parse_scheme(scheme_arg);
  // Plans require a concrete scheme; resolve kAuto from the mask's density
  // once, exactly as pack() would per call.
  opt.scheme = detail::resolve_pack_scheme(machine, m, opt.scheme);

  if (service_clients > 0 && service_requests > 0) {
    // Service mode: same workload, but admitted / window-batched / executed
    // by an in-process multi-tenant server instead of direct library calls.
    // --batch > 1 sets the fusion cap; --batch 1 still fuses up to 8.
    service::Server::Options sopt;
    sopt.nprocs = P;
    sopt.window_us = window_us;
    sopt.max_batch = batch > 1 ? static_cast<std::size_t>(batch) : 8;
    sopt.tenant_inflight_quota =
        static_cast<std::size_t>(service_clients) *
        static_cast<std::size_t>(service_requests);
    service::Server server(sopt);
    server.register_tenant("cli");
    server.register_array("cli", "a",
                          dist::DistArray<std::int64_t>::scatter(layout, data));

    std::vector<std::thread> fleet;
    std::vector<std::vector<std::future<service::Response>>> harvest(
        static_cast<std::size_t>(service_clients));
    for (int c = 0; c < service_clients; ++c) {
      fleet.emplace_back([&, c] {
        auto& futures = harvest[static_cast<std::size_t>(c)];
        for (int r = 0; r < service_requests; ++r) {
          service::PackRequest req;
          req.tenant = "cli";
          req.array = "a";
          req.scheme = opt.scheme;
          req.mask = dist::DistArray<mask_t>::scatter(
              layout, make_mask(seed + 1009u * c + 17u * r));
          futures.push_back(server.submit(std::move(req)));
        }
      });
    }
    for (auto& th : fleet) th.join();
    server.drain();

    std::int64_t selected = 0, fused = 0, completed = 0;
    std::vector<double> latencies;
    for (auto& futures : harvest) {
      for (auto& f : futures) {
        const service::Response resp = f.get();
        if (resp.status != service::Status::kOk) continue;
        ++completed;
        selected = resp.selected;  // any request's count illustrates the mask
        if (resp.fused) ++fused;
        latencies.push_back(resp.latency_us);
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const sim::Machine& sm = server.machine();
    std::cout << "workload: shape " << shape_arg << ", " << dist_arg
              << ", density " << density_arg << ", P=" << P << "\n"
              << "service: " << service_clients << " clients x "
              << service_requests << " requests, window " << window_us
              << "us, max batch " << sopt.max_batch << "\n"
              << "selected " << selected << " of " << shape.size()
              << " elements per request\n";
    std::cout << "busiest processor (us): local "
              << sm.max_us(sim::Category::kLocal) << ", prs "
              << sm.max_us(sim::Category::kPrs) << ", m2m "
              << sm.max_us(sim::Category::kM2M) << "\n";
    const auto ss = server.stats();
    const auto cs = server.plan_cache().stats();
    std::cout << "service: " << completed << "/" << ss.submitted
              << " completed in " << ss.batches << " batches (" << fused
              << " fused), plan cache " << cs.hits << " hits / " << cs.misses
              << " misses\n";
    if (!latencies.empty()) {
      std::cout << "latency (us): p50 " << latencies[latencies.size() / 2]
                << ", max " << latencies.back() << "\n";
    }
    return completed == ss.submitted ? 0 : 1;
  }

  // Batched requests: vary the mask seed per slot so the B requests differ.
  std::vector<dist::DistArray<mask_t>> masks;
  std::vector<dist::DistArray<std::int64_t>> arrays;
  for (int b = 0; b < batch; ++b) {
    masks.push_back(b == 0 ? m
                           : dist::DistArray<mask_t>::scatter(
                                 layout, make_mask(seed + 17u * b)));
    arrays.push_back(a);
  }

  plan::PlanCache cache;
  machine.reset_accounting();
  PackResult<std::int64_t> result;
  for (int r = 0; r < repeat; ++r) {
    auto plan =
        cache.pack_plan(machine, layout, sizeof(std::int64_t), opt);
    if (batch == 1) {
      result = plan::pack_with_plan(machine, *plan, a, m);
    } else {
      auto results =
          plan::pack_batch<std::int64_t>(machine, *plan, masks, arrays);
      result = std::move(results.front());
    }
  }

  std::cout << "workload: shape " << shape_arg << ", " << dist_arg
            << ", density " << density_arg << ", P=" << P << "\n"
            << "serving: repeat " << repeat << ", batch " << batch << "\n"
            << "selected " << result.size << " of " << shape.size()
            << " elements (scheme used: "
            << (result.scheme == PackScheme::kSimpleStorage   ? "SSS"
                : result.scheme == PackScheme::kCompactStorage ? "CSS"
                                                               : "CMS")
            << ")\n";
  std::cout << "busiest processor (us): local "
            << machine.max_us(sim::Category::kLocal) << ", prs "
            << machine.max_us(sim::Category::kPrs) << ", m2m "
            << machine.max_us(sim::Category::kM2M) << "\n";
  std::int64_t bytes = 0, segs = 0;
  for (const auto& c : result.counters) {
    bytes += c.bytes_sent;
    segs += c.segments_sent;
  }
  std::cout << "traffic: " << bytes << " payload bytes";
  if (segs > 0) std::cout << " in " << segs << " segments";
  std::cout << ", self-bypass " << machine.trace().self_bytes() << " bytes\n";
  const auto& cs = cache.stats();
  std::cout << "plan cache: " << cs.hits << " hits, " << cs.misses
            << " misses, " << cs.evictions << " evictions ("
            << ranking_schedules_compiled() << " schedule compiles "
            << "process-wide)\n";
  return 0;
}
