// Multi-tenant pack/unpack service:
//   * admission control rejects over-quota tenants and over-budget
//     payloads deterministically, with typed reasons and zero crashes;
//   * window fusion produces digests bit-identical to singleton execution
//     while charging fewer modeled PRS startups;
//   * a kill= fault plan striking one tenant's epoch rolls back and
//     re-executes, leaving every tenant's results bit-identical to a
//     fault-free run;
//   * pool parity: the same mixed multi-tenant trace produces identical
//     digests and identical modeled traffic sequentially and on a 4-thread
//     local-phase pool (Options::threads injection, no env mutation);
//   * Options::threads must be >= 1 and Options::backend "sim" (or
//     unset): anything else throws ContractError instead of silently
//     running some other configuration;
//   * two in-process servers with different options coexist without
//     interfering (the PR's Env-injection satellite), and
//     Env::override_for_testing steers the snapshot without setenv.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "service/server.hpp"
#include "sim/fault.hpp"
#include "support/env.hpp"

namespace pup {
namespace {

using service::Element;
using service::PackRequest;
using service::RejectReason;
using service::Response;
using service::Server;
using service::Status;
using service::status_name;
using service::UnpackRequest;

constexpr int kProcs = 8;
constexpr dist::index_t kN = 4096;
constexpr dist::index_t kBlock = 32;

dist::Distribution layout() {
  return dist::Distribution::block_cyclic(dist::Shape({kN}),
                                          dist::ProcessGrid({kProcs}), kBlock);
}

dist::DistArray<Element> make_array(const dist::Distribution& d,
                                    Element offset = 0) {
  std::vector<Element> data(static_cast<std::size_t>(d.global().size()));
  std::iota(data.begin(), data.end(), offset + 1);
  return dist::DistArray<Element>::scatter(d, data);
}

dist::DistArray<mask_t> make_mask_array(const dist::Distribution& d,
                                        double density, std::uint64_t seed) {
  return dist::DistArray<mask_t>::scatter(
      d, random_mask(d.global().size(), density, seed));
}

Server::Options base_options() {
  Server::Options opt;
  opt.nprocs = kProcs;
  opt.cost = sim::CostModel{10.0, 0.1, 0.01};
  opt.start_paused = true;
  return opt;
}

PackRequest pack_req(const std::string& tenant, const std::string& array,
                     dist::DistArray<mask_t> mask) {
  PackRequest r;
  r.tenant = tenant;
  r.array = array;
  r.mask = std::move(mask);
  return r;
}

/// Stages one deterministic mixed trace (paused submission) and returns
/// the responses in submission order.  `seeds[i]` also selects which
/// tenant ("a"/"b") and which of its arrays the i-th request targets.
std::vector<Response> run_trace(Server& server, int requests,
                                std::uint64_t seed_base) {
  const auto d = layout();
  std::vector<std::future<Response>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const std::string tenant = (i % 2 == 0) ? "a" : "b";
    futures.push_back(server.submit(pack_req(
        tenant, "x", make_mask_array(d, 0.4, seed_base + 31ULL * i))));
  }
  server.resume();
  server.drain();
  std::vector<Response> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

void register_two_tenants(Server& server) {
  const auto d = layout();
  server.register_tenant("a");
  server.register_tenant("b");
  server.register_array("a", "x", make_array(d, 0));
  server.register_array("b", "x", make_array(d, 1000));
}

TEST(ServiceDigest, StreamedDigestEqualsGatheredDigest) {
  sim::Machine machine(kProcs, sim::CostModel{10.0, 0.1, 0.01});
  const auto d = layout();
  const auto array = make_array(d);

  // Ragged block1d PACK result: a selected count P does not divide.
  std::vector<mask_t> host = random_mask(kN, 0.4, 0xd16e);
  if (std::count(host.begin(), host.end(), mask_t{1}) % kProcs == 0) {
    host[0] = host[0] != 0 ? 0 : 1;
  }
  const auto mask = dist::DistArray<mask_t>::scatter(d, host);
  const auto packed = pup::pack(machine, array, mask);
  ASSERT_NE(packed.size % kProcs, 0);
  EXPECT_EQ(service::result_digest(packed.vector, packed.size),
            service::result_digest(packed.vector.gather(), packed.size));

  // Empty result: a density-0 PACK.
  const auto empty = pup::pack(machine, array, make_mask_array(d, 0.0, 1));
  ASSERT_EQ(empty.size, 0);
  EXPECT_EQ(service::result_digest(empty.vector, 0),
            service::result_digest(empty.vector.gather(), 0));

  // Block-cyclic 2-D UNPACK result (ranking needs P_k*W_k | N_k here).
  const auto d2 = dist::Distribution(dist::Shape({24, 16}),
                                     dist::ProcessGrid({2, 4}), {3, 2});
  const auto field = make_array(d2, 500);
  const auto mask2 = make_mask_array(d2, 0.5, 0xbeef);
  const auto v = pup::pack(machine, make_array(d2), mask2).vector;
  const auto unpacked = pup::unpack(machine, v, mask2, field);
  EXPECT_EQ(service::result_digest(unpacked.result, unpacked.size),
            service::result_digest(unpacked.result.gather(), unpacked.size));
}

TEST(ServiceAdmission, RejectsOverQuotaTenantDeterministically) {
  auto opt = base_options();
  opt.tenant_inflight_quota = 2;
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();

  // Paused scheduler: nothing completes, so the third..fifth submissions
  // of tenant "a" must be rejected -- exactly those, every run.
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(server.submit(pack_req("a", "x",
                                          make_mask_array(d, 0.5, 7 + i))));
  }
  // Tenant "b" has its own quota and is unaffected by "a"'s pressure.
  auto b_fut = server.submit(pack_req("b", "x", make_mask_array(d, 0.5, 99)));

  for (int i = 2; i < 5; ++i) {
    ASSERT_EQ(futs[static_cast<std::size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready);
    const Response r = futs[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, Status::kRejected);
    EXPECT_EQ(r.reason, RejectReason::kInFlightQuota);
  }
  server.resume();
  server.drain();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().status, Status::kOk);
  }
  EXPECT_EQ(b_fut.get().status, Status::kOk);

  const auto a_stats = server.tenant_stats("a");
  EXPECT_EQ(a_stats.admitted, 2);
  EXPECT_EQ(a_stats.rejected_quota, 3);
  EXPECT_EQ(a_stats.completed, 2);
  const auto b_stats = server.tenant_stats("b");
  EXPECT_EQ(b_stats.rejected_quota, 0);
  EXPECT_EQ(b_stats.completed, 1);
  server.shutdown();
}

TEST(ServiceAdmission, RejectsOverBudgetAndMalformedRequests) {
  auto opt = base_options();
  const auto d = layout();
  // Budget fits exactly two in-flight pack requests of this layout.
  const std::size_t per_request =
      static_cast<std::size_t>(d.global().size()) *
      (sizeof(mask_t) + sizeof(Element));
  opt.byte_budget = 2 * per_request;
  Server server(opt);
  register_two_tenants(server);

  auto f1 = server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 1)));
  auto f2 = server.submit(pack_req("b", "x", make_mask_array(d, 0.5, 2)));
  auto f3 = server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 3)));
  const Response over = f3.get();
  EXPECT_EQ(over.status, Status::kRejected);
  EXPECT_EQ(over.reason, RejectReason::kByteBudget);

  // Typed rejections for unknown names and malformed requests.
  EXPECT_EQ(server.submit(pack_req("ghost", "x", make_mask_array(d, 0.5, 4)))
                .get()
                .reason,
            RejectReason::kUnknownTenant);
  EXPECT_EQ(server.submit(pack_req("a", "nope", make_mask_array(d, 0.5, 5)))
                .get()
                .reason,
            RejectReason::kUnknownArray);
  PackRequest bad = pack_req("a", "x", make_mask_array(d, 0.5, 6));
  bad.scheme = PackScheme::kAuto;
  EXPECT_EQ(server.submit(std::move(bad)).get().reason,
            RejectReason::kBadRequest);
  const auto other = dist::Distribution::block_cyclic(
      dist::Shape({kN}), dist::ProcessGrid({kProcs}), kBlock * 2);
  EXPECT_EQ(server.submit(pack_req("a", "x",
                                   make_mask_array(other, 0.5, 7)))
                .get()
                .reason,
            RejectReason::kBadRequest);

  server.resume();
  server.drain();
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOk);
  EXPECT_EQ(server.stats().bytes_in_flight, 0u);
  EXPECT_EQ(server.stats().peak_bytes_in_flight, 2 * per_request);
  server.shutdown();
}

TEST(ServiceScheduler, WindowFusionMatchesSingletonDigestsWithFewerStartups) {
  constexpr int kRequests = 8;

  // Singleton reference: window 0, pure FIFO.
  auto singleton_opt = base_options();
  singleton_opt.window_us = 0.0;
  Server singleton(singleton_opt);
  register_two_tenants(singleton);
  const auto singleton_responses = run_trace(singleton, kRequests, 0x5eed);
  const std::int64_t singleton_prs =
      singleton.machine().trace().messages_in(sim::Category::kPrs);
  singleton.shutdown();

  // Fused: a window wide enough that the staged queue fuses into batches.
  auto fused_opt = base_options();
  fused_opt.window_us = 2000.0;
  fused_opt.max_batch = kRequests;
  Server fused(fused_opt);
  register_two_tenants(fused);
  const auto fused_responses = run_trace(fused, kRequests, 0x5eed);
  const std::int64_t fused_prs =
      fused.machine().trace().messages_in(sim::Category::kPrs);

  ASSERT_EQ(singleton_responses.size(), fused_responses.size());
  for (std::size_t i = 0; i < fused_responses.size(); ++i) {
    ASSERT_EQ(singleton_responses[i].status, Status::kOk);
    ASSERT_EQ(fused_responses[i].status, Status::kOk);
    // Bit-identical results, request by request.
    EXPECT_EQ(fused_responses[i].digest, singleton_responses[i].digest);
    EXPECT_EQ(fused_responses[i].selected, singleton_responses[i].selected);
    EXPECT_FALSE(singleton_responses[i].fused);
    EXPECT_TRUE(fused_responses[i].fused);
    EXPECT_EQ(fused_responses[i].batch_size,
              static_cast<std::size_t>(kRequests));
  }
  // One fused batch of B=8 charges at most half the PRS startups (PR 3's
  // guarantee for B >= 4).
  EXPECT_LE(2 * fused_prs, singleton_prs);
  EXPECT_EQ(fused.stats().batches, 1);
  EXPECT_EQ(fused.stats().fused_requests, kRequests);
  // The shared cache compiled one plan and served both tenants from it.
  EXPECT_EQ(fused.plan_cache().stats().misses, 1);
  EXPECT_EQ(fused.tenant_stats("a").fused, kRequests / 2);
  EXPECT_EQ(fused.tenant_stats("b").fused, kRequests / 2);
  fused.shutdown();
}

TEST(ServiceScheduler, IncompatibleRequestsFallBackToSingletons) {
  auto opt = base_options();
  opt.window_us = 1000.0;
  Server server(opt);
  server.register_tenant("a");
  const auto d1 = layout();
  const auto d2 = dist::Distribution::block_cyclic(
      dist::Shape({kN}), dist::ProcessGrid({kProcs}), kBlock * 2);
  server.register_array("a", "x", make_array(d1));
  server.register_array("a", "y", make_array(d2, 500));

  // Different layouts -> different fuse keys -> nothing fuses even with a
  // window open; the scheduler falls back to singleton execution.
  auto f1 = server.submit(pack_req("a", "x", make_mask_array(d1, 0.5, 1)));
  auto f2 = server.submit(pack_req("a", "y", make_mask_array(d2, 0.5, 2)));
  server.resume();
  server.drain();
  const Response r1 = f1.get();
  const Response r2 = f2.get();
  EXPECT_EQ(r1.status, Status::kOk);
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_FALSE(r1.fused);
  EXPECT_FALSE(r2.fused);
  EXPECT_EQ(server.stats().batches, 2);
  server.shutdown();
}

TEST(ServiceScheduler, UnpackRoundTripThroughServer) {
  auto opt = base_options();
  opt.start_paused = false;
  Server server(opt);
  server.register_tenant("a");
  const auto d = layout();
  server.register_array("a", "field", make_array(d));

  // PACK then UNPACK the packed vector back into the field: the round
  // trip must report the same selected count.
  auto mask = make_mask_array(d, 0.5, 0xf00d);
  auto packed = pup::pack(server.machine(), make_array(d), mask);
  // (Direct library call above runs on this thread while the server is
  // idle; it seeds the unpack input without going through the queue.)
  UnpackRequest ur;
  ur.tenant = "a";
  ur.field = "field";
  ur.mask = mask;
  ur.vector = packed.vector;
  const Response r = server.submit(std::move(ur)).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.selected, packed.size);
  EXPECT_FALSE(r.fused);
  server.shutdown();
}

TEST(ServiceRecovery, ScopedKillLeavesAllTenantsBitIdenticalToFaultFree) {
  constexpr int kRequests = 6;

  // Fault-free reference digests.
  auto ref_opt = base_options();
  ref_opt.window_us = 1000.0;
  ref_opt.max_batch = 4;
  Server reference(ref_opt);
  register_two_tenants(reference);
  const auto expected = run_trace(reference, kRequests, 0xabc);
  reference.shutdown();

  // Same trace with a fail-stop kill striking mid-PRS during the first
  // epoch the scheduler executes, and recovery enabled: the executor
  // rolls the epoch back and re-executes, so every tenant's response --
  // including the tenants sharing the fused batch with the killed epoch
  // -- is bit-identical to the fault-free run.
  auto faulty_opt = base_options();
  faulty_opt.window_us = 1000.0;
  faulty_opt.max_batch = 4;
  faulty_opt.recovery.max_restarts = 3;
  Server faulty(faulty_opt);
  register_two_tenants(faulty);
  faulty.machine().set_fault_plan(
      sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
  const auto actual = run_trace(faulty, kRequests, 0xabc);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(expected[i].status, Status::kOk);
    ASSERT_EQ(actual[i].status, Status::kOk) << actual[i].message;
    EXPECT_EQ(actual[i].digest, expected[i].digest) << "request " << i;
    EXPECT_EQ(actual[i].selected, expected[i].selected);
  }
  EXPECT_GE(faulty.recovery_stats().restarts, 1);
  EXPECT_GE(faulty.recovery_stats().rank_failures, 1);
  EXPECT_EQ(faulty.stats().failed, 0);
  faulty.shutdown();
}

TEST(ServiceRecovery, DisabledRecoveryFailsTypedNotCrashed) {
  auto opt = base_options();
  Server server(opt);
  register_two_tenants(server);
  server.machine().set_fault_plan(
      sim::FaultPlan::parse("seed=11 kill=2 after=9 phase=prs"));
  const auto d = layout();
  auto f = server.submit(pack_req("a", "x", make_mask_array(d, 0.4, 0xabc)));
  server.resume();
  server.drain();
  const Response r = f.get();
  EXPECT_EQ(r.status, Status::kFailed);
  EXPECT_FALSE(r.message.empty());
  EXPECT_EQ(server.stats().failed, 1);
  server.shutdown();
}

TEST(ServicePool, MixedTraceParityBetweenSequentialAndPool) {
  constexpr int kRequests = 8;
  std::map<int, std::vector<Response>> responses;
  std::map<int, std::int64_t> prs_msgs;
  std::map<int, std::int64_t> total_msgs;
  for (const int threads : {1, 4}) {
    auto opt = base_options();
    opt.window_us = 1500.0;
    opt.max_batch = 4;
    opt.threads = threads;
    Server server(opt);
    register_two_tenants(server);
    responses[threads] = run_trace(server, kRequests, 0x777);
    prs_msgs[threads] =
        server.machine().trace().messages_in(sim::Category::kPrs);
    total_msgs[threads] = server.machine().trace().messages();
    EXPECT_EQ(server.machine().exec().threads, threads);
    server.shutdown();
  }
  ASSERT_EQ(responses[1].size(), responses[4].size());
  for (std::size_t i = 0; i < responses[1].size(); ++i) {
    ASSERT_EQ(responses[1][i].status, Status::kOk);
    ASSERT_EQ(responses[4][i].status, Status::kOk);
    EXPECT_EQ(responses[1][i].digest, responses[4][i].digest);
    EXPECT_EQ(responses[1][i].selected, responses[4][i].selected);
  }
  EXPECT_EQ(prs_msgs[1], prs_msgs[4]);
  EXPECT_EQ(total_msgs[1], total_msgs[4]);
}

TEST(ServiceOptions, NonPositiveThreadsAndNonSimBackendThrow) {
  // A thread count below one is a caller bug, not a request for the
  // sequential default; only threads = 1 means sequential.
  for (const int threads : {0, -1}) {
    auto opt = base_options();
    opt.threads = threads;
    EXPECT_THROW(Server{opt}, ContractError) << "threads=" << threads;
  }
  {
    auto opt = base_options();
    opt.threads = 1;
    Server server(opt);
    EXPECT_FALSE(server.machine().exec().is_threaded());
    server.shutdown();
  }
  // The simulator is the only data path: "threads" must fail loudly
  // rather than silently run on the simulator.
  auto opt = base_options();
  opt.backend = "threads";
  EXPECT_THROW(Server{opt}, ContractError);
  opt.backend = "sim";
  Server server(opt);
  server.shutdown();
}

TEST(ServiceIsolation, TwoServersWithDifferentOptionsDoNotInterfere) {
  // Constructor injection instead of process-env mutation: one sequential
  // server and one server on a 4-thread pool run concurrently in one
  // process, serving interleaved traffic, and each
  // must behave per its own options -- the regression the Env satellite
  // guards (per-call getenv or env mutation would cross-contaminate).
  auto opt_a = base_options();
  opt_a.start_paused = false;
  opt_a.threads = 1;
  auto opt_b = base_options();
  opt_b.start_paused = false;
  opt_b.threads = 4;
  Server a(opt_a);
  Server b(opt_b);
  const auto d = layout();
  for (Server* s : {&a, &b}) {
    s->register_tenant("t");
    s->register_array("t", "x", make_array(d));
  }
  EXPECT_FALSE(a.machine().exec().is_threaded());
  EXPECT_EQ(b.machine().exec().threads, 4);

  std::vector<std::future<Response>> fa;
  std::vector<std::future<Response>> fb;
  for (int i = 0; i < 4; ++i) {
    fa.push_back(a.submit(pack_req("t", "x", make_mask_array(d, 0.3, 10 + i))));
    fb.push_back(b.submit(pack_req("t", "x", make_mask_array(d, 0.3, 10 + i))));
  }
  a.drain();
  b.drain();
  for (int i = 0; i < 4; ++i) {
    const Response ra = fa[static_cast<std::size_t>(i)].get();
    const Response rb = fb[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(ra.status, Status::kOk);
    ASSERT_EQ(rb.status, Status::kOk);
    // Same request, same modeled machine: results agree across servers.
    EXPECT_EQ(ra.digest, rb.digest);
  }
  a.shutdown();
  b.shutdown();
}

TEST(ServiceIsolation, EnvOverrideSteersSnapshotWithoutSetenv) {
  // Snapshot override without process-env mutation, and refresh() undoes
  // it.  (Servers constructed with explicit Options never consult these;
  // the override exists for consumers that do read the snapshot.)
  const auto before = support::Env::get().threads;
  support::Env::override_for_testing("PUP_THREADS", std::string("7"));
  ASSERT_TRUE(support::Env::get().threads.has_value());
  EXPECT_EQ(*support::Env::get().threads, "7");
  EXPECT_EQ(sim::ExecPolicy::from_env().threads, 7);
  support::Env::refresh();
  EXPECT_EQ(support::Env::get().threads, before);
  EXPECT_THROW(
      support::Env::override_for_testing("PUP_NOPE", std::string("1")),
      ContractError);
}

TEST(ServiceShutdown, LateSubmitsRejectShutdownAndDrainedWorkCompletes) {
  auto opt = base_options();
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();
  auto f1 = server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 1)));
  server.resume();
  server.drain();     // callers that want queued work completed drain first
  server.shutdown();
  EXPECT_EQ(f1.get().status, Status::kOk);
  const Response late =
      server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 2))).get();
  EXPECT_EQ(late.status, Status::kRejected);
  EXPECT_EQ(late.reason, RejectReason::kShutdown);
}

TEST(ServiceShutdown, QueuedAtShutdownResolvesDeterministicallyEvenPaused) {
  // The S2 contract: shutdown() resolves every still-queued future with
  // Rejected{kShutdown} -- never executes, blocks on, or leaks a promise
  // -- even when the scheduler is paused and could never drain the queue.
  auto opt = base_options();  // start_paused
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(
        server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 20 + i))));
  }
  server.shutdown();  // never resumed: the queue is dropped, not drained
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Response r = f.get();
    EXPECT_EQ(r.status, Status::kRejected);
    EXPECT_EQ(r.reason, RejectReason::kShutdown);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.shed, 4);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.bytes_in_flight, 0u);
  EXPECT_EQ(server.tenant_stats("a").shed, 4);
}

TEST(ServiceShutdown, SubmitDuringShutdownStressEveryFutureResolvesTyped) {
  // Hammer submit() from several client threads while another thread tears
  // the server down: every future must resolve typed (kOk before the stop,
  // Rejected{kShutdown} at/after it), and nothing may hang or leak.
  auto opt = base_options();
  opt.start_paused = false;
  opt.tenant_inflight_quota = 1 << 20;
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();
  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::vector<std::vector<std::future<Response>>> futs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        futs[static_cast<std::size_t>(t)].push_back(server.submit(pack_req(
            t % 2 == 0 ? "a" : "b", "x",
            make_mask_array(d, 0.3, 100ULL * t + i))));
      }
    });
  }
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.shutdown();
  });
  for (auto& c : clients) c.join();
  killer.join();
  std::int64_t ok = 0;
  std::int64_t refused = 0;
  for (auto& per_thread : futs) {
    for (auto& f : per_thread) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a future leaked through shutdown";
      const Response r = f.get();
      if (r.status == Status::kOk) {
        ++ok;
      } else {
        ASSERT_EQ(r.status, Status::kRejected);
        EXPECT_EQ(r.reason, RejectReason::kShutdown);
        ++refused;
      }
    }
  }
  EXPECT_EQ(ok + refused, kClients * kPerClient);
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.admitted,
            stats.completed + stats.failed + stats.shed + stats.cancelled);
  EXPECT_EQ(stats.bytes_in_flight, 0u);
}

TEST(ServiceDeadline, ExpiredQueuedRequestsShedBeforeMachineTime) {
  auto opt = base_options();  // start_paused stages the queue
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();
  PackRequest doomed = pack_req("a", "x", make_mask_array(d, 0.5, 1));
  doomed.deadline_us = 50.0;  // expires while the scheduler is paused
  auto f_doomed = server.submit(std::move(doomed));
  auto f_live = server.submit(pack_req("b", "x", make_mask_array(d, 0.5, 2)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double modeled_before = server.machine().modeled_total_us();
  server.resume();
  server.drain();
  const Response dead = f_doomed.get();
  EXPECT_EQ(dead.status, Status::kDeadlineExceeded);
  EXPECT_EQ(f_live.get().status, Status::kOk);
  // Exactly one dispatch spent machine time; the expired request cost none.
  EXPECT_EQ(server.stats().batches, 1);
  EXPECT_EQ(server.stats().deadline_misses, 1);
  EXPECT_EQ(server.tenant_stats("a").deadline_misses, 1);
  EXPECT_GT(server.machine().modeled_total_us(), modeled_before);
  EXPECT_EQ(server.stats().bytes_in_flight, 0u);

  // Negative deadlines are malformed, typed at admission.
  PackRequest bad = pack_req("a", "x", make_mask_array(d, 0.5, 3));
  bad.deadline_us = -1.0;
  const Response r = server.submit(std::move(bad)).get();
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reason, RejectReason::kBadRequest);
  server.shutdown();
}

TEST(ServiceCancel, QueuedCancelResolvesImmediatelyAndBalances) {
  auto opt = base_options();  // paused: both requests still queued
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();
  auto keep = server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 1)));
  auto victim =
      server.submit_tracked(pack_req("b", "x", make_mask_array(d, 0.5, 2)));
  ASSERT_NE(victim.id, 0u);
  EXPECT_TRUE(server.cancel(victim.id));
  ASSERT_EQ(victim.response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(victim.response.get().status, Status::kCancelled);
  EXPECT_FALSE(server.cancel(victim.id));  // already resolved
  EXPECT_FALSE(server.cancel(0));          // never a valid id
  server.resume();
  server.drain();
  EXPECT_EQ(keep.get().status, Status::kOk);
  const auto stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.bytes_in_flight, 0u);
  EXPECT_EQ(server.tenant_stats("b").cancelled, 1);
  server.shutdown();
}

TEST(ServiceCancel, ExecutingCancelResolvesTypedAndMachineStaysClean) {
  // Options::cancellation arms a token for every dispatch, so cancel(id)
  // of an *executing* request trips at the next round boundary and rolls
  // back.  Completion can win the race (the documented contract), so the
  // assertion is typed resolution + exact accounting + a clean machine --
  // the next request must produce the untainted digest either way.
  auto opt = base_options();
  opt.cancellation = true;
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();

  // Reference digest from an uncontested run of the same request.
  auto ref =
      server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 77)));
  server.resume();
  server.drain();
  const Response ref_r = ref.get();
  ASSERT_EQ(ref_r.status, Status::kOk);

  auto sub =
      server.submit_tracked(pack_req("a", "x", make_mask_array(d, 0.5, 78)));
  server.cancel(sub.id);  // may land queued, executing, or too late
  server.drain();
  const Response r = sub.response.get();
  ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kCancelled)
      << status_name(r.status);
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed + stats.cancelled, 2);
  EXPECT_EQ(stats.bytes_in_flight, 0u);

  // Whatever happened, the machine rolled back (or completed) clean: the
  // same mask packs to the reference digest.
  const Response again =
      server.submit(pack_req("a", "x", make_mask_array(d, 0.5, 77))).get();
  ASSERT_EQ(again.status, Status::kOk);
  EXPECT_EQ(again.digest, ref_r.digest);
  server.shutdown();
}

TEST(ServiceOverload, PressureShedsLowestPriorityOldestFirst) {
  auto opt = base_options();  // paused: the queue is the pressure source
  const auto d = layout();
  const double per_request =
      static_cast<double>(d.global().size()) *
      (sizeof(mask_t) + sizeof(Element));
  // Pressure = depth x queued bytes; the limit admits a staged queue of
  // three requests (9 x per_request) and sheds on the fourth (16 x).
  opt.overload_factor =
      9.0 * per_request / static_cast<double>(opt.byte_budget);
  Server server(opt);
  server.register_tenant("crit", std::nullopt,
                         service::Priority::kCritical);
  server.register_tenant("bulk", std::nullopt,
                         service::Priority::kBestEffort);
  server.register_array("crit", "x", make_array(d, 0));
  server.register_array("bulk", "x", make_array(d, 1000));

  std::vector<std::future<Response>> bulk;
  for (int i = 0; i < 3; ++i) {
    bulk.push_back(
        server.submit(pack_req("bulk", "x", make_mask_array(d, 0.5, 30 + i))));
  }
  // The critical arrival pushes pressure over the limit; the shed victim
  // must be the *oldest best-effort* request, never the critical one.
  auto crit = server.submit(pack_req("crit", "x", make_mask_array(d, 0.5, 9)));
  ASSERT_EQ(bulk[0].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Response shed = bulk[0].get();
  EXPECT_EQ(shed.status, Status::kRejected);
  EXPECT_EQ(shed.reason, RejectReason::kOverload);
  EXPECT_NE(crit.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  server.resume();
  server.drain();
  EXPECT_EQ(crit.get().status, Status::kOk);
  EXPECT_EQ(bulk[1].get().status, Status::kOk);
  EXPECT_EQ(bulk[2].get().status, Status::kOk);
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.bytes_in_flight, 0u);
  EXPECT_EQ(server.tenant_stats("bulk").shed, 1);
  EXPECT_EQ(server.tenant_stats("crit").shed, 0);
  server.shutdown();
}

TEST(ServiceBrownout, SustainedQueueWaitCollapsesWindowThenServesAll) {
  auto opt = base_options();  // paused: staged queue ages past the bound
  opt.window_us = 5000.0;
  opt.max_batch = 2;
  opt.brownout_p95_us = 500.0;
  opt.tenant_inflight_quota = 64;
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();
  constexpr int kRequests = 12;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < kRequests; ++i) {
    futs.push_back(
        server.submit(pack_req("a", "x", make_mask_array(d, 0.4, 40 + i))));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  server.resume();
  server.drain();
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  const auto stats = server.stats();
  // Every staged request waited >> the p95 bound, so the brown-out engaged
  // once enough dispatches sampled it, collapsed the window, and the tail
  // of the queue drained as singletons: strictly more dispatches than the
  // all-fused kRequests / max_batch.
  EXPECT_GE(stats.brownouts, 1);
  EXPECT_GT(stats.batches, kRequests / 2);
  EXPECT_EQ(stats.completed, kRequests);
  server.shutdown();
}

TEST(ServiceWatchdog, ModeledCostBlowupTripsTypedWatchdogTimeout) {
  // The watchdog budget is watchdog_factor x the learned *modeled* cost
  // baseline for the plan key -- deterministic, wall-clock-free.  A sparse
  // mask teaches a cheap baseline; a dense mask under the same plan key
  // then models over twice the traffic and must trip at a round boundary
  // instead of charging it through.
  auto opt = base_options();
  opt.watchdog_factor = 1.5;
  Server server(opt);
  register_two_tenants(server);
  const auto d = layout();

  auto cheap = server.submit(pack_req("a", "x", make_mask_array(d, 0.02, 1)));
  server.resume();
  server.drain();
  ASSERT_EQ(cheap.get().status, Status::kOk);  // baseline learned

  auto heavy = server.submit(pack_req("a", "x", make_mask_array(d, 0.95, 2)));
  server.drain();
  const Response r = heavy.get();
  EXPECT_EQ(r.status, Status::kWatchdogTimeout);
  EXPECT_FALSE(r.message.empty());
  EXPECT_EQ(server.stats().watchdog_trips, 1);
  EXPECT_EQ(server.tenant_stats("a").watchdog_trips, 1);

  // The trip rolled back: the machine still serves the cheap shape, and
  // its success refreshes the baseline rather than poisoning it.
  const Response again =
      server.submit(pack_req("a", "x", make_mask_array(d, 0.02, 1))).get();
  EXPECT_EQ(again.status, Status::kOk);
  EXPECT_EQ(server.stats().bytes_in_flight, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace pup
