// service_mix: one service::Server under a closed loop.
//
// Server: P = 8, N = 32,768, sequential local phases, window_us = 500,
// max_batch = 8, quotas and byte budget sized to admit everything.  Three
// tenants a, b, c each register layout x (block-cyclic W = 32, fusable
// across tenants); tenant c also registers layout y (W = 64, never fuses
// with x).  One submitting thread keeps 16 requests outstanding and waits
// for the oldest before it sends the next:
//
//   75% PACK on x (tenant a, b or c), 10% PACK on y (tenant c),
//   15% UNPACK on x (tenant a, b or c).
//
// Masks come from a seeded pool of 32 with densities 10% to 90%, so the
// plan working set -- 2 pack plans and up to 32 unpack plans (one per
// vector length) -- fits the default plan cache.  Every response digest is
// compared with the oracle digest precomputed for its mask.
#include <malloc.h>

#include <deque>
#include <future>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/api.hpp"
#include "plan/executor.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "service/server.hpp"
#include "spans.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

namespace svc = pup::service;
using pup::mask_t;
using pup::dist::DistArray;
using pup::dist::Distribution;
using pup::dist::ProcessGrid;
using pup::dist::Shape;
using Elem = svc::Element;

constexpr int kProcs = 8;
constexpr std::int64_t kN = 32768;
constexpr std::size_t kPool = 32;
constexpr std::size_t kOutstanding = 16;
constexpr double kMaxLoopSeconds = 120.0;

enum class Kind { kPackX, kPackY, kUnpackX };

struct Request {
  Kind kind = Kind::kPackX;
  const char* tenant = "a";
  std::size_t mask = 0;
};

/// The seeded request stream: kind, tenant and pool mask of each request.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(derive_seed(seed, 7)) {}
  Request next() {
    static const char* const kTenants[] = {"a", "b", "c"};
    Request r;
    const double u = rng_.next_double();
    r.kind = u < 0.75 ? Kind::kPackX : u < 0.85 ? Kind::kPackY : Kind::kUnpackX;
    r.tenant = r.kind == Kind::kPackY ? "c" : kTenants[rng_.next_below(3)];
    r.mask = static_cast<std::size_t>(rng_.next_below(kPool));
    return r;
  }

 private:
  pup::Xoshiro256 rng_;
};

Distribution layout_x() {
  return Distribution::block_cyclic(Shape({kN}), ProcessGrid({kProcs}), 32);
}
Distribution layout_y() {
  return Distribution::block_cyclic(Shape({kN}), ProcessGrid({kProcs}), 64);
}

struct HostInputs {
  std::vector<Elem> data_x;
  std::vector<Elem> data_y;
  std::vector<std::vector<mask_t>> masks;
};

HostInputs generate(std::uint64_t seed) {
  HostInputs in;
  in.data_x = random_elems(kN, derive_seed(seed, 0));
  in.data_y = random_elems(kN, derive_seed(seed, 1));
  for (std::size_t i = 0; i < kPool; ++i) {
    const double density = 0.1 + 0.8 * static_cast<double>(i) / (kPool - 1);
    in.masks.push_back(
        pup::random_mask(kN, density, derive_seed(seed, 200 + i)));
  }
  return in;
}

/// One pool mask, laid out for both layouts, with its oracle digests.
struct PoolEntry {
  DistArray<mask_t> mask_x;
  DistArray<mask_t> mask_y;
  DistArray<Elem> vector;  ///< UNPACK input (length = selected count)
  std::int64_t selected = 0;
  std::uint64_t digest_pack_x = 0;
  std::uint64_t digest_pack_y = 0;
  std::uint64_t digest_unpack_x = 0;
};

struct State {
  HostInputs in;
  std::vector<PoolEntry> pool;
  std::unique_ptr<svc::Server> server;
};

struct InFlight {
  std::future<svc::Response> response;
  std::uint64_t expect = 0;
  bool pack = true;
};

InFlight submit(State& s, const Request& r) {
  const PoolEntry& e = s.pool[r.mask];
  InFlight f;
  switch (r.kind) {
    case Kind::kPackX:
      f.expect = e.digest_pack_x;
      f.response = s.server->submit(svc::PackRequest{
          r.tenant, "x", e.mask_x, pup::PackScheme::kCompactMessage, 0.0});
      break;
    case Kind::kPackY:
      f.expect = e.digest_pack_y;
      f.response = s.server->submit(svc::PackRequest{
          r.tenant, "y", e.mask_y, pup::PackScheme::kCompactMessage, 0.0});
      break;
    case Kind::kUnpackX:
      f.pack = false;
      f.expect = e.digest_unpack_x;
      f.response = s.server->submit(svc::UnpackRequest{
          r.tenant, "x", e.mask_x, e.vector,
          pup::UnpackScheme::kCompactStorage, 0.0});
      break;
  }
  return f;
}

struct Loop {
  OpTimes times;  ///< request latencies
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  double bytes_computed = 0.0;  ///< summed over responses
  // The servers' own counters over the loop's requests.
  std::int64_t completed = 0;
  std::int64_t batches = 0;
  std::int64_t fused = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  Accounting acct;
  double local_us = 0.0;  ///< summed over ranks
};

/// The closed loop: kOutstanding requests in flight, the next sent only
/// when the oldest has answered, for `seconds` and until `loop` holds
/// `min_samples` responses.  Appends to `loop`; the server is drained
/// before and after.
void closed_loop(State& s, RequestStream& stream, double seconds,
                 std::size_t min_samples, Sheet& sheet, Loop& loop) {
  svc::Server& server = *s.server;
  pup::sim::Machine& m = server.machine();
  m.reset_accounting();
  const svc::ServerStats st0 = server.stats();
  const auto cache0 = server.plan_cache().stats();
  std::deque<InFlight> ring;
  bool stop = false;
  const auto start = Clock::now();
  auto prev = start;
  while (true) {
    while (!stop && ring.size() < kOutstanding) {
      ring.push_back(submit(s, stream.next()));
    }
    if (ring.empty()) break;
    const svc::Response r = ring.front().response.get();
    const InFlight f = std::move(ring.front());
    ring.pop_front();
    ++sheet.attempted;
    sheet.expect(r.status == svc::Status::kOk, false,
                 std::string("response status ") + svc::status_name(r.status) +
                 ": " + r.message);
    if (r.status == svc::Status::kOk) {
      sheet.expect(r.digest == f.expect, true,
                   "response digest differs from the oracle digest");
    }
    const auto now = Clock::now();
    loop.times.add(r.latency_us, us_between(prev, now));
    prev = now;
    loop.queue_us.push_back(r.queue_us);
    loop.exec_us.push_back(r.exec_us);
    loop.bytes_computed += bytes_computed(f.pack, kN, r.selected);
    if (!stop) {
      const double elapsed = us_between(start, now) * 1e-6;
      stop = elapsed >= kMaxLoopSeconds ||
             (elapsed >= seconds && loop.times.size() >= min_samples);
    }
  }
  server.drain();

  const svc::ServerStats st = server.stats();
  const auto cache = server.plan_cache().stats();
  loop.completed += st.completed - st0.completed;
  loop.batches += st.batches - st0.batches;
  loop.fused += st.fused_requests - st0.fused_requests;
  loop.cache_hits += cache.hits - cache0.hits;
  loop.cache_lookups +=
      (cache.hits - cache0.hits) + (cache.misses - cache0.misses);
  loop.acct += accounting(m);
  for (int p = 0; p < m.nprocs(); ++p) loop.local_us += m.times(p).local_us();
}

std::unique_ptr<State> setup(const Args& args, Sheet& sheet) {
  auto s = std::make_unique<State>();
  s->in = generate(args.seed);
  const Distribution x = layout_x();
  const Distribution y = layout_y();
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto& mk = s->in.masks[i];
    PoolEntry e;
    e.mask_x = DistArray<mask_t>::scatter(x, mk);
    e.mask_y = DistArray<mask_t>::scatter(y, mk);
    const auto packed_x = pup::serial_pack<Elem>(s->in.data_x, mk);
    const auto packed_y = pup::serial_pack<Elem>(s->in.data_y, mk);
    e.selected = static_cast<std::int64_t>(packed_x.size());
    e.digest_pack_x = svc::result_digest(packed_x, e.selected);
    e.digest_pack_y = svc::result_digest(packed_y, e.selected);
    std::vector<Elem> v(packed_x.size());
    for (std::size_t j = 0; j < v.size(); ++j) v[j] = ~packed_x[j];
    e.vector = DistArray<Elem>::scatter(
        Distribution::block1d(e.selected, kProcs), v);
    e.digest_unpack_x = svc::result_digest(
        pup::serial_unpack<Elem>(v, mk, s->in.data_x), e.selected);
    s->pool.push_back(std::move(e));
  }
  if (args.corrupt_oracle) s->pool[0].digest_pack_x ^= 1;

  svc::Server::Options o;
  o.nprocs = kProcs;
  o.cost = pup::sim::CostModel::cm5();
  o.window_us = 500.0;
  o.max_batch = 8;
  o.tenant_inflight_quota = kOutstanding;
  o.threads = 1;
  o.backend = "sim";
  s->server = std::make_unique<svc::Server>(o);
  for (const char* t : {"a", "b", "c"}) {
    s->server->register_tenant(t);
    s->server->register_array(t, "x",
                              DistArray<Elem>::scatter(x, s->in.data_x));
  }
  s->server->register_array("c", "y",
                            DistArray<Elem>::scatter(y, s->in.data_y));

  // Warm-up: every pool mask once in each of the three request kinds, which
  // compiles the whole plan working set.
  std::vector<InFlight> warm;
  for (std::size_t i = 0; i < kPool; ++i) {
    warm.push_back(submit(*s, Request{Kind::kPackX, "a", i}));
    warm.push_back(submit(*s, Request{Kind::kPackY, "c", i}));
    warm.push_back(submit(*s, Request{Kind::kUnpackX, "b", i}));
    for (InFlight& f : warm) {
      const svc::Response r = f.response.get();
      ++sheet.attempted;
      sheet.expect(r.status == svc::Status::kOk && r.digest == f.expect,
                   r.status == svc::Status::kOk, "warm-up response");
    }
    warm.clear();
  }
  s->server->drain();
  return s;
}

/// Layer probes on a private machine with the server's configuration:
/// the ranking alone, plan compile and lookup, scatter, gather, and a
/// max_batch batch of x packs straight through plan::pack_batch.
void probe_layers(const State& s, Sheet& sheet) {
  auto m = make_machine(kProcs);
  const Distribution x = layout_x();
  constexpr int kWidth = sizeof(Elem);
  pup::PackOptions opt;
  opt.scheme = pup::PackScheme::kCompactMessage;

  const auto sched = pup::compile_ranking_schedule(x, kProcs);
  sheet.set("core.ranking.us",
            median_time_us(kPool,
                           [&](std::size_t i) {
                             const DistArray<mask_t>* one = &s.pool[i].mask_x;
                             pup::rank_masks(*m, sched, {&one, 1});
                           }),
            "us");
  sheet.set("plan.compile_us", median_time_us(kPool, [&](std::size_t) {
              pup::plan::compile_pack_plan(*m, x, kWidth, opt);
            }),
            "us");
  pup::plan::PlanCache cache;
  cache.pack_plan(*m, x, kWidth, opt);
  sheet.set("plan.lookup_us", median_time_us(kPool, [&](std::size_t) {
              cache.pack_plan(*m, x, kWidth, opt);
            }),
            "us");
  sheet.set("dist.scatter_us", median_time_us(kPool, [&](std::size_t) {
              auto a = DistArray<Elem>::scatter(x, s.in.data_x);
              (void)a;
            }),
            "us");

  const auto plan = pup::plan::compile_pack_plan(*m, x, kWidth, opt);
  const DistArray<Elem> array = DistArray<Elem>::scatter(x, s.in.data_x);
  std::vector<DistArray<mask_t>> masks;
  for (std::size_t i = 0; i < 8; ++i) masks.push_back(s.pool[i].mask_x);
  const std::vector<DistArray<Elem>> arrays(masks.size(), array);
  std::vector<double> direct;
  std::vector<pup::PackResult<Elem>> results;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    results = pup::plan::pack_batch<Elem>(*m, plan, masks, arrays);
    direct.push_back(us_between(t0, Clock::now()) /
                     static_cast<double>(masks.size()));
    m->reset_accounting();
  }
  sheet.set("service.direct_us", median(direct), "us");
  sheet.set("dist.gather_us", median_time_us(kPool, [&](std::size_t) {
              auto g = results[0].vector.gather();
              (void)g;
            }),
            "us");
  ++sheet.attempted;
  sheet.expect(
      svc::result_digest(results[0].vector.gather(), results[0].size) ==
          s.pool[0].digest_pack_x,
      true, "pack_batch probe digest differs from the oracle digest");
}

}  // namespace

std::uint64_t service_inputs_digest(std::uint64_t seed) {
  const HostInputs in = generate(seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(in.data_x.data(), in.data_x.size() * sizeof(Elem), h);
  h = fnv(in.data_y.data(), in.data_y.size() * sizeof(Elem), h);
  for (const auto& mk : in.masks) h = fnv(mk.data(), mk.size(), h);
  RequestStream stream(seed);
  for (int i = 0; i < 1000; ++i) {
    const Request r = stream.next();
    const int words[3] = {static_cast<int>(r.kind), r.tenant[0],
                          static_cast<int>(r.mask)};
    h = fnv(words, sizeof(words), h);
  }
  return h;
}

void run_service_mix(const Args& args, Sheet& sheet) {
  // Each set-up is followed by an equal share of the untraced loop on the
  // server it built, so setup_s samples a drifting host over the same span
  // of time as op_us does.  One request stream runs through all of them.
  RequestStream stream(args.seed);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_s;
  std::unique_ptr<State> s;
  Loop loop;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = i == 0 ? args.process_start : Clock::now();
    // Hand the previous set-up's memory back before building the next, so
    // the peak RSS does not depend on how the allocator kept it.
    s.reset();
    malloc_trim(0);
    s = setup(args, sheet);
    setup_s.push_back(us_between(t0, Clock::now()) * 1e-6);
    const bool last = i == kSetups - 1;
    closed_loop(*s, stream, untraced_s / kSetups,
                last && !args.trace ? kMinSamples : 0, sheet, loop);
  }
  put_latency(sheet, loop.times);

  const double done = static_cast<double>(loop.completed);
  const double batches = static_cast<double>(loop.batches);
  put_accounting(sheet, loop.acct, done);
  sheet.set("core.kernels.bytes_computed", loop.bytes_computed / done, "B");
  sheet.set("core.kernels.ns_per_elem",
            loop.local_us * 1e3 / (done * static_cast<double>(kN)), "ns");
  sheet.set("service.queue_us.p50", median(loop.queue_us), "us");
  sheet.set("service.exec_us.p50", median(loop.exec_us), "us");
  sheet.set("service.batch_size.mean", batches > 0 ? done / batches : 0.0,
            "count");
  sheet.set("service.fusion_rate", static_cast<double>(loop.fused) / done,
            "frac");
  sheet.set("plan.cache_hit_rate",
            loop.cache_lookups > 0
                ? static_cast<double>(loop.cache_hits) /
                      static_cast<double>(loop.cache_lookups)
                : 0.0,
            "frac");
  sheet.note("service: " + std::to_string(loop.completed) + " requests in " +
             std::to_string(loop.batches) + " dispatches");

  if (args.trace) {
    const double untraced_p50 = sheet.find("op_us.p50")->value;
    pup::sim::Machine& m = s->server->machine();
    SpanRecorder rec;
    m.set_observer(&rec);  // idle: drained by the loop above
    Loop traced;
    closed_loop(*s, stream, args.seconds / 2, 0, sheet, traced);
    m.set_observer(nullptr);
    const double traced_p50 = median(least_disturbed(traced.times).op_us);
    sheet.set("trace.overhead_us", traced_p50 - untraced_p50, "us");
    sheet.note("traced op_us.p50 " + std::to_string(traced_p50) + " us over " +
               std::to_string(traced.times.size()) +
               " requests; untraced " + std::to_string(untraced_p50) + " us");
    put_span_metrics(sheet, rollup(rec.spans()), "service.execute");
    probe_layers(*s, sheet);
  }
  put_process_metrics(sheet, setup_s);
  s->server->shutdown();
}

}  // namespace perfbench
