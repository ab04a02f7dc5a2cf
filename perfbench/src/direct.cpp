// fig4_pack and cyclic2d_unpack: one library call at a time on one machine.
//
//   fig4_pack        pup::pack, CMS, N = 2^20 int64 over P = 16 (65,536 per
//                    rank), block-cyclic W = 1024, sequential local phases.
//   cyclic2d_unpack  pup::unpack, CSS, 512 x 512 int64 on a 4 x 4 grid,
//                    cyclic on both dimensions, sequential local phases.
//                    The vector is the mask's PACK.  (A threaded pool's
//                    wake-up tail left op_us.p99 too unsteady to gate.)
//
// Masks are seeded random at 50% density, taken in turn from a pool of
// eight.  Every operation's selected count, modeled time and message/byte
// counts must equal those of the first execution on the same mask; the
// first operation on each mask and every 251st timed one are compared
// element by element with the serial F90 oracle, outside the timed region.
#include <malloc.h>

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

namespace perfbench {
namespace {

using pup::mask_t;
using pup::dist::DistArray;
using pup::dist::Distribution;
using pup::dist::ProcessGrid;
using pup::dist::Shape;
using Elem = std::int64_t;

constexpr std::size_t kPool = 8;
// Prime, so the checks cycle through the pool; rare enough (0.4% of ops)
// that the ops slowed by a check's cache disturbance stay out of the p99.
constexpr std::size_t kCheckEvery = 251;
constexpr double kMaxLoopSeconds = 120.0;

struct Config {
  bool pack = true;
  Distribution dist;
  int nprocs = 16;
};

Config config_for(const std::string& workload) {
  if (workload == "fig4_pack") {
    return {true,
            Distribution::block_cyclic(Shape({std::int64_t{1} << 20}),
                                       ProcessGrid({16}), 1024),
            16};
  }
  return {false, Distribution::cyclic(Shape({512, 512}), ProcessGrid({4, 4})),
          16};
}

struct HostInputs {
  std::vector<Elem> data;   ///< PACK source (and UNPACK vector source)
  std::vector<Elem> field;  ///< UNPACK field; empty for PACK
  std::vector<std::vector<mask_t>> masks;
};

HostInputs generate(const Config& c, std::uint64_t seed) {
  const std::int64_t n = c.dist.global().size();
  HostInputs in;
  in.data = random_elems(n, derive_seed(seed, 0));
  if (!c.pack) in.field = random_elems(n, derive_seed(seed, 1));
  for (std::size_t k = 0; k < kPool; ++k) {
    in.masks.push_back(pup::random_mask(n, 0.5, derive_seed(seed, 100 + k)));
  }
  return in;
}

/// What one execution on a given mask must reproduce exactly.
struct Ref {
  std::int64_t size = 0;
  Accounting acct;
  friend bool operator==(const Ref&, const Ref&) = default;
};

struct State {
  Config cfg;
  HostInputs in;
  std::unique_ptr<pup::sim::Machine> machine;
  DistArray<Elem> array;
  DistArray<Elem> field;
  std::vector<DistArray<mask_t>> masks;
  std::vector<DistArray<Elem>> vectors;   ///< UNPACK inputs: PACK(array, m)
  std::vector<std::vector<Elem>> oracle;  ///< serial_pack / serial_unpack
  std::vector<Ref> refs;
};

pup::PackOptions pack_options() {
  pup::PackOptions o;
  o.scheme = pup::PackScheme::kCompactMessage;
  return o;
}

pup::UnpackOptions unpack_options() {
  pup::UnpackOptions o;
  o.scheme = pup::UnpackScheme::kCompactStorage;
  return o;
}

struct OpSample {
  double us = 0.0;
  double local_sum_us = 0.0;  ///< summed over ranks
  double check_us = 0.0;      ///< oracle time, excluded from the wall
};

/// One timed operation on pool entry k.  With `rec`, the call is wrapped in
/// a root span.  `check` compares the result with the oracle element by
/// element; the counts and modeled time are compared every time.
OpSample run_op(State& s, std::size_t k, bool check, Sheet& sheet,
                SpanRecorder* rec) {
  pup::sim::Machine& m = *s.machine;
  m.reset_accounting();
  OpSample out;
  ++sheet.attempted;
  std::vector<Elem> got;
  std::int64_t size = 0;
  const auto t0 = Clock::now();
  if (rec != nullptr) rec->begin_op("op");
  if (s.cfg.pack) {
    auto r = pup::pack<Elem>(m, s.array, s.masks[k], pack_options());
    if (rec != nullptr) rec->end_op();
    out.us = us_between(t0, Clock::now());
    size = r.size;
    if (check) got = r.vector.gather();
  } else {
    auto r = pup::unpack<Elem>(m, s.vectors[k], s.masks[k], s.field,
                               unpack_options());
    if (rec != nullptr) rec->end_op();
    out.us = us_between(t0, Clock::now());
    size = r.size;
    if (check) got = r.result.gather();
  }
  for (int p = 0; p < m.nprocs(); ++p) {
    out.local_sum_us += m.times(p).local_us();
  }

  const auto c0 = Clock::now();
  const Ref seen{size, accounting(m)};
  if (s.refs.size() <= k) {
    s.refs.push_back(seen);
  } else {
    sheet.expect(seen == s.refs[k], false,
                 "modeled time or message counts differ from the first "
                 "execution on the same mask");
  }
  if (check) {
    sheet.expect(got == s.oracle[k], true, "result differs from the oracle");
  }
  out.check_us = us_between(c0, Clock::now());
  return out;
}

std::unique_ptr<State> setup(const Args& args, Sheet& sheet) {
  auto s = std::make_unique<State>();
  s->cfg = config_for(args.workload);
  s->in = generate(s->cfg, args.seed);
  s->machine = make_machine(s->cfg.nprocs);
  const Distribution& dist = s->cfg.dist;
  s->array = DistArray<Elem>::scatter(dist, s->in.data);
  for (const auto& mk : s->in.masks) {
    s->masks.push_back(DistArray<mask_t>::scatter(dist, mk));
  }
  if (s->cfg.pack) {
    for (const auto& mk : s->in.masks) {
      s->oracle.push_back(pup::serial_pack<Elem>(s->in.data, mk));
    }
  } else {
    s->field = DistArray<Elem>::scatter(dist, s->in.field);
    for (std::size_t k = 0; k < kPool; ++k) {
      const auto& mk = s->in.masks[k];
      const std::vector<Elem> packed = pup::serial_pack<Elem>(s->in.data, mk);
      ++sheet.attempted;
      auto v = pup::pack<Elem>(*s->machine, s->array, s->masks[k],
                               pack_options());
      sheet.expect(v.vector.gather() == packed, true,
                   "PACK of the UNPACK input differs from the oracle");
      s->vectors.push_back(std::move(v.vector));
      s->oracle.push_back(pup::serial_unpack<Elem>(packed, mk, s->in.field));
    }
  }
  if (args.corrupt_oracle && !s->oracle[0].empty()) s->oracle[0][0] ^= 1;
  // Warm-up: one checked operation per mask, which also records the
  // modeled time and counts every later operation must reproduce.
  for (std::size_t k = 0; k < kPool; ++k) run_op(*s, k, true, sheet, nullptr);
  run_op(*s, 0, false, sheet, nullptr);  // timing starts on warm caches
  return s;
}

struct Loop {
  OpTimes times;
  std::vector<double> local_sum_us;
};

/// Times operations for `seconds`, and on until `loop` holds `min_samples`,
/// appending them to `loop`.
void measure(State& s, double seconds, std::size_t min_samples, Sheet& sheet,
             SpanRecorder* rec, Loop& loop) {
  const auto start = Clock::now();
  auto prev = start;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = us_between(start, Clock::now()) * 1e-6;
    if (elapsed >= kMaxLoopSeconds) break;
    if (elapsed >= seconds && loop.times.size() >= min_samples) break;
    const bool check = i % kCheckEvery == kCheckEvery - 1;
    const OpSample o = run_op(s, i % kPool, check, sheet, rec);
    double untimed_us = o.check_us;
    if (check) {
      // The check's gather evicts the working set; one untimed operation
      // refills it.
      untimed_us += run_op(s, i % kPool, false, sheet, rec).us;
    }
    const auto now = Clock::now();
    loop.times.add(o.us, us_between(prev, now) - untimed_us);
    loop.local_sum_us.push_back(o.local_sum_us);
    prev = now;
  }
}

/// Layer probes of the traced run, on the workload's own layout and masks:
/// the opposite direction of the timed loop (so every core stage has
/// spans), the ranking alone, plan compile and cache lookup, scatter and
/// gather, and the same requests through a Server and directly through the
/// plan executor on a private machine.
void probe_layers(State& s, SpanRecorder& rec, Sheet& sheet) {
  pup::sim::Machine& m = *s.machine;
  const Distribution& dist = s.cfg.dist;
  constexpr int kWidth = sizeof(Elem);

  // Opposite direction: PACK round-trips through UNPACK (field = the array
  // itself, so the result must equal the array); UNPACK's input PACK.
  for (std::size_t k = 0; k < kPool; ++k) {
    m.reset_accounting();
    ++sheet.attempted;
    rec.begin_op("probe.pack");
    auto p = pup::pack<Elem>(m, s.array, s.masks[k], pack_options());
    rec.end_op();
    if (s.cfg.pack) {
      ++sheet.attempted;
      rec.begin_op("probe.unpack");
      auto u = pup::unpack<Elem>(m, p.vector, s.masks[k], s.array,
                                 unpack_options());
      rec.end_op();
      sheet.expect(u.result.gather() == s.in.data, true,
                   "UNPACK(PACK(A, M), M, A) differs from A");
    } else {
      sheet.expect(p.vector.gather() == s.vectors[k].gather(), true,
                   "probe PACK differs from the UNPACK input");
    }
  }

  const auto sched = pup::compile_ranking_schedule(dist, m.nprocs());
  sheet.set("core.ranking.us",
            median_time_us(kPool,
                           [&](std::size_t k) {
                             const DistArray<mask_t>* one = &s.masks[k];
                             rec.begin_op("probe.ranking");
                             pup::rank_masks(m, sched, {&one, 1});
                             rec.end_op();
                           }),
            "us");

  sheet.set("plan.compile_us",
            median_time_us(kPool,
                           [&](std::size_t k) {
                             rec.begin_op("probe.compile");
                             if (s.cfg.pack) {
                               pup::plan::compile_pack_plan(m, dist, kWidth,
                                                            pack_options());
                             } else {
                               pup::plan::compile_unpack_plan(
                                   m, dist, s.vectors[k].dist(), kWidth,
                                   unpack_options());
                             }
                             rec.end_op();
                           }),
            "us");
  pup::plan::PlanCache cache;
  auto lookup = [&] {
    if (s.cfg.pack) {
      cache.pack_plan(m, dist, kWidth, pack_options());
    } else {
      cache.unpack_plan(m, dist, s.vectors[0].dist(), kWidth,
                        unpack_options());
    }
  };
  lookup();  // the one miss
  sheet.set("plan.lookup_us",
            median_time_us(kPool, [&](std::size_t) { lookup(); }), "us");
  // pack() and unpack() compile their ranking schedule on every call and
  // never consult a plan cache.
  sheet.set("plan.cache_hit_rate", 0.0, "frac");

  sheet.set("dist.scatter_us",
            median_time_us(3,
                           [&](std::size_t) {
                             auto a = DistArray<Elem>::scatter(dist, s.in.data);
                             (void)a;
                           }),
            "us");
  {
    m.reset_accounting();
    auto r = pup::pack<Elem>(m, s.array, s.masks[0], pack_options());
    sheet.set("dist.gather_us",
              median_time_us(kPool,
                             [&](std::size_t) {
                               auto g = r.vector.gather();
                               (void)g;
                             }),
              "us");
  }

  // The same kPool requests through a Server (queued while paused, then
  // released, so packs fuse up to max_batch) ...
  namespace svc = pup::service;
  svc::Server::Options o;
  o.nprocs = s.cfg.nprocs;
  o.cost = pup::sim::CostModel::cm5();
  o.window_us = 500.0;
  o.max_batch = 8;
  o.tenant_inflight_quota = kPool;
  o.threads = 1;
  o.backend = "sim";
  o.start_paused = true;
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  svc::ServerStats st;
  {
    svc::Server server(o);
    server.register_tenant("t");
    server.register_array("t", "a", s.array);
    if (!s.cfg.pack) server.register_array("t", "f", s.field);
    std::vector<std::future<svc::Response>> futures;
    for (std::size_t k = 0; k < kPool; ++k) {
      if (s.cfg.pack) {
        futures.push_back(server.submit(svc::PackRequest{
            "t", "a", s.masks[k], pup::PackScheme::kCompactMessage, 0.0}));
      } else {
        futures.push_back(server.submit(svc::UnpackRequest{
            "t", "f", s.masks[k], s.vectors[k],
            pup::UnpackScheme::kCompactStorage, 0.0}));
      }
    }
    server.resume();
    for (std::size_t k = 0; k < kPool; ++k) {
      const svc::Response r = futures[k].get();
      ++sheet.attempted;
      sheet.expect(r.status == svc::Status::kOk, false,
                   "service probe request not ok");
      sheet.expect(
          r.digest == svc::result_digest(s.oracle[k], s.refs[k].size),
          true, "service probe digest differs from the oracle");
      queue_us.push_back(r.queue_us);
      exec_us.push_back(r.exec_us);
    }
    st = server.stats();
  }
  sheet.set("service.queue_us.p50", median(queue_us), "us");
  sheet.set("service.exec_us.p50", median(exec_us), "us");
  sheet.set("service.batch_size.mean",
            st.batches > 0 ? static_cast<double>(st.completed) /
                                 static_cast<double>(st.batches)
                           : 0.0,
            "count");
  sheet.set("service.fusion_rate",
            st.completed > 0 ? static_cast<double>(st.fused_requests) /
                                   static_cast<double>(st.completed)
                             : 0.0,
            "frac");

  // ... and directly through the plan executor on a private machine.
  auto m2 = make_machine(s.cfg.nprocs);
  std::vector<double> direct;
  if (s.cfg.pack) {
    const auto plan =
        pup::plan::compile_pack_plan(*m2, dist, kWidth, pack_options());
    const std::vector<DistArray<Elem>> arrays(kPool, s.array);
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      auto results = pup::plan::pack_batch<Elem>(*m2, plan, s.masks, arrays);
      direct.push_back(us_between(t0, Clock::now()) / kPool);
      m2->reset_accounting();
      ++sheet.attempted;
      sheet.expect(results[kPool - 1].vector.gather() == s.oracle[kPool - 1],
                   true, "pack_batch result differs from the oracle");
    }
  } else {
    for (std::size_t k = 0; k < kPool; ++k) {
      const auto plan = pup::plan::compile_unpack_plan(
          *m2, dist, s.vectors[k].dist(), kWidth, unpack_options());
      const auto t0 = Clock::now();
      auto r = pup::plan::unpack_with_plan<Elem>(*m2, plan, s.vectors[k],
                                                 s.masks[k], s.field);
      direct.push_back(us_between(t0, Clock::now()));
      m2->reset_accounting();
      ++sheet.attempted;
      sheet.expect(r.result.gather() == s.oracle[k], true,
                   "unpack_with_plan result differs from the oracle");
    }
  }
  sheet.set("service.direct_us", median(direct), "us");
}

}  // namespace

std::uint64_t direct_inputs_digest(const std::string& workload,
                                   std::uint64_t seed) {
  const HostInputs in = generate(config_for(workload), seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(in.data.data(), in.data.size() * sizeof(Elem), h);
  h = fnv(in.field.data(), in.field.size() * sizeof(Elem), h);
  for (const auto& mk : in.masks) h = fnv(mk.data(), mk.size(), h);
  return h;
}

void run_direct(const Args& args, Sheet& sheet) {
  // Each set-up is followed by an equal share of the untraced loop on the
  // state it built, so setup_s samples a drifting host over the same span
  // of time as op_us does.
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
    measure(*s, untraced_s / kSetups, last && !args.trace ? kMinSamples : 0,
            sheet, nullptr, loop);
  }
  put_latency(sheet, loop.times);

  // Per-op accounting, averaged over the mask pool (not over the ops run),
  // so it is exact for a given seed whatever the run length.
  const std::int64_t n = s->cfg.dist.global().size();
  Accounting total;
  double bytes = 0.0;
  for (const Ref& r : s->refs) {
    total += r.acct;
    bytes += bytes_computed(s->cfg.pack, n, r.size);
  }
  const double pool = static_cast<double>(s->refs.size());
  put_accounting(sheet, total, pool);
  sheet.set("core.kernels.bytes_computed", bytes / pool, "B");
  sheet.set("core.kernels.ns_per_elem",
            median(loop.local_sum_us) * 1e3 / static_cast<double>(n), "ns");

  if (args.trace) {
    const double untraced_p50 = sheet.find("op_us.p50")->value;
    SpanRecorder rec;
    s->machine->set_observer(&rec);
    Loop traced;
    measure(*s, args.seconds / 2, 0, sheet, &rec, traced);
    probe_layers(*s, rec, sheet);
    s->machine->set_observer(nullptr);
    const double traced_p50 = median(least_disturbed(traced.times).op_us);
    sheet.set("trace.overhead_us", traced_p50 - untraced_p50, "us");
    sheet.note("traced op_us.p50 " + std::to_string(traced_p50) + " us over " +
               std::to_string(traced.times.size()) + " ops; untraced " +
               std::to_string(untraced_p50) + " us");
    put_span_metrics(sheet, rollup(rec.spans()), "op");
  }
  put_process_metrics(sheet, setup_s);
}

}  // namespace perfbench
