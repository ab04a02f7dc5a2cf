// One seeded draw over the configuration space of PACK and UNPACK.
//
// Each seed draws a layout (rank 1-4, up to 64 processors with primes,
// ragged 1-D, blocks from cyclic to block), element width (1-16 bytes),
// mask, scheme, PRS algorithm, many-to-many schedule, wire width, thread
// count, kernel path, fault plan and entry point (pack/unpack, a PlanCache
// plan and an invalidate, pack_batch, Runtime; service::Server is the
// chaos soak's), and checks it only with oracles the library already has:
//   * serial_pack / serial_unpack;
//   * a clean ProtocolValidator on the configured machine;
//   * a reference run of the same requests as a compiled plan on a
//     sequential, fault-free machine on the automatic kernel path, proved
//     by verify_plan and aligned with the proof by check_trace;
//   * on the reference run, the ranking sends no more bytes than it would
//     on the paper's int64 wire;
//   * equal DigestRecorder digests for the two runs, since thread count,
//     kernel path, entry point and a rollback must not change them.  Faults
//     the reliable layer absorbs add traffic, so a faulted draw that never
//     rolled back compares results only.
// A compiled plan needs a concrete scheme: the reference takes the one the
// Section 6.4 selector picks at the mask's exact density, and a kAuto
// entry point must pick the same.  The density sampler is exact on every
// drawn layout, so sampling error never separates them; the reference
// replays the sampler's probe so the traces line up.  A kill plan appends
// `kill=R src=R after=N` to a lossy one, N at most rank R's posts in the
// reference run, so the kill must fire.  Faulted draws run under
// ResilientExecutor.  The binary's operator new fills every block with
// 0xAB, so storage sized but never written gives a wrong result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/protocol_validator.hpp"
#include "analysis/static/expand.hpp"
#include "analysis/static/trace_check.hpp"
#include "analysis/static/verifier.hpp"
#include "core/api.hpp"
#include "core/density.hpp"
#include "plan/plan_cache.hpp"
#include "plan/resilient.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  std::memset(p, 0xAB, n);
  return p;
}
// The pair is malloc/free underneath, which GCC cannot see through.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pup {
namespace {

namespace st = analysis::statics;
using dist::index_t;

constexpr int kSeeds = 400;

enum class Mask { kNone, kAll, kRandom, kLt, kDensePrefix };
enum class Faults { kNone, kLossy, kKill };
enum class Entry { kOneShot, kPlanCache, kBatch, kRuntime };

struct Config {
  int seed = 0;
  bool pack = true;  ///< else UNPACK
  std::vector<index_t> extents, blocks;
  std::vector<int> procs;
  int width = 8;  ///< element bytes
  Mask mask = Mask::kRandom;
  double density = 0.5;  ///< Mask::kRandom
  index_t prefix = 0;    ///< Mask::kDensePrefix: true below this index
  PackOptions pack_opt;
  UnpackOptions unpack_opt;
  /// PACK pins a result layout when set; UNPACK always has one, its input
  /// vector's.  Extent: true count + vector_extra; block: cyclic, block or
  /// drawn (vector_block 0, 1, 2).
  bool pinned = false;
  index_t vector_extra = 0;
  int vector_block = 0;
  int threads = 1;
  std::optional<kernels::Path> path;
  Faults faults = Faults::kNone;
  std::uint64_t salt = 0;  ///< seeds the masks, vector block and faults
  Entry entry = Entry::kOneShot;
  int batch = 1;                  ///< requests; above 1 only for pack_batch
  bool invalidate_source = true;  ///< else the result/vector layout

  int nprocs() const {
    int p = 1;
    for (const int x : procs) p *= x;
    return p;
  }
  bool vector() const { return !pack || pinned; }
};

template <typename T>
std::string joined(const std::vector<T>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "x" : "") << v[i];
  return os.str();
}

std::string describe(const Config& c) {
  const char* masks[] = {"empty", "full", "random", "LT", "dense prefix"};
  const char* pack_schemes[] = {"SSS", "CSS", "CMS", "auto"};
  const char* unpack_schemes[] = {"SSS", "CSS", "auto"};
  const char* prs[] = {"direct", "split", "control-network", "auto",
                       "paper-rule"};
  const char* faults[] = {"none", "lossy", "lossy+kill"};
  const char* entries[] = {"one-shot", "plan cache", "pack_batch", "Runtime"};
  std::ostringstream os;
  os << "draw " << c.seed << ": " << (c.pack ? "pack" : "unpack") << " of "
     << c.width << "-byte elements, extents " << joined(c.extents)
     << ", procs " << joined(c.procs) << ", blocks " << joined(c.blocks)
     << "; mask " << masks[static_cast<int>(c.mask)] << " " << c.density
     << " prefix " << c.prefix << "; scheme "
     << (c.pack ? pack_schemes[static_cast<int>(c.pack_opt.scheme)]
                : unpack_schemes[static_cast<int>(c.unpack_opt.scheme)])
     << ", prs " << prs[static_cast<int>(c.pack_opt.prs)] << ", m2m "
     << (c.pack_opt.schedule == coll::M2MSchedule::kNaive ? "naive" : "linear")
     << ", wire "
     << (c.pack_opt.wire_width == coll::WireWidth::k64 ? "k64" : "auto");
  if (c.vector()) os << "; vector +" << c.vector_extra << "/" << c.vector_block;
  os << "; threads " << c.threads << ", path "
     << (c.path ? kernels::path_name(*c.path) : "auto") << ", faults "
     << faults[static_cast<int>(c.faults)] << "; entry "
     << entries[static_cast<int>(c.entry)] << " (batch " << c.batch
     << ", invalidate " << (c.invalidate_source ? "source" : "vector")
     << ")\n  replay: --gtest_filter=Draw/FuzzOracle.MatchesOracles/"
     << c.seed;
  return os.str();
}

template <typename E>
E pick(Xoshiro256& rng, std::initializer_list<E> values) {
  return values.begin()[rng.next_below(values.size())];
}

index_t below(Xoshiro256& rng, index_t n) {
  return static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
}

Config draw(int seed) {
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL +
                 0x5eed);
  Config c;
  c.seed = seed;
  c.pack = rng.next_below(2) == 0;
  c.width = pick(rng, {1, 2, 4, 8, 16});
  c.mask = pick(rng, {Mask::kNone, Mask::kAll, Mask::kRandom, Mask::kRandom,
                      Mask::kRandom, Mask::kRandom, Mask::kLt,
                      Mask::kDensePrefix});
  c.density = rng.next_double();
  const int rank = pick(rng, {1, 1, 1, 1, 2, 2, 2, 3, 3, 4});
  if (c.mask == Mask::kDensePrefix) {
    // Adversarial only to the density sampler, which kAuto alone runs: a
    // local extent of 16384, four times the sampler's 4096 probes, whose
    // first quarter (in whole tiles of a length the stride-4 probes count
    // exactly) is true.
    const int p = pick(rng, {2, 3, 4});
    constexpr index_t kLocal = 16384;
    const index_t w = index_t{1} << rng.next_below(15);
    const index_t quarter = (kLocal / 4 + 4 * w - 1) / (4 * w) * 4 * w;
    c.extents = {kLocal * p};
    c.procs = {p};
    c.blocks = {w};
    c.prefix = std::min(quarter, kLocal) * p;
  } else if (rank == 1) {
    const int p = pick(rng, {1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16, 31, 64});
    const index_t n = 1 + below(rng, 41 * p);  // ragged, may be below P
    const index_t block = (n + p - 1) / p;
    c.extents = {n};
    c.procs = {p};
    c.blocks = {pick<index_t>(rng, {1, block, 1 + below(rng, block)})};
  } else {
    // Tiles must divide evenly: N = P * W * T on every dimension.
    const int max_p = rank == 2 ? 8 : rank == 3 ? 4 : 2;
    for (int k = 0; k < rank; ++k) {
      const int p = 1 + static_cast<int>(below(rng, max_p));
      const index_t w = 1 + below(rng, 4);
      c.procs.push_back(p);
      c.blocks.push_back(w);
      c.extents.push_back(p * w * (1 + below(rng, 3)));
    }
  }
  c.pack_opt.scheme =
      pick(rng, {PackScheme::kSimpleStorage, PackScheme::kCompactStorage,
                 PackScheme::kCompactMessage, PackScheme::kAuto});
  c.unpack_opt.scheme =
      pick(rng, {UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage,
                 UnpackScheme::kAuto});
  c.pack_opt.prs = c.unpack_opt.prs =
      pick(rng, {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit,
                 coll::PrsAlgorithm::kControlNetwork,
                 coll::PrsAlgorithm::kAuto, coll::PrsAlgorithm::kPaperRule});
  c.pack_opt.schedule = c.unpack_opt.schedule = pick(
      rng, {coll::M2MSchedule::kLinearPermutation, coll::M2MSchedule::kNaive});
  c.pack_opt.wire_width = c.unpack_opt.wire_width =
      pick(rng, {coll::WireWidth::kAuto, coll::WireWidth::k64});
  if (c.mask == Mask::kDensePrefix) {
    c.pack_opt.scheme = PackScheme::kAuto;
    c.unpack_opt.scheme = UnpackScheme::kAuto;
  }
  c.pinned = rng.next_below(3) == 0;
  c.vector_extra = below(rng, 4);
  c.vector_block = static_cast<int>(rng.next_below(3));
  c.threads = pick(rng, {1, 1, 1, 2, 3, 4});
  c.path = pick<std::optional<kernels::Path>>(
      rng, {std::nullopt, kernels::Path::kScalar, kernels::Path::kGeneric,
            kernels::Path::kNative});
  if (c.path == kernels::Path::kNative && !kernels::native_available()) {
    c.path = std::nullopt;
  }
  c.faults = pick(rng, {Faults::kNone, Faults::kNone, Faults::kLossy,
                        Faults::kKill});
  if (c.nprocs() == 1) c.faults = Faults::kNone;
  c.salt = rng.next();
  c.entry = pick(rng, {Entry::kOneShot, Entry::kPlanCache, Entry::kBatch,
                       Entry::kRuntime});
  if (c.entry == Entry::kBatch && !c.pack) c.entry = Entry::kPlanCache;
  if (c.entry == Entry::kBatch) c.batch = pick(rng, {2, 3});
  c.invalidate_source = rng.next_below(2) == 0;
  if (c.entry == Entry::kRuntime) {  // the Runtime's own options
    c.pack_opt = PackOptions{};
    c.pack_opt.scheme = PackScheme::kAuto;
    c.unpack_opt = UnpackOptions{};
  }
  return c;
}

struct Wide {  ///< the 16-byte element
  std::int64_t lo = 0, hi = 0;
  bool operator==(const Wide&) const = default;
};

template <typename T>
std::vector<T> values(index_t n, std::int64_t offset) {
  std::vector<T> v;
  for (std::int64_t i = offset; i < offset + n; ++i) {
    if constexpr (std::is_same_v<T, Wide>) {
      v.push_back(Wide{i, ~i});
    } else {
      v.push_back(static_cast<T>(i * 7 + 3));
    }
  }
  return v;
}

std::vector<mask_t> make_mask(const Config& c, const dist::Shape& shape,
                              std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(shape.size());
  std::vector<mask_t> m(n, c.mask == Mask::kAll ? 1 : 0);
  if (c.mask == Mask::kRandom) m = random_mask(shape.size(), c.density, seed);
  if (c.mask == Mask::kLt) m = shape.rank() == 1 ? lt_mask_1d(shape.size())
                                                 : lt_mask(shape);
  if (c.mask == Mask::kDensePrefix) std::fill_n(m.begin(), c.prefix, 1);
  return m;
}

/// Counts each rank's posts, for the kill countdown.
struct PostCounter final : sim::MachineObserver {
  explicit PostCounter(int p) : posts(static_cast<std::size_t>(p)) {}
  void on_post(const sim::Message& m, sim::Category) override {
    ++posts[static_cast<std::size_t>(m.src)];
  }
  std::vector<std::int64_t> posts;
};

/// Bytes a plan's ranking stage puts on the wire: every block but the
/// redistribution's many-to-many ones.
std::size_t prs_bytes(const st::ExpandedPlan& e) {
  std::size_t bytes = 0;
  for (const st::BlockIR& block : e.schedule.blocks) {
    if (block.name.starts_with("alltoallv")) continue;
    for (const st::RoundIR& round : block.rounds) {
      for (const st::Xfer& x : round.posts) bytes += x.bytes;
    }
  }
  return bytes;
}

/// Pins a kernel path for one run, then returns to the automatic one.
struct PathScope {
  explicit PathScope(std::optional<kernels::Path> p) { kernels::set_path(p); }
  ~PathScope() { kernels::set_path(std::nullopt); }
};

template <typename T>
std::vector<const T*> pointers(const std::vector<T>& v) {
  std::vector<const T*> out;
  for (const T& x : v) out.push_back(&x);
  return out;
}

/// What both runs share: the requests, their serial results, and the
/// concrete options a compiled plan takes.
template <typename T>
struct Draw {
  explicit Draw(const Config& cfg) : c(cfg) {
    const int p = c.nprocs();
    d = dist::Distribution(dist::Shape(c.extents), dist::ProcessGrid(c.procs),
                           c.blocks);
    const index_t n = d.global().size();
    data = values<T>(n, -17);
    fdata = values<T>(n, 500009);
    field = dist::DistArray<T>::scatter(d, fdata);
    for (int b = 0; b < c.batch; ++b) {
      masks.push_back(make_mask(c, d.global(), c.salt + b));
      arrays.push_back(dist::DistArray<T>::scatter(d, data));
      mask_arrays.push_back(dist::DistArray<mask_t>::scatter(d, masks.back()));
    }
    index_t most = 1;  // the vector holds every request's true count
    for (const auto& m : masks) most = std::max(most, count_true(m));
    if (c.vector()) {
      const index_t extent = most + c.vector_extra;
      const index_t block = (extent + p - 1) / p;
      vd = dist::Distribution::block_cyclic(
          dist::Shape({extent}), dist::ProcessGrid({p}),
          c.vector_block == 0   ? 1
          : c.vector_block == 1 ? block
                                : 1 + static_cast<index_t>(c.salt %
                                                           block));
      vdata = c.pack ? std::vector<T>(static_cast<std::size_t>(extent))
                     : values<T>(extent, 1000003);
      vector = dist::DistArray<T>::scatter(*vd, vdata);
    }
    for (const auto& m : masks) {
      expected.push_back(!c.pack   ? serial_unpack<T>(vdata, m, fdata)
                         : c.pinned ? serial_pack<T>(data, m, vdata)
                                    : serial_pack<T>(data, m));
    }
    const double density = n == 0 ? 0.0
                                  : static_cast<double>(count_true(masks[0])) /
                                        static_cast<double>(n);
    pack_opt = c.pack_opt;
    unpack_opt = c.unpack_opt;
    if (pack_opt.scheme == PackScheme::kAuto) {
      pack_opt.scheme =
          choose_pack_scheme(d.local_size(0), d.dim(0).block(), density, p);
    }
    if (unpack_opt.scheme == UnpackScheme::kAuto) {
      unpack_opt.scheme =
          choose_unpack_scheme(d.local_size(0), d.dim(0).block(), density, p);
    }
    samples = (c.entry == Entry::kOneShot || c.entry == Entry::kRuntime) &&
              (c.pack ? c.pack_opt.scheme == PackScheme::kAuto
                      : c.unpack_opt.scheme == UnpackScheme::kAuto);
  }

  std::optional<dist::Distribution> result_dist() const {
    return c.pinned ? vd : std::nullopt;
  }

  const Config& c;
  dist::Distribution d;
  std::vector<T> data, fdata, vdata;  ///< vdata: V, or PACK's zero padding
  dist::DistArray<T> field, vector;
  std::optional<dist::Distribution> vd;  ///< result or vector layout
  std::vector<std::vector<mask_t>> masks;
  std::vector<dist::DistArray<T>> arrays;
  std::vector<dist::DistArray<mask_t>> mask_arrays;
  std::vector<std::vector<T>> expected;
  PackOptions pack_opt;      ///< concrete scheme
  UnpackOptions unpack_opt;  ///< concrete scheme
  bool samples = false;      ///< the drawn entry point probes the density
};

/// The reference run: posts per rank (for the kill countdown) and digest.
struct Reference {
  std::vector<std::int64_t> posts;
  analysis::TraceDigest digest;
};

template <typename T>
Reference run_reference(const Draw<T>& in) {
  const Config& c = in.c;
  const PathScope path(std::nullopt);
  sim::Machine machine(c.nprocs(), test::test_options());
  PostCounter counter(c.nprocs());
  machine.add_observer(&counter);
  const analysis::DigestRecorder recorder(machine);
  if (in.samples) (void)detail::sample_density(machine, in.mask_arrays[0]);
  st::ScheduleRecorder schedule;
  machine.add_observer(&schedule);
  std::vector<std::vector<T>> results;
  st::ExpandedPlan expanded;
  st::VerifyReport report;
  // The ranking's bytes on either wire: packed rounds never send more than
  // the paper's int64 wire.
  std::size_t prs_at[2] = {};
  if (c.pack) {
    const auto plan = plan::compile_pack_plan(machine, in.d, sizeof(T),
                                              in.pack_opt, in.result_dist());
    report = st::verify_plan(plan, machine.cost(), in.masks.size());
    expanded = st::expand_pack_plan(plan, machine.cost(), in.masks.size());
    for (const coll::WireWidth width :
         {coll::WireWidth::kAuto, coll::WireWidth::k64}) {
      PackOptions opt = in.pack_opt;
      opt.wire_width = width;
      prs_at[width == coll::WireWidth::k64] =
          prs_bytes(st::expand_pack_plan(
              plan::compile_pack_plan(machine, in.d, sizeof(T), opt,
                                      in.result_dist()),
              machine.cost(), in.masks.size()));
    }
    for (auto& r : plan::pack_batch<T>(machine, plan, pointers(in.mask_arrays),
                                       pointers(in.arrays))) {
      results.push_back(r.vector.gather());
    }
  } else {
    const auto plan = plan::compile_unpack_plan(machine, in.d, *in.vd,
                                                sizeof(T), in.unpack_opt);
    report = st::verify_plan(plan, machine.cost());
    expanded = st::expand_unpack_plan(plan, machine.cost());
    for (const coll::WireWidth width :
         {coll::WireWidth::kAuto, coll::WireWidth::k64}) {
      UnpackOptions opt = in.unpack_opt;
      opt.wire_width = width;
      prs_at[width == coll::WireWidth::k64] = prs_bytes(st::expand_unpack_plan(
          plan::compile_unpack_plan(machine, in.d, *in.vd, sizeof(T), opt),
          machine.cost()));
    }
    results.push_back(plan::unpack_with_plan<T>(machine, plan, in.vector,
                                                in.mask_arrays[0], in.field)
                          .result.gather());
  }
  EXPECT_LE(prs_at[0], prs_at[1]) << "ranking bytes, narrow vs int64 wire";
  machine.remove_observer(&schedule);
  machine.remove_observer(&counter);
  EXPECT_TRUE(report.ok()) << report.summary();
  const auto check = st::check_trace(schedule, expanded.schedule);
  EXPECT_TRUE(check.ok()) << expanded.schedule.origin << ": "
                          << (check.ok() ? "" : check.issues[0]);
  EXPECT_EQ(results, in.expected) << "reference run";
  return {counter.posts, recorder.digest()};
}

/// The fault plan the draw installs ("" for none).  A kill's victim is a
/// rank that posts in the reference run, its countdown at most those posts.
std::string fault_spec(const Config& c,
                       const std::vector<std::int64_t>& posts) {
  if (c.faults == Faults::kNone) return "";
  Xoshiro256 rng(c.salt);
  auto rate = [&] { return static_cast<double>(rng.next_below(61)) / 1000.0; };
  std::ostringstream os;
  os << "seed=" << rng.next_below(1 << 30) << " drop=" << rate()
     << " dup=" << rate() << " delay=" << rate()
     << " ticks=" << 1 + rng.next_below(3) << " trunc=" << rate();
  std::vector<int> senders;
  for (std::size_t r = 0; r < posts.size(); ++r) {
    if (posts[r] > 0) senders.push_back(static_cast<int>(r));
  }
  if (c.faults == Faults::kKill && !senders.empty()) {
    const int victim = senders[rng.next_below(senders.size())];
    os << " | kill=" << victim << " src=" << victim << " after="
       << 1 + rng.next_below(static_cast<std::uint64_t>(
                  posts[static_cast<std::size_t>(victim)]));
  }
  return os.str();
}

/// The drawn entry point on the drawn configuration.
template <typename T>
void run_configured(const Draw<T>& in, const Reference& ref) {
  const Config& c = in.c;
  const std::string spec = fault_spec(c, ref.posts);
  SCOPED_TRACE("fault plan: " + spec);
  const PathScope path(c.path);
  Runtime rt(c.nprocs(), {.cost = test::test_options().cost,
                          .exec = sim::ExecPolicy::threaded(c.threads)});
  sim::Machine& machine = rt.machine();
  rt.recovery().max_restarts = spec.empty() ? 0 : 2;
  plan::ResilientExecutor exec(rt);
  analysis::ProtocolValidator validator(machine);
  plan::PlanCache cache;
  auto lookup_pack = [&] {
    return cache.pack_plan(machine, in.d, sizeof(T), in.pack_opt,
                           in.result_dist());
  };
  auto lookup_unpack = [&] {
    return cache.unpack_plan(machine, in.d, *in.vd, sizeof(T), in.unpack_opt);
  };
  const bool planned = c.entry == Entry::kPlanCache || c.entry == Entry::kBatch;
  const auto pack_plan = planned && c.pack ? lookup_pack() : nullptr;
  const auto unpack_plan = planned && !c.pack ? lookup_unpack() : nullptr;
  if (!spec.empty()) machine.set_fault_plan(sim::FaultPlan::parse(spec));

  const auto& a = in.arrays[0];
  const auto& m = in.mask_arrays[0];
  std::vector<std::vector<T>> results;
  std::optional<analysis::DigestRecorder> recorder(std::in_place, machine);
  if (c.entry == Entry::kBatch) {
    for (auto& r : exec.pack_batch<T>(*pack_plan, pointers(in.mask_arrays),
                                      pointers(in.arrays))) {
      results.push_back(r.vector.gather());
    }
  } else if (c.pack) {
    const PackResult<T> r = exec.run([&] {
      if (pack_plan) return plan::pack_with_plan<T>(machine, *pack_plan, a, m);
      if (c.entry == Entry::kRuntime) {
        return c.pinned ? rt.pack(a, m, in.vector) : rt.pack(a, m);
      }
      return c.pinned ? pack(machine, a, m, in.vector, c.pack_opt)
                      : pack(machine, a, m, c.pack_opt);
    });
    EXPECT_EQ(r.scheme, in.pack_opt.scheme) << "kAuto resolved otherwise";
    EXPECT_EQ(r.size, count_true(in.masks[0]));
    results.push_back(r.vector.gather());
  } else {
    const UnpackResult<T> r = exec.run([&] {
      if (unpack_plan) {
        return plan::unpack_with_plan<T>(machine, *unpack_plan, in.vector, m,
                                         in.field);
      }
      if (c.entry == Entry::kRuntime) return rt.unpack(in.vector, m, in.field);
      return unpack(machine, in.vector, m, in.field, c.unpack_opt);
    });
    EXPECT_EQ(r.scheme, in.unpack_opt.scheme) << "kAuto resolved otherwise";
    EXPECT_EQ(r.size, count_true(in.masks[0]));
    results.push_back(r.result.gather());
  }
  const analysis::TraceDigest digest = recorder->digest();
  recorder.reset();
  EXPECT_EQ(results, in.expected);
  if (spec.find("kill=") != std::string::npos) {
    EXPECT_EQ(machine.fault_plan()->stats().kills, 1) << "the kill never fired";
  }
  if (spec.empty() || exec.stats().restarts > 0) {
    EXPECT_EQ(analysis::diff_digests(ref.digest, digest), "");
  }

  if (c.entry == Entry::kPlanCache) {
    // Drop the plan through one of the layouts it was compiled against;
    // the next lookup compiles it again.
    const bool source = c.invalidate_source || !c.vector();
    EXPECT_EQ(cache.invalidate(machine, source ? in.d : *in.vd), 1u);
    const std::vector<T> again =
        c.pack ? exec.pack<T>(*lookup_pack(), a, m).vector.gather()
               : exec.unpack<T>(*lookup_unpack(), in.vector, m, in.field)
                     .result.gather();
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(again, in.expected[0]);
  }
  EXPECT_TRUE(machine.mailboxes_empty());
  validator.finish();
  EXPECT_TRUE(validator.ok()) << validator.report();
}

template <typename T>
void run_draw(const Config& c) {
  const Draw<T> in(c);
  run_configured(in, run_reference(in));
}

class FuzzOracle : public ::testing::TestWithParam<int> {};

TEST_P(FuzzOracle, MatchesOracles) {
  const Config c = draw(GetParam());
  SCOPED_TRACE(describe(c));
  try {
    switch (c.width) {
      case 1: run_draw<std::uint8_t>(c); break;
      case 2: run_draw<std::uint16_t>(c); break;
      case 4: run_draw<std::int32_t>(c); break;
      case 8: run_draw<std::int64_t>(c); break;
      default: run_draw<Wide>(c); break;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Draw, FuzzOracle, ::testing::Range(0, kSeeds));

}  // namespace
}  // namespace pup
