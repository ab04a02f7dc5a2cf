// google-benchmark microbenches of the hot local kernels: initial mask
// scan, segmented prefix sum, CMS run encode/decode, message composition
// per scheme, and the serial reference, on a single virtual processor's
// data sizes.
//
// Kernel benches take a trailing `path` argument (0 = forced scalar
// reference, 1 = the active vector path) so one JSON run carries both
// sides of every speedup claim.  Before any timing, main() runs a parity
// gate: every vector kernel must agree bit for bit with its scalar
// reference, and an end-to-end pack must produce identical digests and
// values across PUP_SIMD settings -- a bench binary that measures wrong
// kernels aborts instead of reporting.  `--smoke` runs the gate and exits
// (the CI hook).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "analysis/determinism.hpp"
#include "core/api.hpp"
#include "core/kernels/kernels.hpp"

namespace pup {
namespace {

// Pins the kernel path for one bench run: 0 forces the scalar reference,
// 1 restores PUP_SIMD resolution (the vector path on any machine that has
// one).
class PathGuard {
 public:
  explicit PathGuard(std::int64_t path) {
    kernels::force_path_for_testing(
        path == 0 ? std::optional<kernels::Path>(kernels::Path::kScalar)
                  : std::nullopt);
  }
  ~PathGuard() { kernels::force_path_for_testing(std::nullopt); }
};

void BM_MaskScan(benchmark::State& state) {
  const auto n = static_cast<dist::index_t>(state.range(0));
  auto mask = random_mask(n, 0.5, 1);
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    std::int64_t count = kernels::mask_count(mask.data(), mask.size());
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_MaskScan)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

void BM_SegmentedPrefix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t seg = 64;
  std::vector<std::int64_t> data(n, 1);
  // Hoisted out of the timed loop: the copy used to dominate the
  // measurement (an O(n) allocating memcpy per iteration), understating
  // the kernel itself.  The prefix runs in place on `work`; its input
  // values drift across iterations, which is irrelevant to the cost of an
  // integer prefix sum.
  std::vector<std::int64_t> work = data;
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    kernels::segmented_exclusive_prefix(work.data(), n, seg);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_SegmentedPrefix)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

// CMS run-length encode: gather a slice's selected values into a compact
// run payload.  Density 0.5 is the paper's standard working point; the
// {0.05, 0.95} points show the block-skip/bulk-copy effects.
void BM_CmsEncode(benchmark::State& state) {
  const auto n = static_cast<dist::index_t>(state.range(0));
  const double density = static_cast<double>(state.range(2)) / 100.0;
  auto mask = random_mask(n, density, 5);
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 0);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    const std::size_t k = kernels::mask_gather<std::int64_t>(
        mask.data(), values.data(), static_cast<std::size_t>(n), out.data());
    benchmark::DoNotOptimize(k);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_CmsEncode)
    ->Args({1 << 16, 0, 50})
    ->Args({1 << 16, 1, 50})
    ->Args({1 << 16, 0, 5})
    ->Args({1 << 16, 1, 5})
    ->Args({1 << 16, 0, 95})
    ->Args({1 << 16, 1, 95});

// CMS run-length decode: unload a run payload into the result vector.
// The scalar side is the historical per-element bounds-check + copy loop;
// the vector side is the single bulk copy pack.decompose now performs.
void BM_CmsDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> payload(n, 42);
  const auto* src = reinterpret_cast<const std::byte*>(payload.data());
  std::vector<std::int64_t> out(n);
  const bool scalar = state.range(1) == 0;
  for (auto _ : state) {
    if (scalar) {
      kernels::scalar::run_decode(src, n, sizeof(std::int64_t),
                                  reinterpret_cast<std::byte*>(out.data()));
    } else {
      kernels::run_decode<std::int64_t>(src, n, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(scalar ? "scalar" : "bulk");
}
BENCHMARK(BM_CmsDecode)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

void BM_SerialPack(benchmark::State& state) {
  const auto n = static_cast<dist::index_t>(state.range(0));
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto mask = random_mask(n, 0.5, 2);
  for (auto _ : state) {
    auto out = serial_pack<std::int64_t>(data, mask);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SerialPack)->Arg(1 << 12)->Arg(1 << 16);

void BM_ParallelPackEndToEnd(benchmark::State& state) {
  const int p = 16;
  const auto n = static_cast<dist::index_t>(state.range(0));
  const auto scheme = static_cast<PackScheme>(state.range(1));
  sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({p}), 64);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n), 1);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, random_mask(n, 0.5, 3));
  PackOptions opt;
  opt.scheme = scheme;
  PathGuard guard(state.range(2));
  for (auto _ : state) {
    machine.reset_accounting();
    auto result = pack(machine, a, m, opt);
    benchmark::DoNotOptimize(result.size);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_ParallelPackEndToEnd)
    ->Args({1 << 14, static_cast<int>(PackScheme::kSimpleStorage), 1})
    ->Args({1 << 14, static_cast<int>(PackScheme::kCompactStorage), 1})
    ->Args({1 << 14, static_cast<int>(PackScheme::kCompactMessage), 0})
    ->Args({1 << 14, static_cast<int>(PackScheme::kCompactMessage), 1});

void BM_Ranking(benchmark::State& state) {
  const int p = 16;
  const auto n = static_cast<dist::index_t>(state.range(0));
  const auto w = static_cast<dist::index_t>(state.range(1));
  sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({p}), w);
  auto m = dist::DistArray<mask_t>::scatter(d, random_mask(n, 0.5, 4));
  for (auto _ : state) {
    machine.reset_accounting();
    auto r = rank_mask(machine, m);
    benchmark::DoNotOptimize(r.size);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Ranking)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 64})
    ->Args({1 << 14, 1 << 10});

void BM_PrefixReductionSum(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto m_len = static_cast<std::size_t>(state.range(1));
  const auto alg = static_cast<coll::PrsAlgorithm>(state.range(2));
  sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
  const coll::Group world = coll::Group::world(p);
  for (auto _ : state) {
    machine.reset_accounting();
    std::vector<std::vector<std::int64_t>> bufs(
        static_cast<std::size_t>(p),
        std::vector<std::int64_t>(m_len, 1));
    std::vector<std::vector<std::int64_t>> total;
    coll::prefix_reduction_sum(machine, world, alg, bufs, total);
    benchmark::DoNotOptimize(total.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m_len) * p);
}
BENCHMARK(BM_PrefixReductionSum)
    ->Args({16, 1024, static_cast<int>(coll::PrsAlgorithm::kDirect)})
    ->Args({16, 1024, static_cast<int>(coll::PrsAlgorithm::kSplit)})
    ->Args({64, 4096, static_cast<int>(coll::PrsAlgorithm::kSplit)});

void BM_Alltoallv(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  const auto sched = static_cast<coll::M2MSchedule>(state.range(2));
  sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
  const coll::Group world = coll::Group::world(p);
  for (auto _ : state) {
    machine.reset_accounting();
    std::vector<std::vector<std::vector<int>>> send(
        static_cast<std::size_t>(p));
    for (auto& row : send) {
      row.assign(static_cast<std::size_t>(p), std::vector<int>(elems, 1));
    }
    auto recv = coll::alltoallv_typed<int>(machine, world, std::move(send),
                                           sched);
    benchmark::DoNotOptimize(recv.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elems) * p * p);
}
BENCHMARK(BM_Alltoallv)
    ->Args({16, 256, static_cast<int>(coll::M2MSchedule::kLinearPermutation)})
    ->Args({16, 256, static_cast<int>(coll::M2MSchedule::kNaive)});

void BM_Cshift(benchmark::State& state) {
  const int p = 16;
  const auto n = static_cast<dist::index_t>(state.range(0));
  sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({p}), 32);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n), 1);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  for (auto _ : state) {
    machine.reset_accounting();
    auto out = cshift(machine, a, 0, 7);
    benchmark::DoNotOptimize(out.local(0).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Cshift)->Arg(1 << 14);

// --- parity gate -----------------------------------------------------------

void die(const char* what) {
  std::fprintf(stderr, "micro_kernels: parity gate FAILED: %s\n", what);
  std::abort();
}

void verify_kernel_parity() {
  std::vector<kernels::Path> paths = {kernels::Path::kGeneric};
  if (kernels::native_available()) paths.push_back(kernels::Path::kNative);
  const std::size_t kLens[] = {0, 1, 7, 31, 32, 33, 63, 64, 100, 4096, 4099};
  const double kDensities[] = {0.0, 0.01, 0.5, 0.99, 1.0};
  for (const double density : kDensities) {
    for (const std::size_t n : kLens) {
      const auto mask =
          random_mask(static_cast<dist::index_t>(n), density, 99);
      std::vector<std::int64_t> values(n);
      std::iota(values.begin(), values.end(), 7);
      kernels::force_path_for_testing(kernels::Path::kScalar);
      const std::int64_t ref_count = kernels::mask_count(mask.data(), n);
      std::vector<std::int64_t> ref_out(n, -1);
      const std::size_t ref_k = kernels::mask_gather<std::int64_t>(
          mask.data(), values.data(), n, ref_out.data());
      for (const kernels::Path path : paths) {
        kernels::force_path_for_testing(path);
        if (kernels::mask_count(mask.data(), n) != ref_count) {
          die("mask_count mismatch");
        }
        std::vector<std::int64_t> out(n, -2);
        const std::size_t k = kernels::mask_gather<std::int64_t>(
            mask.data(), values.data(), n, out.data());
        if (k != ref_k ||
            !std::equal(out.begin(), out.begin() + static_cast<long>(k),
                        ref_out.begin())) {
          die("mask_gather mismatch");
        }
      }
    }
  }
  kernels::force_path_for_testing(std::nullopt);
}

// End-to-end: a CMS pack must produce identical trace digests and result
// values whether the kernels run scalar or vectorized.
void verify_e2e_parity() {
  const int p = 8;
  const dist::index_t n = 1 << 12;
  struct Run {
    analysis::TraceDigest digest;
    std::vector<std::int64_t> values;
  };
  std::vector<Run> runs;
  for (const bool scalar : {true, false}) {
    kernels::force_path_for_testing(
        scalar ? std::optional<kernels::Path>(kernels::Path::kScalar)
               : std::nullopt);
    sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
    analysis::DigestRecorder recorder(machine);
    auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                              dist::ProcessGrid({p}), 64);
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 0);
    auto a = dist::DistArray<std::int64_t>::scatter(d, data);
    auto m = dist::DistArray<mask_t>::scatter(d, random_mask(n, 0.37, 11));
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    auto result = pack(machine, a, m, opt);
    runs.push_back(Run{recorder.digest(), result.vector.gather()});
  }
  kernels::force_path_for_testing(std::nullopt);
  if (!(runs[1].digest == runs[0].digest)) {
    die("end-to-end digest differs across PUP_SIMD");
  }
  if (runs[1].values != runs[0].values) {
    die("end-to-end values differ across PUP_SIMD");
  }
}

}  // namespace
}  // namespace pup

int main(int argc, char** argv) {
  pup::verify_kernel_parity();
  pup::verify_e2e_parity();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      std::printf("micro_kernels: parity gate passed (native %s: %s)\n",
                  pup::kernels::native_available() ? "available"
                                                   : "unavailable",
                  pup::kernels::path_name(pup::kernels::active_path()));
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
