// google-benchmark microbenches of the hot local kernels: initial mask
// scan (counting, and the W_0 = 1 flags), the ranking's segment totals,
// final-step fold (plain, and fused with the W_0 = 1 gather) and PRS
// payload fold into one or two destinations, each on base ranks of 1, 2
// or 8 bytes, a direct PRS round's compose, fold and copy packed at 1-8
// bits, UNPACK's checked request compose, CMS run encode/decode,
// UNPACK's reply gather and merged placement, message composition per
// scheme, and the serial reference, on a single virtual processor's data
// sizes.
//
// Kernel benches take a `path` argument (0 = forced scalar reference,
// 1 = the active path -- native where the CPU has it --, 2 = the generic
// path, compiled for the baseline ISA) so one JSON run carries every side
// of each speedup claim.  Before
// any timing, main() runs a parity gate: every vector kernel must agree
// bit for bit with its scalar reference, and an end-to-end pack must
// produce identical digests and values across kernel paths -- a bench
// binary that measures wrong kernels aborts instead of reporting.
// `--smoke` runs the gate and exits (the CI hook).
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
// 1 restores the auto path (the vector path on any machine that has one),
// 2 forces the portable generic path.
class PathGuard {
 public:
  explicit PathGuard(std::int64_t path) {
    kernels::set_path(
        path == 0   ? std::optional<kernels::Path>(kernels::Path::kScalar)
        : path == 2 ? std::optional<kernels::Path>(kernels::Path::kGeneric)
                    : std::nullopt);
  }
  ~PathGuard() { kernels::set_path(std::nullopt); }
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
BENCHMARK(BM_MaskScan)->ArgsProduct({{1 << 12, 1 << 16}, {0, 2, 1}});

// The base-rank kernels' third argument: the width of their entries.
std::size_t rank_width(const benchmark::State& state) {
  return static_cast<std::size_t>(state.range(2));
}

// The ranking's per-level passes on one step-0 base-rank array of the
// 512 x 512 cyclic CSS unpack (16384 entries, 128-entry segments) at the
// width of the third argument (1 is that level 0's, 2 the service mix's
// level 0's, 8 the paper's int64 base ranks): the intermediate step's
// segment totals, and the final step's fold of PS_i plus the segmented
// exclusive prefix and the per-segment addend into int64 ranks.
void BM_SegmentSums(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  kernels::with_base_rank(rank_width(state), [&](auto zero) {
    using U = decltype(zero);
    std::vector<U> rs(n, 1);
    std::vector<std::int64_t> sums(n / 128);
    PathGuard guard(state.range(1));
    for (auto _ : state) {
      kernels::segment_sums(rs.data(), n, 128, sums.data());
      benchmark::DoNotOptimize(sums.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(kernels::path_name(kernels::active_path()));
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentSums)->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 8}});

void BM_SegmentedPrefixFold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  kernels::with_base_rank(rank_width(state), [&](auto zero) {
    using U = decltype(zero);
    std::vector<U> rs(n, 1);
    std::vector<U> ps(n, 2);
    std::vector<std::int64_t> add(n / 128, 3);
    std::vector<std::int64_t> out(n);
    PathGuard guard(state.range(1));
    for (auto _ : state) {
      kernels::segmented_prefix_fold(rs.data(), ps.data(), n, 128, add.data(),
                                     out.data());
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(kernels::path_name(kernels::active_path()));
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentedPrefixFold)
    ->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 4, 8}});

// The same fold at level 0 of a W_0 = 1 counting scan, fused with the
// gather under a 50% mask: only the selected slots' ranks are stored.
void BM_SegmentedPrefixFoldGather(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mask = random_mask(static_cast<dist::index_t>(n), 0.5, 8);
  kernels::with_base_rank(rank_width(state), [&](auto zero) {
    using U = decltype(zero);
    std::vector<U> rs(n, 1);
    std::vector<U> ps(n, 2);
    std::vector<std::int64_t> add(n / 128, 3);
    std::vector<std::int64_t> out(n);
    PathGuard guard(state.range(1));
    for (auto _ : state) {
      const std::size_t k = kernels::segmented_prefix_fold_gather(
          rs.data(), ps.data(), n, 128, add.data(), mask.data(), out.data());
      benchmark::DoNotOptimize(k);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(kernels::path_name(kernels::active_path()));
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentedPrefixFoldGather)
    ->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 8}});

// W_0 = 1 initial scan: PS_0 as the mask's 0/1 flags at level 0's width.
void BM_MaskFlags(benchmark::State& state) {
  const auto n = static_cast<dist::index_t>(state.range(0));
  auto mask = random_mask(n, 0.5, 1);
  kernels::with_base_rank(rank_width(state), [&](auto zero) {
    using U = decltype(zero);
    std::vector<U> ps(static_cast<std::size_t>(n));
    PathGuard guard(state.range(1));
    for (auto _ : state) {
      const std::int64_t k =
          kernels::mask_flags(mask.data(), mask.size(), ps.data());
      benchmark::DoNotOptimize(k);
      benchmark::DoNotOptimize(ps.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(kernels::path_name(kernels::active_path()));
  });
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MaskFlags)->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 8}});

// UNPACK's CSS placement: one rank's 16384 int64 slots of the 512 x 512
// cyclic unpack, each written once from the value stream or the field.
void BM_MaskMerge(benchmark::State& state) {
  const auto n = static_cast<dist::index_t>(state.range(0));
  const double density = static_cast<double>(state.range(2)) / 100.0;
  auto mask = random_mask(n, density, 6);
  std::vector<std::int64_t> src(static_cast<std::size_t>(count_true(mask)), 5);
  std::vector<std::int64_t> field(static_cast<std::size_t>(n), 7);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    const std::size_t k = kernels::mask_merge<std::int64_t>(
        mask.data(), src.data(), src.size(), field.data(),
        static_cast<std::size_t>(n), out.data());
    benchmark::DoNotOptimize(k);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_MaskMerge)->ArgsProduct({{1 << 14}, {0, 2, 1}, {50, 10}});

// UNPACK's reply to one request stream: about 8192 local indices, a sorted
// 50% subset of a 16384-element V share, at an index width of 2 or 8
// bytes (second argument), read one byte off alignment and answered by
// indexed loads into an unaligned reply.
void BM_IndexGather(benchmark::State& state) {
  const std::int64_t extent = std::int64_t{1} << 14;
  const auto iw = static_cast<std::size_t>(state.range(1));
  const auto sel = random_mask(extent, 0.5, 9);
  std::vector<std::int64_t> index;
  for (std::int64_t l = 0; l < extent; ++l) {
    if (sel[static_cast<std::size_t>(l)] != 0) index.push_back(l);
  }
  const std::size_t n = index.size();
  std::vector<std::byte> request(n * iw + 1);
  kernels::narrow_to_bytes(index.data(), n, iw, request.data() + 1);
  std::vector<std::int64_t> base(static_cast<std::size_t>(extent));
  std::iota(base.begin(), base.end(), 11);
  std::vector<std::byte> reply(n * sizeof(std::int64_t) + 1);
  PathGuard guard(state.range(0));
  for (auto _ : state) {
    kernels::index_gather<std::int64_t>(request.data() + 1, n, iw,
                                        base.data(), base.size(),
                                        reply.data() + 1);
    benchmark::DoNotOptimize(reply.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_IndexGather)->ArgsProduct({{0, 2, 1}, {2, 8}});

// UNPACK's request compose at `width` bytes per entry (third argument) on
// 16384 local indices: the checked narrowing into a payload one byte off
// alignment.  Width 8 is the int64 wire.
void BM_WireNarrow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto width = static_cast<std::size_t>(state.range(2));
  std::vector<std::int64_t> values(n);
  for (std::size_t e = 0; e < n; ++e) {
    values[e] = static_cast<std::int64_t>(e % 5);
  }
  std::vector<std::byte> payload(n * width + 1);
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    kernels::narrow_to_bytes(values.data(), n, width, payload.data() + 1);
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_WireNarrow)->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 4, 8}});

// A PRS round's fold of a received payload of base ranks at the width of
// the third argument (and at that width on the wire) into the total (and,
// with the fourth argument 1, into the prefix too), read one byte off
// alignment: the level-0 vector of the 512 x 512 cyclic CSS unpack (16384
// entries).
void BM_RankFold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool both = state.range(3) != 0;
  kernels::with_base_rank(rank_width(state), [&](auto zero) {
    using U = decltype(zero);
    // Zero bytes, so the in-place sums cannot overflow across iterations.
    std::vector<std::byte> payload(n * sizeof(U) + 1);
    const std::byte* src = payload.data() + 1;
    std::vector<U> tot(n, 0);
    std::vector<U> pre(n, 0);
    PathGuard guard(state.range(1));
    for (auto _ : state) {
      kernels::add_packed<U>(tot.data(), both ? pre.data() : nullptr, src,
                             n, 8 * sizeof(U));
      benchmark::DoNotOptimize(tot.data());
      benchmark::DoNotOptimize(pre.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(kernels::path_name(kernels::active_path()));
  });
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RankFold)->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 8}, {0, 1}});

// A direct PRS round of uint8 base ranks packed at the third argument's
// bits (1 and 2 are the gated layout's level-0 rounds, 8 an unpacked
// round): the compose of one member's payload, one byte off alignment.
void BM_PackRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bits = static_cast<unsigned>(state.range(2));
  std::vector<std::uint8_t> tot(n);
  for (std::size_t e = 0; e < n; ++e) {
    tot[e] = static_cast<std::uint8_t>((e * 7 + e / 3) % (1U << bits));
  }
  std::vector<std::byte> payload(kernels::packed_bytes(n, bits) + 1);
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    kernels::pack_bits(tot.data(), n, bits, payload.data() + 1);
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_PackRound)->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 4, 8}});

// The receive side of that round: the fold of the packed payload into the
// total (and, with the fourth argument 1, the prefix too), and the first
// round's unpacking copy into the prefix (fourth argument 2).
void BM_PackedFold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bits = static_cast<unsigned>(state.range(2));
  // Zero bytes, so the in-place sums cannot overflow across iterations.
  std::vector<std::byte> payload(kernels::packed_bytes(n, bits) + 1);
  const std::byte* src = payload.data() + 1;
  std::vector<std::uint8_t> tot(n, 0);
  std::vector<std::uint8_t> pre(n, 0);
  PathGuard guard(state.range(1));
  for (auto _ : state) {
    switch (state.range(3)) {
      case 0:
        kernels::add_packed<std::uint8_t>(tot.data(), nullptr, src, n, bits);
        break;
      case 1:
        kernels::add_packed(tot.data(), pre.data(), src, n, bits);
        break;
      default:
        kernels::unpack_bits(src, n, bits, pre.data());
    }
    benchmark::DoNotOptimize(tot.data());
    benchmark::DoNotOptimize(pre.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(kernels::path_name(kernels::active_path()));
}
BENCHMARK(BM_PackedFold)
    ->ArgsProduct({{1 << 14}, {0, 2, 1}, {1, 2, 4, 8}, {0, 1, 2}});

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
BENCHMARK(BM_CmsEncode)->ArgsProduct({{1 << 16}, {0, 2, 1}, {50, 5, 95}});

// CMS run-length decode: unload a run payload into the result vector.
// The scalar side is the historical per-element bounds-check + copy loop
// (the parity reference); the other is the single bulk copy that
// pack.decompose performs on every kernel path.
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
  sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1}});
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
    ->Args({1 << 14, static_cast<int>(PackScheme::kCompactMessage), 2})
    ->Args({1 << 14, static_cast<int>(PackScheme::kCompactMessage), 1});

void BM_Ranking(benchmark::State& state) {
  const int p = 16;
  const auto n = static_cast<dist::index_t>(state.range(0));
  const auto w = static_cast<dist::index_t>(state.range(1));
  sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1}});
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
  sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1}});
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
  sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1}});
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
  sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1}});
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

// The base-rank kernels at width U on the gate's mask and n: the scalar
// reference against the definitions, then every vector path against it.
template <typename U>
void verify_rank_parity(const std::vector<kernels::Path>& paths,
                        const std::vector<mask_t>& mask) {
  const std::size_t n = mask.size();
  std::vector<U> values(n);
  for (std::size_t e = 0; e < n; ++e) values[e] = static_cast<U>(e % 97 + 7);
  kernels::set_path(kernels::Path::kScalar);
  std::vector<U> ref_flags(n);
  const std::int64_t ref_count =
      kernels::mask_flags(mask.data(), n, ref_flags.data());
  // Segments of 5, the last one partial unless 5 divides n.
  const std::size_t segs = (n + 4) / 5;
  std::vector<std::int64_t> ref_sums(segs);
  kernels::segment_sums(values.data(), n, 5, ref_sums.data());
  const std::vector<std::int64_t> addends(ref_sums.rbegin(), ref_sums.rend());
  std::vector<std::int64_t> ref_fold(n);
  kernels::segmented_prefix_fold(values.data(), values.data(), n, 5,
                                 addends.data(), ref_fold.data());
  std::vector<std::int64_t> ref_fg(n, -1);
  ref_fg.resize(kernels::segmented_prefix_fold_gather(
      values.data(), values.data(), n, 5, addends.data(), mask.data(),
      ref_fg.data()));
  // The PRS rounds at every width up to U's, each on the values reduced
  // to fit it: packed one byte off alignment, unpacked, and folded into
  // two destinations.
  std::vector<unsigned> widths;
  for (unsigned bits = 1; bits <= 8 * sizeof(U); bits *= 2) {
    widths.push_back(bits);
  }
  auto fitted = [&](unsigned bits) {
    std::vector<U> v = values;
    if (bits < 8 * sizeof(U)) {
      for (U& x : v) x = static_cast<U>(x % (U{1} << bits));
    }
    return v;
  };
  std::vector<std::vector<std::byte>> ref_packed;
  for (const unsigned bits : widths) {
    const std::vector<U> v = fitted(bits);
    ref_packed.emplace_back(kernels::packed_bytes(n, bits) + 1);
    kernels::pack_bits(v.data(), n, bits, ref_packed.back().data() + 1);
    std::vector<U> back(n);
    kernels::unpack_bits(ref_packed.back().data() + 1, n, bits, back.data());
    std::vector<U> a = values;
    std::vector<U> b(n, 3);
    kernels::add_packed(a.data(), b.data(), ref_packed.back().data() + 1, n,
                        bits);
    for (std::size_t e = 0; e < n; ++e) {
      if (a[e] != static_cast<U>(values[e] + v[e]) ||
          b[e] != static_cast<U>(v[e] + 3)) {
        die("scalar add_packed is wrong");
      }
    }
    if (back != v) die("scalar pack_bits/unpack_bits do not round-trip");
  }
  // The reference against the definitions: the flags are the mask, the
  // totals cover every value once, a segment's first slot gains only its
  // addend, and the fused gather keeps the fold's selected slots.
  if (ref_count != count_true(mask)) die("scalar mask_flags count is wrong");
  std::int64_t total = 0;
  std::vector<std::int64_t> fold_sel;
  for (std::size_t e = 0; e < n; ++e) {
    if (ref_flags[e] != (mask[e] != 0 ? 1 : 0)) {
      die("scalar mask_flags is wrong");
    }
    total += static_cast<std::int64_t>(values[e]);
    if (e % 5 == 0 &&
        ref_fold[e] != static_cast<std::int64_t>(values[e]) + addends[e / 5]) {
      die("scalar segmented_prefix_fold is wrong");
    }
    if (mask[e] != 0) fold_sel.push_back(ref_fold[e]);
  }
  if (std::accumulate(ref_sums.begin(), ref_sums.end(), std::int64_t{0}) !=
      total) {
    die("scalar segment_sums is wrong");
  }
  if (ref_fg != fold_sel) die("scalar segmented_prefix_fold_gather is wrong");
  for (const kernels::Path path : paths) {
    kernels::set_path(path);
    std::vector<U> flags(n, 9);
    if (kernels::mask_flags(mask.data(), n, flags.data()) != ref_count ||
        flags != ref_flags) {
      die("mask_flags mismatch");
    }
    std::vector<std::int64_t> sums(segs, -1);
    kernels::segment_sums(values.data(), n, 5, sums.data());
    if (sums != ref_sums) die("segment_sums mismatch");
    std::vector<std::int64_t> fold(n, -1);
    kernels::segmented_prefix_fold(values.data(), values.data(), n, 5,
                                   addends.data(), fold.data());
    if (fold != ref_fold) die("segmented_prefix_fold mismatch");
    std::vector<std::int64_t> fg(n, -1);
    fg.resize(kernels::segmented_prefix_fold_gather(
        values.data(), values.data(), n, 5, addends.data(), mask.data(),
        fg.data()));
    if (fg != ref_fg) die("segmented_prefix_fold_gather mismatch");
    for (std::size_t w = 0; w < widths.size(); ++w) {
      const unsigned bits = widths[w];
      const std::vector<U> v = fitted(bits);
      std::vector<std::byte> packed(ref_packed[w].size(), std::byte{0x5c});
      packed[0] = ref_packed[w][0];
      kernels::pack_bits(v.data(), n, bits, packed.data() + 1);
      if (packed != ref_packed[w]) die("pack_bits mismatch");
      std::vector<U> back(n, 9);
      kernels::unpack_bits(packed.data() + 1, n, bits, back.data());
      if (back != v) die("unpack_bits mismatch");
      std::vector<U> a2 = values;
      std::vector<U> b2(n, 3);
      kernels::add_packed(a2.data(), b2.data(), packed.data() + 1, n, bits);
      std::vector<U> want_a = values;
      for (std::size_t e = 0; e < n; ++e) {
        want_a[e] = static_cast<U>(values[e] + v[e]);
      }
      if (a2 != want_a) die("add_packed mismatch");
    }
  }
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
      verify_rank_parity<std::uint8_t>(paths, mask);
      verify_rank_parity<std::uint16_t>(paths, mask);
      verify_rank_parity<std::uint32_t>(paths, mask);
      verify_rank_parity<std::int64_t>(paths, mask);
      std::vector<std::int64_t> values(n);
      std::iota(values.begin(), values.end(), 7);
      kernels::set_path(kernels::Path::kScalar);
      const std::int64_t ref_count = kernels::mask_count(mask.data(), n);
      std::vector<std::int64_t> ref_out(n, -1);
      const std::size_t ref_k = kernels::mask_gather<std::int64_t>(
          mask.data(), values.data(), n, ref_out.data());
      // The stream holds exactly the selected count, so an over-read is an
      // ASan finding.
      const std::vector<std::int64_t> stream(values.begin(),
                                             values.begin() +
                                                 static_cast<long>(ref_k));
      const std::vector<std::int64_t> field(n, -4);
      std::vector<std::int64_t> ref_merged(n, -1);
      std::vector<std::int64_t> regathered(n);
      if (kernels::mask_merge<std::int64_t>(mask.data(), stream.data(),
                                            stream.size(), field.data(), n,
                                            ref_merged.data()) != ref_k ||
          kernels::mask_gather<std::int64_t>(mask.data(), ref_merged.data(), n,
                                             regathered.data()) != ref_k ||
          !std::equal(stream.begin(), stream.end(), regathered.begin())) {
        die("scalar mask_merge does not invert mask_gather");
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (mask[i] == 0 && ref_merged[i] != -4) {
          die("scalar mask_merge lost a field slot");
        }
      }
      // The request-run scan: the first value outside [7, 7 + n / 2).
      const auto half = static_cast<std::int64_t>(n / 2);
      const std::size_t ref_run =
          kernels::prefix_in_range(values.data(), n, 7, 7 + half);
      if (ref_run != n / 2) die("scalar prefix_in_range is wrong");
      // The requests as local indices: the values shifted by -7 and
      // narrowed to two bytes, one byte off alignment; the reply gather
      // answers index l with base[l].
      std::vector<std::byte> request(n * 2 + 1);
      kernels::narrow_to_bytes(values.data(), n, 2, request.data() + 1, -7);
      std::vector<std::int64_t> base(n);
      std::iota(base.begin(), base.end(), 1000);
      std::vector<std::int64_t> ref_reply(n, -1);
      kernels::index_gather<std::int64_t>(
          request.data() + 1, n, 2, base.data(), base.size(),
          reinterpret_cast<std::byte*>(ref_reply.data()));
      if (ref_reply != base) die("scalar index_gather is wrong");
      // The request compose at every narrow width: values mod 256 fit
      // each; each width's payload sits one byte off alignment.
      std::vector<std::int64_t> small(n);
      for (std::size_t e = 0; e < n; ++e) small[e] = values[e] % 256;
      const std::size_t kWidths[] = {1, 2, 4};
      std::vector<std::vector<std::byte>> ref_wire;
      for (const std::size_t w : kWidths) {
        ref_wire.emplace_back(n * w + 1);
        kernels::narrow_to_bytes(small.data(), n, w,
                                 ref_wire.back().data() + 1);
        for (std::size_t e = 0; e < n; ++e) {
          std::uint64_t back = 0;
          std::memcpy(&back, ref_wire.back().data() + 1 + e * w, w);
          if (back != static_cast<std::uint64_t>(small[e])) {
            die("scalar narrow_to_bytes is wrong");
          }
        }
      }
      for (const kernels::Path path : paths) {
        kernels::set_path(path);
        if (kernels::mask_count(mask.data(), n) != ref_count) {
          die("mask_count mismatch");
        }
        std::vector<std::byte> req(n * 2 + 1);
        kernels::narrow_to_bytes(values.data(), n, 2, req.data() + 1, -7);
        if (req != request) die("narrow_to_bytes (biased) mismatch");
        std::vector<std::int64_t> reply(n, -1);
        kernels::index_gather<std::int64_t>(
            req.data() + 1, n, 2, base.data(), base.size(),
            reinterpret_cast<std::byte*>(reply.data()));
        if (reply != ref_reply) die("index_gather mismatch");
        std::vector<std::int64_t> merged(n, -2);
        if (kernels::mask_merge<std::int64_t>(mask.data(), stream.data(),
                                              stream.size(), field.data(), n,
                                              merged.data()) != ref_k ||
            merged != ref_merged) {
          die("mask_merge mismatch");
        }
        if (kernels::prefix_in_range(values.data(), n, 7, 7 + half) !=
            ref_run) {
          die("prefix_in_range mismatch");
        }
        for (std::size_t wi = 0; wi < 3; ++wi) {
          const std::size_t w = kWidths[wi];
          std::vector<std::byte> wire(n * w + 1);
          kernels::narrow_to_bytes(small.data(), n, w, wire.data() + 1);
          if (wire != ref_wire[wi]) die("narrow_to_bytes mismatch");
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
  kernels::set_path(std::nullopt);
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
    kernels::set_path(
        scalar ? std::optional<kernels::Path>(kernels::Path::kScalar)
               : std::nullopt);
    sim::Machine machine(p, {.cost = sim::CostModel{10.0, 0.1}});
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
  kernels::set_path(std::nullopt);
  if (!(runs[1].digest == runs[0].digest)) {
    die("end-to-end digest differs across kernel paths");
  }
  if (runs[1].values != runs[0].values) {
    die("end-to-end values differ across kernel paths");
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
