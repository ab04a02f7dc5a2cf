// Property tests for the vectorized local kernels (core/kernels/): every
// vector path must agree bit for bit with the scalar reference across
// densities, lengths covering every remainder mod the widest lane (32
// bytes, AVX2), and element widths -- plus PUP_SIMD dispatch semantics and
// in-process end-to-end digest parity.
#include "core/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/determinism.hpp"
#include "core/api.hpp"
#include "support/env.hpp"

namespace pup {
namespace {

using kernels::Path;

/// Restores PUP_SIMD resolution when a test body returns or throws.
class ForceGuard {
 public:
  explicit ForceGuard(std::optional<Path> p) {
    kernels::force_path_for_testing(p);
  }
  ~ForceGuard() { kernels::force_path_for_testing(std::nullopt); }
};

std::vector<Path> vector_paths() {
  std::vector<Path> paths = {Path::kGeneric};
  if (kernels::native_available()) paths.push_back(Path::kNative);
  return paths;
}

/// Lengths hitting every remainder mod 32 (one sub-block case and one
/// full-block-plus-tail case each), plus degenerate and large sizes.
std::vector<std::size_t> interesting_lengths() {
  std::vector<std::size_t> lens = {0, 1, 4096, 4099};
  for (std::size_t r = 0; r < 32; ++r) {
    lens.push_back(r);
    lens.push_back(64 + r);
  }
  return lens;
}

const double kDensities[] = {0.0, 0.01, 0.5, 0.99, 1.0};
const std::uint64_t kSeeds[] = {1, 42, 20260808};

TEST(SimdKernels, MaskCountMatchesScalarEverywhere) {
  for (const std::uint64_t seed : kSeeds) {
    for (const double density : kDensities) {
      for (const std::size_t n : interesting_lengths()) {
        const auto mask =
            random_mask(static_cast<dist::index_t>(n), density, seed);
        ForceGuard ref(Path::kScalar);
        const std::int64_t expect = kernels::mask_count(mask.data(), n);
        for (const Path path : vector_paths()) {
          kernels::force_path_for_testing(path);
          EXPECT_EQ(kernels::mask_count(mask.data(), n), expect)
              << kernels::path_name(path) << " n=" << n << " d=" << density;
        }
      }
    }
  }
}

template <typename T>
void check_gather_parity() {
  for (const double density : kDensities) {
    for (const std::size_t n : interesting_lengths()) {
      const auto mask =
          random_mask(static_cast<dist::index_t>(n), density, 7);
      std::vector<T> values(n);
      std::iota(values.begin(), values.end(), T(3));
      std::vector<T> expect(n, T(-1));
      ForceGuard ref(Path::kScalar);
      const std::size_t expect_k = kernels::mask_gather<T>(
          mask.data(), values.data(), n, expect.data());
      for (const Path path : vector_paths()) {
        kernels::force_path_for_testing(path);
        std::vector<T> out(n, T(-2));
        const std::size_t k = kernels::mask_gather<T>(
            mask.data(), values.data(), n, out.data());
        ASSERT_EQ(k, expect_k)
            << kernels::path_name(path) << " n=" << n << " d=" << density;
        for (std::size_t j = 0; j < k; ++j) {
          ASSERT_EQ(out[j], expect[j])
              << kernels::path_name(path) << " n=" << n << " j=" << j;
        }
        // Stop-early: any target in [0, k] collects exactly the first
        // `target` selected elements.
        for (const std::size_t target :
             {std::size_t{0}, k / 2, k}) {
          std::vector<T> first(n, T(-3));
          const std::size_t got = kernels::mask_gather_first_n<T>(
              mask.data(), values.data(), n, target, first.data());
          ASSERT_EQ(got, target) << kernels::path_name(path) << " n=" << n;
          for (std::size_t j = 0; j < got; ++j) {
            ASSERT_EQ(first[j], expect[j]);
          }
        }
      }
    }
  }
}

TEST(SimdKernels, GatherInt32MatchesScalar) {
  check_gather_parity<std::int32_t>();
}
TEST(SimdKernels, GatherInt64MatchesScalar) {
  check_gather_parity<std::int64_t>();
}
TEST(SimdKernels, GatherDoubleMatchesScalar) {
  check_gather_parity<double>();
}

/// A W-byte element, so mask_expand is swept over every width 1-16 (the
/// widths without a specialized vector loop fall back to the reference).
template <std::size_t W>
struct Bytes {
  std::array<std::uint8_t, W> b;
  bool operator==(const Bytes&) const = default;
};

template <std::size_t W>
void check_expand_parity() {
  using E = Bytes<W>;
  for (const std::uint64_t seed : kSeeds) {
    for (const double density : kDensities) {
      for (const std::size_t n : interesting_lengths()) {
        const auto mask =
            random_mask(static_cast<dist::index_t>(n), density, seed);
        const auto count = static_cast<std::size_t>(count_true(mask));
        // src holds exactly the selected count: any read past it is an
        // out-of-bounds read under the sanitizers.
        std::vector<E> src(count);
        std::vector<E> init(n);
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t j = 0; j < W; ++j) {
            src[i].b[j] = static_cast<std::uint8_t>(i * 31 + j + seed);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          init[i].b.fill(static_cast<std::uint8_t>(0xa0 ^ i));
        }
        ForceGuard ref(Path::kScalar);
        std::vector<E> expect = init;
        ASSERT_EQ(kernels::mask_expand<E>(mask.data(), src.data(), n,
                                          expect.data()),
                  count);
        // The reference is the inverse of mask_gather and leaves the
        // unselected slots alone.
        std::vector<E> regathered(n);
        ASSERT_EQ(kernels::mask_gather<E>(mask.data(), expect.data(), n,
                                          regathered.data()),
                  count);
        regathered.resize(count);
        ASSERT_EQ(regathered, src);
        for (std::size_t i = 0; i < n; ++i) {
          if (mask[i] == 0) {
            ASSERT_EQ(expect[i], init[i]);
          }
        }
        for (const Path path : vector_paths()) {
          kernels::force_path_for_testing(path);
          std::vector<E> got = init;
          ASSERT_EQ(kernels::mask_expand<E>(mask.data(), src.data(), n,
                                            got.data()),
                    count)
              << kernels::path_name(path) << " W=" << W << " n=" << n;
          ASSERT_TRUE(got == expect)
              << kernels::path_name(path) << " W=" << W << " n=" << n
              << " d=" << density << " seed=" << seed;
        }
      }
    }
  }
}

TEST(SimdKernels, ExpandMatchesScalarForWidths1To16) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (check_expand_parity<I + 1>(), ...);
  }(std::make_index_sequence<16>{});
}

TEST(SimdKernels, SegmentedPrefixMatchesScalar) {
  for (const std::size_t n : interesting_lengths()) {
    for (std::size_t seg : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                            n == 0 ? std::size_t{1} : n}) {
      std::vector<std::int64_t> input(n);
      for (std::size_t i = 0; i < n; ++i) {
        input[i] = static_cast<std::int64_t>((i * 2654435761U) % 1000) - 500;
      }
      std::vector<std::int64_t> expect = input;
      ForceGuard ref(Path::kScalar);
      kernels::segmented_exclusive_prefix(expect.data(), n, seg);
      for (const Path path : vector_paths()) {
        kernels::force_path_for_testing(path);
        std::vector<std::int64_t> got = input;
        kernels::segmented_exclusive_prefix(got.data(), n, seg);
        ASSERT_EQ(got, expect)
            << kernels::path_name(path) << " n=" << n << " seg=" << seg;
      }
    }
  }
}

TEST(SimdKernels, AddInPlaceMatchesScalar) {
  for (const std::size_t n : interesting_lengths()) {
    std::vector<std::int64_t> dst0(n), src(n);
    for (std::size_t i = 0; i < n; ++i) {
      dst0[i] = static_cast<std::int64_t>(i * 31);
      src[i] = static_cast<std::int64_t>(1000 - static_cast<std::int64_t>(i));
    }
    std::vector<std::int64_t> expect = dst0;
    ForceGuard ref(Path::kScalar);
    kernels::add_in_place(expect.data(), src.data(), n);
    for (const Path path : vector_paths()) {
      kernels::force_path_for_testing(path);
      std::vector<std::int64_t> got = dst0;
      kernels::add_in_place(got.data(), src.data(), n);
      ASSERT_EQ(got, expect) << kernels::path_name(path) << " n=" << n;
    }
  }
}

TEST(SimdKernels, RunDecodeMatchesScalar) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{100}, std::size_t{4099}}) {
    std::vector<std::int64_t> payload(n);
    std::iota(payload.begin(), payload.end(), 11);
    const auto* src = reinterpret_cast<const std::byte*>(payload.data());
    std::vector<std::int64_t> expect(n, -1);
    kernels::scalar::run_decode(src, n, sizeof(std::int64_t),
                                reinterpret_cast<std::byte*>(expect.data()));
    std::vector<std::int64_t> got(n, -2);
    kernels::run_decode<std::int64_t>(src, n, got.data());
    EXPECT_EQ(got, expect) << "n=" << n;
    EXPECT_EQ(expect, payload);
  }
}

TEST(SimdKernels, ParseSimdFlag) {
  EXPECT_TRUE(kernels::parse_simd_flag(std::nullopt));
  for (const char* v : {"auto", "on", "1", "simd"}) {
    EXPECT_TRUE(kernels::parse_simd_flag(std::string(v))) << v;
  }
  for (const char* v : {"off", "0", "scalar"}) {
    EXPECT_FALSE(kernels::parse_simd_flag(std::string(v))) << v;
  }
  EXPECT_THROW(kernels::parse_simd_flag(std::string("fast")), ContractError);
  EXPECT_THROW(kernels::parse_simd_flag(std::string("")), ContractError);
}

TEST(SimdKernels, EnvKnobSelectsPath) {
  const std::optional<std::string> saved = support::Env::get().simd;
  support::Env::override_for_testing("PUP_SIMD", std::string("off"));
  kernels::force_path_for_testing(std::nullopt);  // drop cached resolution
  EXPECT_EQ(kernels::active_path(), Path::kScalar);
  EXPECT_FALSE(kernels::vectorized());
  support::Env::override_for_testing("PUP_SIMD", std::string("on"));
  kernels::force_path_for_testing(std::nullopt);
  EXPECT_NE(kernels::active_path(), Path::kScalar);
  EXPECT_TRUE(kernels::vectorized());
  if (kernels::native_available()) {
    EXPECT_EQ(kernels::active_path(), Path::kNative);
  }
  support::Env::override_for_testing("PUP_SIMD", saved);
  kernels::force_path_for_testing(std::nullopt);
}

TEST(SimdKernels, ForceNativeRequiresSupport) {
  if (kernels::native_available()) GTEST_SKIP() << "native path available";
  EXPECT_THROW(kernels::force_path_for_testing(Path::kNative), ContractError);
}

// End-to-end: CMS pack and unpack produce identical digests and values
// under every kernel path (the thread-count axis is covered by the
// _threaded / _simd_off ctest registrations of the full suites).
TEST(SimdKernels, EndToEndPackUnpackParity) {
  const int p = 8;
  const dist::index_t n = 1 << 12;
  struct Run {
    analysis::TraceDigest pack_digest;
    std::vector<std::int64_t> packed;
    std::vector<std::int64_t> unpacked;
  };
  std::vector<Path> paths = {Path::kScalar};
  for (const Path v : vector_paths()) paths.push_back(v);
  std::vector<Run> runs;
  for (const Path path : paths) {
    ForceGuard force(path);
    sim::Machine machine(p, sim::CostModel{10.0, 0.1, 0.01});
    analysis::DigestRecorder recorder(machine);
    auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                              dist::ProcessGrid({p}), 64);
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), 0);
    auto a = dist::DistArray<std::int64_t>::scatter(d, data);
    auto m = dist::DistArray<mask_t>::scatter(d, random_mask(n, 0.37, 5));
    PackOptions popt;
    popt.scheme = PackScheme::kCompactMessage;
    auto packed = pack(machine, a, m, popt);
    auto field = dist::DistArray<std::int64_t>::scatter(
        d, std::vector<std::int64_t>(static_cast<std::size_t>(n), -7));
    auto unpacked = unpack(machine, packed.vector, m, field);
    runs.push_back(Run{recorder.digest(), packed.vector.gather(),
                       unpacked.result.gather()});
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(runs[i].pack_digest == runs[0].pack_digest)
        << "digest diverged on path " << kernels::path_name(paths[i]);
    EXPECT_EQ(runs[i].packed, runs[0].packed);
    EXPECT_EQ(runs[i].unpacked, runs[0].unpacked);
  }
}

}  // namespace
}  // namespace pup
