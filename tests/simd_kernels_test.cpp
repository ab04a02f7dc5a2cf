// Property tests for the vectorized local kernels (core/kernels/): every
// vector path must agree bit for bit with the scalar reference across
// densities, lengths covering every remainder mod the widest lane (32
// bytes, AVX2), and element widths -- plus set_path() dispatch semantics
// and in-process end-to-end digest parity.
#include "core/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/determinism.hpp"
#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using kernels::Path;

/// Restores the startup kernel path (PUP_SIMD, read by the test main) when
/// a test body returns or throws.
class ForceGuard {
 public:
  explicit ForceGuard(std::optional<Path> p) { kernels::set_path(p); }
  ~ForceGuard() { kernels::set_path(std::nullopt); }
};

std::vector<Path> vector_paths() {
  std::vector<Path> paths = {Path::kGeneric};
  if (kernels::native_available()) paths.push_back(Path::kNative);
  return paths;
}

/// All kernel paths, reference first.
std::vector<Path> all_paths() {
  std::vector<Path> paths = {Path::kScalar};
  for (const Path p : vector_paths()) paths.push_back(p);
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
          kernels::set_path(path);
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
        kernels::set_path(path);
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

/// A W-byte element, so mask_merge is swept over every width 1-16 (the
/// widths without a specialized vector loop fall back to the reference).
template <std::size_t W>
struct Bytes {
  std::array<std::uint8_t, W> b;
  bool operator==(const Bytes&) const = default;
};

template <std::size_t W>
void check_merge_parity() {
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
        std::vector<E> field(n);
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t j = 0; j < W; ++j) {
            src[i].b[j] = static_cast<std::uint8_t>(i * 31 + j + seed);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          field[i].b.fill(static_cast<std::uint8_t>(0xa0 ^ i));
        }
        // The definition: selected slots take the stream in order, the
        // others the field.
        std::vector<E> expect(n);
        for (std::size_t i = 0, k = 0; i < n; ++i) {
          expect[i] = mask[i] != 0 ? src[k++] : field[i];
        }
        // A stream one value short: every path must throw before it
        // reads past its end.
        const std::vector<E> short_src(src.begin(),
                                       src.end() - (count == 0 ? 0 : 1));
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          // Garbage in every slot: a slot the kernel skips shows.
          std::vector<E> got(n);
          for (E& e : got) e.b.fill(0x5c);
          ASSERT_EQ(kernels::mask_merge<E>(mask.data(), src.data(), count,
                                           field.data(), n, got.data()),
                    count)
              << kernels::path_name(path) << " W=" << W << " n=" << n;
          ASSERT_TRUE(got == expect)
              << kernels::path_name(path) << " W=" << W << " n=" << n
              << " d=" << density << " seed=" << seed;
          if (count == 0) continue;
          EXPECT_THROW(kernels::mask_merge<E>(mask.data(), short_src.data(),
                                              count - 1, field.data(), n,
                                              got.data()),
                       ContractError)
              << kernels::path_name(path) << " W=" << W << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, MergeMatchesDefinitionForWidths1To16) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (check_merge_parity<I + 1>(), ...);
  }(std::make_index_sequence<16>{});
}

/// Lengths 0..67 (every remainder of every lane width, plus a few full
/// blocks) and one local extent of the benchmark's CSS unpack.
std::vector<std::size_t> fold_lengths() {
  std::vector<std::size_t> lens(68);
  std::iota(lens.begin(), lens.end(), std::size_t{0});
  lens.push_back(16384);
  return lens;
}

std::vector<std::int64_t> mixed_values(std::size_t n, std::uint64_t salt) {
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::int64_t>(((i + salt) * 2654435761U) % 100003) -
           50000;
  }
  return v;
}

/// Values in [0, 2^(8 width)) below width 8: a spread that sets the top
/// bit of the width, plus both extremes.  At width 8, the plain int64
/// wire, signed values: mixed_values, plus both extremes that folding into
/// mixed_values cannot overflow.
std::vector<std::int64_t> wire_values(std::size_t n, std::size_t width,
                                      std::uint64_t salt) {
  if (width == 8) {
    auto v = mixed_values(n, salt);
    if (n > 0) v[0] = std::int64_t{1} << 62;
    if (n > 1) v[n - 1] = -(std::int64_t{1} << 62);
    return v;
  }
  const std::uint64_t limit = std::uint64_t{1} << (8 * width);
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = (i + salt) * 0x9e3779b97f4a7c15ULL;
    v[i] = static_cast<std::int64_t>(x % limit);
  }
  if (n > 0) v[0] = 0;
  if (n > 1) v[n - 1] = static_cast<std::int64_t>(limit - 1);
  return v;
}

TEST(SimdKernels, WireNarrowMatchesReferenceAtEveryOffset) {
  // UNPACK's requests and the ranking's level seeds: the checked compose
  // at width 1, 2, 4 and 8 (the int64 wire, signed entries), plain and
  // biased, into a byte stream at every offset 0..7 of an aligned buffer
  // (so a path that reinterprets it as int64_t* performs misaligned
  // stores, a UBSan finding in the sanitizer job).  Every path must
  // produce the scalar reference's bytes.
  for (const std::size_t width : {1, 2, 4, 8}) {
    for (const std::size_t n : fold_lengths()) {
      const auto values = wire_values(n, width, 5);
      std::vector<std::byte> ref(n * width);
      {
        ForceGuard force(Path::kScalar);
        kernels::narrow_to_bytes(values.data(), n, width, ref.data());
      }
      std::vector<std::byte> storage(n * width + 8);
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::byte* wire = storage.data() + offset;
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          const std::string what = std::string(kernels::path_name(path)) +
                                   " width=" + std::to_string(width) +
                                   " n=" + std::to_string(n) +
                                   " offset=" + std::to_string(offset);
          kernels::narrow_to_bytes(values.data(), n, width, wire);
          ASSERT_TRUE(n == 0 || std::memcmp(wire, ref.data(), n * width) == 0)
              << what;
          // The same entries, composed as shifted values plus a bias.
          constexpr std::int64_t kBias = -12345;
          std::vector<std::int64_t> shifted = values;
          for (auto& x : shifted) x -= kBias;
          std::fill(storage.begin(), storage.end(), std::byte{0x5c});
          kernels::narrow_to_bytes(shifted.data(), n, width, wire, kBias);
          ASSERT_TRUE(n == 0 || std::memcmp(wire, ref.data(), n * width) == 0)
              << what << " (biased)";
        }
      }
    }
  }
}

TEST(SimdKernels, WireNarrowThrowsOnAnyOutOfRangeEntry) {
  // One entry past the width -- 2^(8 width), or -1 -- at every position of
  // a 67-entry vector: every path throws rather than truncate it.
  constexpr std::size_t n = 67;
  std::vector<std::byte> out(n * 4);
  for (const std::size_t width : {1, 2, 4}) {
    for (const std::int64_t bad :
         {static_cast<std::int64_t>(std::uint64_t{1} << (8 * width)),
          std::int64_t{-1}}) {
      for (std::size_t at = 0; at < n; ++at) {
        auto values = wire_values(n, width, 7);
        values[at] = bad;
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          EXPECT_THROW(
              kernels::narrow_to_bytes(values.data(), n, width, out.data()),
              ContractError)
              << kernels::path_name(path) << " width=" << width
              << " bad=" << bad << " at=" << at;
          // Out of range only once the bias is added.
          auto shifted = values;
          for (auto& x : shifted) x -= 3;
          EXPECT_THROW(kernels::narrow_to_bytes(shifted.data(), n, width,
                                                out.data(), 3),
                       ContractError)
              << kernels::path_name(path) << " width=" << width
              << " bad=" << bad << " at=" << at << " (biased)";
        }
      }
    }
  }
  const std::int64_t one = 1;
  EXPECT_THROW(kernels::narrow_to_bytes(&one, 1, 3, out.data()),
               ContractError);
}

// --- base-rank kernels -------------------------------------------------------
//
// Every width-templated kernel at each base-rank width (uint8, uint16,
// uint32, int64), n = 0..67 (every remainder of every lane count, plus
// full blocks) and one level-0 array of the benchmark's CSS unpack, each
// input at offsets 0..7 -- bytes for the mask and payload streams,
// entries for the typed arrays -- and each path against the scalar
// reference (itself checked against the definition).

template <typename U>
class BaseRankKernels : public ::testing::Test {};

struct BaseRankName {
  template <typename U>
  static std::string GetName(int) {
    return (std::is_signed_v<U> ? "i" : "u") + std::to_string(8 * sizeof(U));
  }
};

using BaseRankTypes =
    ::testing::Types<std::uint8_t, std::uint16_t, std::uint32_t, std::int64_t>;
TYPED_TEST_SUITE(BaseRankKernels, BaseRankTypes, BaseRankName);

/// Segment lengths: 1, 3, 64 and 128 (the benchmark's step-0 segment), a
/// few around the lane width, and one segment over the whole array.  Lengths
/// not divisible by a segment length end in a partial segment.
std::vector<std::size_t> segment_lengths(std::size_t n) {
  return {1, 3, 4, 5, 64, 128, n == 0 ? std::size_t{1} : n};
}

/// n base ranks below a quarter of U's range, so any two of them add
/// without wrapping (int64: below 2^40, so a whole array's int64 sum does
/// not overflow either), written at `offset` entries into storage that the
/// caller keeps alive.
template <typename U>
U* rank_values(std::vector<U>& storage, std::size_t n, std::size_t offset,
               std::uint64_t salt) {
  const std::uint64_t top =
      sizeof(U) == 8 ? std::uint64_t{1} << 40
                     : (std::uint64_t{1} << (8 * sizeof(U) - 2));
  storage.assign(n + 8, U{0});
  U* v = storage.data() + offset;
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<U>(((i + salt) * 0x9e3779b97f4a7c15ULL) % top);
  }
  if (n > 1) v[n - 1] = static_cast<U>(top - 1);
  return v;
}

TYPED_TEST(BaseRankKernels, MaskFlagsMatchReferenceAtEveryOffset) {
  // Mask bytes are 0, 1, 2 and 255: any nonzero byte is one flag.  The
  // outputs are pre-filled with garbage, so a slot the kernel skips shows.
  using U = TypeParam;
  const std::uint8_t kBytes[] = {1, 2, 255};
  for (const double density : kDensities) {
    for (const std::size_t n : fold_lengths()) {
      const auto sel = random_mask(static_cast<dist::index_t>(n), density, 9);
      std::vector<std::uint8_t> storage(n + 8);
      std::vector<U> want(n);
      ASSERT_EQ(kernels::scalar::mask_flags<U>(sel.data(), n, want.data()),
                count_true(sel))
          << "n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[i], sel[i] != 0 ? 1 : 0);
      }
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::uint8_t* mask = storage.data() + offset;
        for (std::size_t i = 0; i < n; ++i) {
          mask[i] = sel[i] == 0 ? 0 : kBytes[(i * 7 + offset) % 3];
        }
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          std::vector<U> out(n + 8, static_cast<U>(7));
          ASSERT_EQ(kernels::mask_flags<U>(mask, n, out.data() + offset),
                    count_true(sel))
              << kernels::path_name(path) << " n=" << n << " d=" << density;
          ASSERT_TRUE(std::equal(want.begin(), want.end(),
                                 out.begin() + static_cast<long>(offset)))
              << kernels::path_name(path) << " n=" << n
              << " offset=" << offset;
        }
      }
    }
  }
}

TYPED_TEST(BaseRankKernels, SegmentSumsMatchReference) {
  using U = TypeParam;
  for (const std::size_t n : fold_lengths()) {
    for (const std::size_t seg : segment_lengths(n)) {
      std::vector<U> rs_store;
      const U* rs0 = rank_values<U>(rs_store, n, 0, 5);
      const std::size_t segs = (n + seg - 1) / seg;
      std::vector<std::int64_t> want(segs, 0);
      for (std::size_t e = 0; e < n; ++e) {
        want[e / seg] += static_cast<std::int64_t>(rs0[e]);
      }
      std::vector<std::int64_t> ref(segs + 1, -9);
      kernels::scalar::segment_sums<U>(rs0, n, seg, ref.data());
      ASSERT_EQ(ref.back(), -9);
      ref.pop_back();
      ASSERT_EQ(ref, want) << "n=" << n << " seg=" << seg;
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::vector<U> store;
        const U* rs = rank_values<U>(store, n, offset, 5);
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          // One slot past the last segment: it must stay untouched.
          std::vector<std::int64_t> sums(segs + 1, -9);
          kernels::segment_sums<U>(rs, n, seg, sums.data());
          ASSERT_EQ(sums.back(), -9) << kernels::path_name(path);
          sums.pop_back();
          ASSERT_EQ(sums, ref) << kernels::path_name(path) << " n=" << n
                               << " seg=" << seg << " offset=" << offset;
        }
      }
    }
  }
}

TYPED_TEST(BaseRankKernels, SegmentedPrefixFoldMatchesReference) {
  // out[e] = ps[e] + (sum of rs over e's segment before e) +
  // seg_add[e / seg]; rs, ps and seg_add are read only.
  using U = TypeParam;
  for (const std::size_t n : fold_lengths()) {
    for (const std::size_t seg : segment_lengths(n)) {
      const auto add = mixed_values((n + seg - 1) / seg, 41);
      std::vector<U> rs_store, ps_store;
      const U* rs0 = rank_values<U>(rs_store, n, 0, 5);
      const U* ps0 = rank_values<U>(ps_store, n, 0, 23);
      std::vector<std::int64_t> want(n);
      for (std::size_t s = 0; s < n; s += seg) {
        std::int64_t running = 0;
        for (std::size_t e = s; e < std::min(n, s + seg); ++e) {
          want[e] = static_cast<std::int64_t>(ps0[e]) + running + add[s / seg];
          running += static_cast<std::int64_t>(rs0[e]);
        }
      }
      std::vector<std::int64_t> ref(n, -3);
      kernels::scalar::segmented_prefix_fold<U>(rs0, ps0, n, seg, add.data(),
                                                ref.data());
      ASSERT_EQ(ref, want) << "n=" << n << " seg=" << seg;
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::vector<U> rs_at, ps_at;
        const U* rs = rank_values<U>(rs_at, n, offset, 5);
        const U* ps = rank_values<U>(ps_at, n, 7 - offset, 23);
        const std::vector<U> rs_before = rs_at;
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          std::vector<std::int64_t> out(n + 8, -77);
          kernels::segmented_prefix_fold<U>(rs, ps, n, seg, add.data(),
                                            out.data() + offset);
          ASSERT_TRUE(std::equal(ref.begin(), ref.end(),
                                 out.begin() + static_cast<long>(offset)))
              << kernels::path_name(path) << " n=" << n << " seg=" << seg
              << " offset=" << offset;
          ASSERT_EQ(rs_at, rs_before) << kernels::path_name(path);
        }
      }
    }
  }
}

TYPED_TEST(BaseRankKernels, SegmentedPrefixFoldGatherMatchesReference) {
  // The folded value of segmented_prefix_fold, kept only where the mask is
  // set, compacted in order into a garbage-filled buffer.
  using U = TypeParam;
  for (const double density : {0.0, 0.5, 1.0}) {
    for (const std::size_t n : fold_lengths()) {
      const auto sel = random_mask(static_cast<dist::index_t>(n), density,
                                   static_cast<std::uint64_t>(n) + 3);
      for (const std::size_t seg : segment_lengths(n)) {
        const auto add = mixed_values((n + seg - 1) / seg, 41);
        std::vector<U> rs_store, ps_store;
        const U* rs0 = rank_values<U>(rs_store, n, 0, 5);
        const U* ps0 = rank_values<U>(ps_store, n, 0, 23);
        std::vector<std::int64_t> folded(n);
        kernels::scalar::segmented_prefix_fold<U>(rs0, ps0, n, seg,
                                                  add.data(), folded.data());
        std::vector<std::int64_t> want;
        for (std::size_t e = 0; e < n; ++e) {
          if (sel[e] != 0) want.push_back(folded[e]);
        }
        std::vector<std::int64_t> ref(n, -5);
        ref.resize(kernels::scalar::segmented_prefix_fold_gather<U>(
            rs0, ps0, n, seg, add.data(), sel.data(), ref.data()));
        ASSERT_EQ(ref, want) << "n=" << n << " seg=" << seg;
        for (std::size_t offset = 0; offset < 8; ++offset) {
          std::vector<U> rs_at, ps_at;
          const U* rs = rank_values<U>(rs_at, n, offset, 5);
          const U* ps = rank_values<U>(ps_at, n, 7 - offset, 23);
          std::vector<std::uint8_t> mask_store(n + 8);
          std::uint8_t* mask = mask_store.data() + offset;
          std::copy(sel.begin(), sel.end(), mask);
          for (const Path path : all_paths()) {
            ForceGuard force(path);
            const std::string what = std::string(kernels::path_name(path)) +
                                     " n=" + std::to_string(n) +
                                     " seg=" + std::to_string(seg) +
                                     " d=" + std::to_string(density) +
                                     " offset=" + std::to_string(offset);
            // Exactly the room the contract asks for: the selected count
            // plus the slack (an overrun is an ASan finding).
            std::vector<std::int64_t> out(
                std::min(n, ref.size() + kernels::kGatherSlack), -77);
            out.resize(kernels::segmented_prefix_fold_gather<U>(
                rs, ps, n, seg, add.data(), mask, out.data()));
            ASSERT_EQ(out, ref) << what;
          }
        }
      }
    }
  }
}

/// The round widths a PRS of base ranks U may pack at: 1 bit up to U's.
template <typename U>
std::vector<unsigned> round_widths() {
  std::vector<unsigned> out;
  for (unsigned bits = 1; bits <= 8 * sizeof(U); bits *= 2) out.push_back(bits);
  return out;
}

/// n values that fit a `bits`-bit round (below 2^40 at 64 bits), every
/// one of them at most `cap`, with the round's largest value among them.
template <typename U>
std::vector<U> round_values(std::size_t n, unsigned bits, std::uint64_t cap,
                            std::uint64_t salt) {
  const std::uint64_t top = bits >= 40 ? std::uint64_t{1} << 40
                                       : std::uint64_t{1} << bits;
  const std::uint64_t limit = std::min(top - 1, cap);
  std::vector<U> v(n);
  for (std::size_t e = 0; e < n; ++e) {
    v[e] = static_cast<U>(((e + salt) * 0x9e3779b97f4a7c15ULL) % (limit + 1));
  }
  if (n > 2) v[n / 2] = static_cast<U>(limit);
  return v;
}

/// The definition of a packed payload: entry e's bit j at payload bit
/// e bits + j.
template <typename U>
std::vector<std::byte> packed_definition(const std::vector<U>& v,
                                         unsigned bits) {
  std::vector<std::byte> out(kernels::packed_bytes(v.size(), bits));
  for (std::size_t e = 0; e < v.size(); ++e) {
    const auto x = static_cast<std::uint64_t>(v[e]);
    for (unsigned j = 0; j < bits; ++j) {
      if (((x >> j) & 1) == 0) continue;
      const std::size_t bit = e * bits + j;
      out[bit / 8] |= static_cast<std::byte>(1U << (bit % 8));
    }
  }
  return out;
}

TYPED_TEST(BaseRankKernels, PackedRoundsMatchDefinitionAtEveryOffset) {
  // A PRS round at every width up to U's -- U's own, as every PRS sends
  // it, and the packed direct rounds' narrower ones -- n = 0..67 and 16384
  // entries, its payload at every offset 0..7 of an aligned buffer (a path
  // that reinterprets it as U* performs misaligned loads, a UBSan finding
  // in the sanitizer job): packing gives the definition's bytes, unpacking
  // gives the entries back, and the fold adds them into one destination or
  // two -- every path, reference included.
  using U = TypeParam;
  const std::uint64_t half =
      sizeof(U) == 8 ? std::uint64_t{1} << 40
                     : std::uint64_t{std::numeric_limits<U>::max()} / 2;
  for (const unsigned bits : round_widths<U>()) {
    for (const std::size_t n : fold_lengths()) {
      const auto values = round_values<U>(n, bits, half, bits + n);
      const auto want = packed_definition(values, bits);
      const auto dst0 = round_values<U>(n, 64, half, 3);
      const auto dst20 = round_values<U>(n, 64, half, 17);
      std::vector<U> sum(n), sum2(n);
      for (std::size_t e = 0; e < n; ++e) {
        sum[e] = static_cast<U>(dst0[e] + values[e]);
        sum2[e] = static_cast<U>(dst20[e] + values[e]);
      }
      std::vector<std::byte> storage(want.size() + 8);
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::byte* wire = storage.data() + offset;
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          const std::string what = std::string(kernels::path_name(path)) +
                                   " bits=" + std::to_string(bits) +
                                   " n=" + std::to_string(n) +
                                   " offset=" + std::to_string(offset);
          std::fill(storage.begin(), storage.end(), std::byte{0x5c});
          kernels::pack_bits<U>(values.data(), n, bits, wire);
          ASSERT_TRUE(std::equal(want.begin(), want.end(), wire)) << what;
          std::vector<U> back(n + 1, static_cast<U>(7));
          kernels::unpack_bits<U>(wire, n, bits, back.data());
          ASSERT_TRUE(std::equal(values.begin(), values.end(), back.begin()))
              << what;
          ASSERT_EQ(back[n], static_cast<U>(7)) << what << " (past n)";
          std::vector<U> a = dst0;
          kernels::add_packed<U>(a.data(), nullptr, wire, n, bits);
          ASSERT_EQ(a, sum) << what;
          a = dst0;
          std::vector<U> b = dst20;
          kernels::add_packed<U>(a.data(), b.data(), wire, n, bits);
          ASSERT_EQ(a, sum) << what << " (two dst)";
          ASSERT_EQ(b, sum2) << what << " (two dst)";
        }
      }
    }
  }
}

TYPED_TEST(BaseRankKernels, CheckedAddThrowsOnOverflow) {
  // Below int64 one sum past U's range -- U's largest value plus one --
  // at every position of a 37-entry vector (every lane of a vector step
  // and of the tail), in the first destination or only in the second, for
  // a payload of ones at every round width: every path throws rather than
  // wrap, naming the width.  At int64 the add is unchecked.
  using U = TypeParam;
  if constexpr (std::is_signed_v<U>) {
    GTEST_SKIP() << "int64 sums are unchecked";
  } else {
    constexpr std::size_t n = 37;
    const std::vector<U> ones(n, 1);
    for (const unsigned bits : round_widths<U>()) {
      const auto packed = packed_definition(ones, bits);
      std::vector<std::byte> bytes(packed.size() + 1);
      std::copy(packed.begin(), packed.end(), bytes.begin() + 1);
      const std::byte* src = bytes.data() + 1;
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<U> full(n, 0);
        full[at] = std::numeric_limits<U>::max();
        const std::vector<U> zeros(n, 0);
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          const std::string what = std::string(kernels::path_name(path)) +
                                   " bits=" + std::to_string(bits) +
                                   " at=" + std::to_string(at);
          std::vector<U> a = full;
          try {
            kernels::add_packed<U>(a.data(), nullptr, src, n, bits);
            ADD_FAILURE() << what << ": the wrapped sum was stored";
          } catch (const ContractError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("does not fit the " +
                               std::to_string(sizeof(U)) + "-byte wire"),
                      std::string::npos)
                << what << ": " << msg;
          }
          a = full;
          std::vector<U> b = zeros;
          EXPECT_THROW(kernels::add_packed<U>(a.data(), b.data(), src, n,
                                              bits),
                       ContractError)
              << what << " (first of two)";
          a = zeros;
          b = full;
          EXPECT_THROW(kernels::add_packed<U>(a.data(), b.data(), src, n,
                                              bits),
                       ContractError)
              << what << " (second of two)";
        }
      }
    }
  }
}

TYPED_TEST(BaseRankKernels, PackedRoundsThrowOnWhatDoesNotFit) {
  // An entry one past its round (2^bits, or -1 at int64) at every position
  // of a 37-entry vector: every path throws rather than truncate it, and
  // so does a round width outside the set or wider than U.
  using U = TypeParam;
  constexpr std::size_t n = 37;
  std::vector<std::byte> wire(8 * n);
  for (const unsigned bits : round_widths<U>()) {
    std::vector<U> bad_values = {};
    if (bits < 8 * sizeof(U)) {
      bad_values.push_back(static_cast<U>(std::uint64_t{1} << bits));
    }
    if constexpr (std::is_signed_v<U>) bad_values.push_back(U{-1});
    for (const U bad : bad_values) {
      if (bits == 64) continue;  // the int64 wire carries any value
      for (std::size_t at = 0; at < n; ++at) {
        auto values = round_values<U>(n, bits, ~std::uint64_t{0}, 5);
        values[at] = bad;
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          EXPECT_THROW(kernels::pack_bits<U>(values.data(), n, bits,
                                             wire.data()),
                       ContractError)
              << kernels::path_name(path) << " bits=" << bits
              << " at=" << at;
        }
      }
    }
  }
  const U one = 1;
  for (const unsigned bits :
       {0U, 3U, 128U, static_cast<unsigned>(16 * sizeof(U))}) {
    EXPECT_THROW(kernels::pack_bits<U>(&one, 1, bits, wire.data()),
                 ContractError)
        << "bits=" << bits;
  }
}

template <typename T>
void check_index_gather() {
  // out[i] = base[x_i] over an extent of 100, at every index width, from
  // request bytes at offsets 0-7 from an aligned buffer (as a received
  // payload may be), n = 0..37.  An index at the extent or at the width's
  // largest value, placed at every position (every lane of every step and
  // of the tail) of the streams with n <= 13 or n = 37, at two offsets,
  // throws ContractError.
  const std::size_t extent = 100;
  std::vector<T> base(extent);
  for (std::size_t j = 0; j < extent; ++j) {
    base[j] = static_cast<T>(j * 7 + 3);
  }
  std::vector<std::int64_t> storage(40);
  std::vector<std::byte> out(40 * sizeof(T) + 8);
  auto* o = out.data() + 3;
  for (const Path path : all_paths()) {
    ForceGuard force(path);
    for (const std::size_t iw : {1, 2, 4, 8}) {
      const std::uint64_t widest =
          iw == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * iw)) - 1;
      for (std::size_t offset = 0; offset < 8; ++offset) {
        auto* req = reinterpret_cast<std::byte*>(storage.data()) + offset;
        for (std::size_t n = 0; n <= 37; ++n) {
          std::vector<std::uint64_t> v(n);
          for (std::size_t i = 0; i < n; ++i) v[i] = (i * 37) % extent;
          auto write = [&](const std::vector<std::uint64_t>& index) {
            for (std::size_t i = 0; i < n; ++i) {
              std::memcpy(req + i * iw, &index[i], iw);  // low bytes
            }
          };
          const std::string where = std::string(kernels::path_name(path)) +
                                    " width=" + std::to_string(sizeof(T)) +
                                    " index_width=" + std::to_string(iw) +
                                    " offset=" + std::to_string(offset) +
                                    " n=" + std::to_string(n);
          write(v);
          std::fill(out.begin(), out.end(), std::byte{0x5c});
          kernels::index_gather<T>(req, n, iw, base.data(), extent, o);
          for (std::size_t i = 0; i < n; ++i) {
            T got;
            std::memcpy(&got, o + i * sizeof(T), sizeof(T));
            ASSERT_EQ(got, base[v[i]]) << where << " i=" << i;
          }
          const bool probe_throws =
              (offset == 0 || offset == 5) && (n <= 13 || n == 37);
          for (std::size_t at = 0; probe_throws && at < n; ++at) {
            for (const std::uint64_t bad : {std::uint64_t{extent}, widest}) {
              std::vector<std::uint64_t> w = v;
              w[at] = bad;
              write(w);
              EXPECT_THROW(
                  kernels::index_gather<T>(req, n, iw, base.data(), extent, o),
                  ContractError)
                  << where << " at=" << at << " index=" << bad;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, IndexGatherMatchesDefinitionAndRejectsOutOfRange) {
  check_index_gather<std::int64_t>();
  check_index_gather<std::int32_t>();
  check_index_gather<std::int16_t>();
  check_index_gather<std::int8_t>();
}

TEST(SimdKernels, PrefixInRangeStopsAtFirstOutsideValue) {
  // [lo, hi) = [100, 200).  The prefix ends at a value just below lo or at
  // hi, placed at every position (every lane of every block and of the
  // tail), and runs to n when every value is inside, including n = 0.
  const std::int64_t lo = 100;
  const std::int64_t hi = 200;
  for (const Path path : all_paths()) {
    ForceGuard force(path);
    EXPECT_EQ(kernels::prefix_in_range(nullptr, 0, lo, hi), 0U)
        << kernels::path_name(path);
    for (std::size_t n = 1; n <= 37; ++n) {
      std::vector<std::int64_t> v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = lo + static_cast<std::int64_t>((i * 37) % 100);
      }
      ASSERT_EQ(kernels::prefix_in_range(v.data(), n, lo, hi), n)
          << kernels::path_name(path) << " n=" << n;
      for (std::size_t at = 0; at < n; ++at) {
        for (const std::int64_t outside :
             {lo - 1, hi, std::numeric_limits<std::int64_t>::min(),
              std::numeric_limits<std::int64_t>::max()}) {
          std::vector<std::int64_t> w = v;
          w[at] = outside;
          // A second exit later must not matter.
          if (at + 2 < n) w[at + 2] = hi + 5;
          ASSERT_EQ(kernels::prefix_in_range(w.data(), n, lo, hi), at)
              << kernels::path_name(path) << " n=" << n << " at=" << at
              << " value=" << outside;
        }
      }
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

TEST(SimdKernels, SetPathSelectsPath) {
  // Which table a call runs through shows in mask_gather's scratch: the
  // scalar reference writes only the selected slots, while the vector
  // paths store a mixed block speculatively past them (the out-capacity
  // contract), so out[1] changes.
  std::array<std::uint8_t, 32> mask{};
  mask[0] = 1;
  std::array<std::int64_t, 32> values{};
  std::iota(values.begin(), values.end(), 1);
  const auto spills = [&] {
    std::array<std::int64_t, 32> out;
    out.fill(-1);
    EXPECT_EQ(kernels::mask_gather<std::int64_t>(mask.data(), values.data(),
                                                 32, out.data()),
              1U);
    return out[1] != -1;
  };
  ForceGuard scalar(Path::kScalar);
  EXPECT_EQ(kernels::active_path(), Path::kScalar);
  EXPECT_FALSE(spills());
  kernels::set_path(std::nullopt);  // auto: the best vector path
  EXPECT_NE(kernels::active_path(), Path::kScalar);
  if (kernels::native_available()) {
    EXPECT_EQ(kernels::active_path(), Path::kNative);
  }
  EXPECT_TRUE(spills());
  kernels::set_path(Path::kGeneric);
  EXPECT_TRUE(spills());
  kernels::set_path(Path::kScalar);
  EXPECT_FALSE(spills());
}

TEST(SimdKernels, ForceNativeRequiresSupport) {
  if (kernels::native_available()) GTEST_SKIP() << "native path available";
  EXPECT_THROW(kernels::set_path(Path::kNative), ContractError);
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
    auto machine = test::make_machine(p);
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
