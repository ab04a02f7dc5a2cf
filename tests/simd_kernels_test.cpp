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

TEST(SimdKernels, WireNarrowAndWidenMatchReferenceAtEveryOffset) {
  // The PRS wire: compose at width 1, 2, 4 and 8 (the int64 wire, signed
  // entries), then the widening copy and the one- and two-destination
  // folds, from a byte stream at every offset 0..7 of an aligned buffer
  // (so a path that reinterprets it as int64_t* performs misaligned loads,
  // a UBSan finding in the sanitizer job).  Every path must produce the
  // scalar reference's bytes and sums.
  for (const std::size_t width : {1, 2, 4, 8}) {
    for (const std::size_t n : fold_lengths()) {
      const auto values = wire_values(n, width, 5);
      const auto dst0 = mixed_values(n, 11);
      const auto dst20 = mixed_values(n, 19);
      std::vector<std::int64_t> expect = dst0;
      std::vector<std::int64_t> expect2 = dst20;
      for (std::size_t e = 0; e < n; ++e) {
        expect[e] += values[e];
        expect2[e] += values[e];
      }
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
          std::vector<std::int64_t> copy(n, -1);
          kernels::widen_from_bytes(copy.data(), wire, n, width);
          ASSERT_EQ(copy, values) << what;
          std::vector<std::int64_t> one = dst0;
          kernels::add_from_bytes(one.data(), wire, n, width);
          ASSERT_EQ(one, expect) << what;
          std::vector<std::int64_t> a = dst0;
          std::vector<std::int64_t> b = dst20;
          kernels::add_from_bytes(a.data(), b.data(), wire, n, width);
          ASSERT_EQ(a, expect) << what << " (two dst)";
          ASSERT_EQ(b, expect2) << what << " (two dst)";
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

TEST(SimdKernels, MaskWidenMatchesReferenceAtEveryOffset) {
  // Mask bytes are 0, 1, 2 and 255: any nonzero byte widens to one.  The
  // outputs are pre-filled with garbage, so a slot the kernel skips shows.
  const std::uint8_t kBytes[] = {0, 1, 2, 255};
  for (const double density : kDensities) {
    for (const std::size_t n : fold_lengths()) {
      const auto sel = random_mask(static_cast<dist::index_t>(n), density, 9);
      std::vector<std::uint8_t> storage(n + 8);
      std::vector<std::int64_t> want_ps(n);
      std::int64_t want = 0;
      for (std::size_t i = 0; i < n; ++i) {
        want_ps[i] = sel[i] != 0 ? 1 : 0;
        want += want_ps[i];
      }
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::uint8_t* mask = storage.data() + offset;
        for (std::size_t i = 0; i < n; ++i) {
          mask[i] = sel[i] == 0 ? 0 : kBytes[1 + (i * 7 + offset) % 3];
        }
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          std::vector<std::int64_t> ps(n, -7);
          ASSERT_EQ(kernels::mask_widen(mask, n, ps.data()), want)
              << kernels::path_name(path) << " n=" << n << " d=" << density;
          ASSERT_EQ(ps, want_ps) << kernels::path_name(path) << " n=" << n
                                 << " offset=" << offset;
        }
      }
    }
  }
}

/// Segment lengths: 1, 3 and 128 (the benchmark's step-0 segment), a few
/// around the lane width, and one segment over the whole array.  Lengths
/// not divisible by a segment length end in a partial segment.
std::vector<std::size_t> segment_lengths(std::size_t n) {
  return {1, 3, 4, 5, 64, 128, n == 0 ? std::size_t{1} : n};
}

TEST(SimdKernels, SegmentSumsMatchDefinition) {
  for (const std::size_t n : fold_lengths()) {
    for (const std::size_t seg : segment_lengths(n)) {
      const auto rs = mixed_values(n, 5);
      const std::size_t segs = (n + seg - 1) / seg;
      std::vector<std::int64_t> want(segs, 0);
      for (std::size_t e = 0; e < n; ++e) want[e / seg] += rs[e];
      for (const Path path : all_paths()) {
        ForceGuard force(path);
        // One slot past the last segment: it must stay untouched.
        std::vector<std::int64_t> sums(segs + 1, -9);
        kernels::segment_sums(rs.data(), n, seg, sums.data());
        ASSERT_EQ(sums.back(), -9) << kernels::path_name(path);
        sums.pop_back();
        ASSERT_EQ(sums, want)
            << kernels::path_name(path) << " n=" << n << " seg=" << seg;
      }
    }
  }
}

TEST(SimdKernels, SegmentedPrefixFoldMatchesDefinition) {
  // ps[e] += (sum of rs over e's segment before e) + seg_add[e / seg]; rs
  // and seg_add are read only.
  for (const std::size_t n : fold_lengths()) {
    for (const std::size_t seg : segment_lengths(n)) {
      const auto rs = mixed_values(n, 5);
      const auto ps0 = mixed_values(n, 23);
      const auto add = mixed_values((n + seg - 1) / seg, 41);
      std::vector<std::int64_t> want = ps0;
      for (std::size_t s = 0; s < n; s += seg) {
        std::int64_t running = 0;
        for (std::size_t e = s; e < std::min(n, s + seg); ++e) {
          want[e] += running + add[s / seg];
          running += rs[e];
        }
      }
      for (const Path path : all_paths()) {
        ForceGuard force(path);
        std::vector<std::int64_t> ps = ps0;
        kernels::segmented_prefix_fold(rs.data(), ps.data(), n, seg,
                                       add.data());
        ASSERT_EQ(ps, want)
            << kernels::path_name(path) << " n=" << n << " seg=" << seg;
        ASSERT_EQ(rs, mixed_values(n, 5)) << kernels::path_name(path);
      }
    }
  }
}

TEST(SimdKernels, SegmentedPrefixFoldGatherMatchesDefinition) {
  // The folded value of segmented_prefix_fold, kept only where the mask is
  // set, compacted in order; in place over ps and out of place into a
  // garbage-filled buffer.  rs and seg_add are read only.
  for (const double density : {0.0, 0.5, 1.0}) {
    for (const std::size_t n : fold_lengths()) {
      const auto mask = random_mask(static_cast<dist::index_t>(n), density,
                                    static_cast<std::uint64_t>(n) + 3);
      for (const std::size_t seg : segment_lengths(n)) {
        const auto rs = mixed_values(n, 5);
        const auto ps0 = mixed_values(n, 23);
        const auto add = mixed_values((n + seg - 1) / seg, 41);
        std::vector<std::int64_t> want;
        for (std::size_t s = 0; s < n; s += seg) {
          std::int64_t running = 0;
          for (std::size_t e = s; e < std::min(n, s + seg); ++e) {
            if (mask[e] != 0) want.push_back(ps0[e] + running + add[s / seg]);
            running += rs[e];
          }
        }
        for (const Path path : all_paths()) {
          ForceGuard force(path);
          const std::string what = std::string(kernels::path_name(path)) +
                                   " n=" + std::to_string(n) +
                                   " seg=" + std::to_string(seg) +
                                   " d=" + std::to_string(density);
          std::vector<std::int64_t> out(n, -77);
          const std::size_t k = kernels::segmented_prefix_fold_gather(
              rs.data(), ps0.data(), n, seg, add.data(), mask.data(),
              out.data());
          out.resize(k);
          ASSERT_EQ(out, want) << what << " (out of place)";
          std::vector<std::int64_t> ps = ps0;
          ps.resize(kernels::segmented_prefix_fold_gather(
              rs.data(), ps.data(), n, seg, add.data(), mask.data(),
              ps.data()));
          ASSERT_EQ(ps, want) << what << " (in place)";
          ASSERT_EQ(rs, mixed_values(n, 5)) << what;
        }
      }
    }
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
