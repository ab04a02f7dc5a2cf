#include "core/kernels/kernels.hpp"

#include <atomic>
#include <bit>
#include <utility>

// The native path: this translation unit (alone) is compiled with -mavx2
// when the toolchain targets x86-64 (src/CMakeLists.txt), so the intrinsics
// below may emit AVX2 instructions -- which is why every call into them is
// gated on the runtime cpuid check in native_available().  On AArch64 NEON
// is baseline, so __ARM_NEON needs no runtime gate.
#if defined(PUP_KERNELS_AVX2)
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define PUP_KERNELS_NEON 1
#endif

namespace pup::kernels {
namespace {

// SWAR helpers: 0x80 in each byte of the result iff that byte of x is zero
// (exact -- no carry false-positives: the 0x7f add saturates each byte's
// low 7 bits into bit 7, and OR-ing x back in covers bytes with only bit 7
// set).
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
constexpr std::uint64_t kHigh = 0x8080808080808080ULL;

inline std::uint64_t zero_byte_flags(std::uint64_t x) {
  const std::uint64_t t = (x & kLow7) + kLow7;
  return ~(t | x | kLow7) & kHigh;
}

inline std::uint64_t load_u64(const void* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof(x));
  return x;
}

// The e-th int64 of an unaligned byte stream (a received payload).
inline std::int64_t load_i64(const std::byte* src, std::size_t e) {
  std::int64_t x;
  std::memcpy(&x, src + e * sizeof(x), sizeof(x));
  return x;
}

// The stream check of every mask_merge path: consuming `take` more values
// after the first k must stay within the src_len the caller handed in.
// The throw is out of line, off the merge loops' hot path.
[[noreturn, gnu::cold, gnu::noinline]] void stream_overrun(
    std::size_t src_len) {
  PUP_REQUIRE(false, "mask_merge: the mask selects more than the "
                         << src_len << " values of its stream");
  __builtin_unreachable();
}

inline void require_stream(std::size_t k, std::size_t take,
                           std::size_t src_len) {
  if (take > src_len - k) stream_overrun(src_len);
}

// --- narrow PRS wire entries ----------------------------------------------

// A wire entry is the low `width` bytes of its int64 value, which every
// path reads and writes as the first bytes in memory.
static_assert(std::endian::native == std::endian::little,
              "the narrow PRS wire kernels assume a little-endian host");

void require_wire_width(std::size_t width) {
  PUP_REQUIRE(width == 1 || width == 2 || width == 4 || width == 8,
              "PRS wire width must be 1, 2, 4 or 8 bytes, not " << width);
}

// The narrowing check failed somewhere in src[0, n): name the first entry
// that does not fit.  Out of line, off the compose loops' hot path.
[[noreturn, gnu::cold, gnu::noinline]] void wire_overflow(
    const std::int64_t* src, std::size_t n, std::size_t width) {
  std::size_t e = 0;
  while (e < n && (static_cast<std::uint64_t>(src[e]) >> (8 * width)) == 0) {
    ++e;
  }
  PUP_REQUIRE(false, "PRS wire entry " << (e < n ? src[e] : 0) << " at index "
                                       << e << " does not fit the " << width
                                       << "-byte wire width");
  __builtin_unreachable();
}

// The e-th width-byte unsigned entry of an unaligned byte stream, and its
// store: the entry's bytes are the value's low bytes (little-endian).
inline std::uint64_t load_wire(const std::byte* src, std::size_t e,
                               std::size_t width) {
  std::uint64_t x = 0;
  std::memcpy(&x, src + e * width, width);
  return x;
}

inline void store_wire(std::byte* out, std::size_t e, std::size_t width,
                       std::uint64_t v) {
  std::memcpy(out + e * width, &v, width);
}

// --- dispatch state -------------------------------------------------------

// -1 = auto; otherwise the Path pinned by set_path().  A relaxed atomic:
// set_path() runs only in single-threaded sections, and every path
// computes the same bytes.
std::atomic<int> g_forced{-1};

bool cpu_has_native() {
#if defined(PUP_KERNELS_AVX2)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#elif defined(PUP_KERNELS_NEON)
  return true;
#else
  return false;
#endif
}

}  // namespace

const char* path_name(Path p) {
  switch (p) {
    case Path::kScalar:
      return "scalar";
    case Path::kGeneric:
      return "generic";
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      return "avx2";
#elif defined(PUP_KERNELS_NEON)
      return "neon";
#else
      return "native";
#endif
  }
  return "unknown";
}

bool native_available() { return cpu_has_native(); }

Path active_path() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Path>(forced);
  return cpu_has_native() ? Path::kNative : Path::kGeneric;
}

void set_path(std::optional<Path> p) {
  PUP_REQUIRE(!p.has_value() || p != Path::kNative || cpu_has_native(),
              "cannot pin the native kernel path: not compiled in or not "
              "supported by this CPU");
  g_forced.store(p.has_value() ? static_cast<int>(*p) : -1,
                 std::memory_order_relaxed);
}

// --- scalar reference implementations -------------------------------------

namespace scalar {

std::int64_t mask_count(const std::uint8_t* mask, std::size_t n) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += (mask[i] != 0);
  return c;
}

std::int64_t mask_widen(const std::uint8_t* mask, std::size_t n,
                        std::int64_t* ps) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = (mask[i] != 0);
    ps[i] = v;
    c += v;
  }
  return c;
}

void segment_sums(const std::int64_t* rs, std::size_t n, std::size_t seg_len,
                  std::int64_t* sums) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t total = 0;
    for (std::size_t e = s; e < end; ++e) total += rs[e];
    sums[g] = total;
  }
}

// The definition, element by element: the segment's running exclusive
// prefix plus the segment's addend.
void segmented_prefix_fold(const std::int64_t* rs, std::int64_t* ps,
                           std::size_t n, std::size_t seg_len,
                           const std::int64_t* seg_add) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t running = 0;
    for (std::size_t e = s; e < end; ++e) {
      ps[e] += running + seg_add[g];
      running += rs[e];
    }
  }
}

std::size_t segmented_prefix_fold_gather(const std::int64_t* rs,
                                         const std::int64_t* ps,
                                         std::size_t n, std::size_t seg_len,
                                         const std::int64_t* seg_add,
                                         const std::uint8_t* mask,
                                         std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  std::size_t k = 0;
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t running = 0;
    for (std::size_t e = s; e < end; ++e) {
      const std::int64_t v = ps[e] + running + seg_add[g];
      if (mask[e] != 0) out[k++] = v;
      running += rs[e];
    }
  }
  return k;
}

void add_from_bytes(std::int64_t* dst, const std::byte* src, std::size_t n) {
  for (std::size_t e = 0; e < n; ++e) dst[e] += load_i64(src, e);
}

void add_from_bytes(std::int64_t* dst, std::int64_t* dst2,
                    const std::byte* src, std::size_t n) {
  for (std::size_t e = 0; e < n; ++e) {
    const std::int64_t v = load_i64(src, e);
    dst[e] += v;
    dst2[e] += v;
  }
}

// The definitions entry by entry: each value is checked before it is
// stored, so the first one that does not fit throws.
void narrow_to_bytes(const std::int64_t* src, std::size_t n,
                     std::size_t width, std::byte* out) {
  require_wire_width(width);
  for (std::size_t e = 0; e < n; ++e) {
    const auto v = static_cast<std::uint64_t>(src[e]);
    if (width < 8 && (v >> (8 * width)) != 0) wire_overflow(src, n, width);
    store_wire(out, e, width, v);
  }
}

void widen_from_bytes(std::int64_t* dst, const std::byte* src, std::size_t n,
                      std::size_t width) {
  require_wire_width(width);
  for (std::size_t e = 0; e < n; ++e) {
    dst[e] = static_cast<std::int64_t>(load_wire(src, e, width));
  }
}

void add_from_bytes(std::int64_t* dst, const std::byte* src, std::size_t n,
                    std::size_t width) {
  require_wire_width(width);
  for (std::size_t e = 0; e < n; ++e) {
    dst[e] += static_cast<std::int64_t>(load_wire(src, e, width));
  }
}

void add_from_bytes(std::int64_t* dst, std::int64_t* dst2,
                    const std::byte* src, std::size_t n, std::size_t width) {
  require_wire_width(width);
  for (std::size_t e = 0; e < n; ++e) {
    const auto v = static_cast<std::int64_t>(load_wire(src, e, width));
    dst[e] += v;
    dst2[e] += v;
  }
}

std::size_t prefix_in_range(const std::int64_t* v, std::size_t n,
                            std::int64_t lo, std::int64_t hi) {
  std::size_t i = 0;
  while (i < n && v[i] >= lo && v[i] < hi) ++i;
  return i;
}

std::size_t gather(const std::uint8_t* mask, const std::byte* values,
                   std::size_t n, std::size_t width, std::byte* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) {
      std::memcpy(out + k * width, values + i * width, width);
      ++k;
    }
  }
  return k;
}

std::size_t gather_first_n(const std::uint8_t* mask, const std::byte* values,
                           std::size_t limit, std::size_t target,
                           std::size_t width, std::byte* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < limit && k < target; ++i) {
    if (mask[i] != 0) {
      std::memcpy(out + k * width, values + i * width, width);
      ++k;
    }
  }
  return k;
}

std::size_t merge(const std::uint8_t* mask, const std::byte* src,
                  std::size_t src_len, const std::byte* field, std::size_t n,
                  std::size_t width, std::byte* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) {
      require_stream(k, 1, src_len);
      std::memcpy(out + i * width, src + k * width, width);
      ++k;
    } else {
      std::memcpy(out + i * width, field + i * width, width);
    }
  }
  return k;
}

std::size_t run_gather(const std::byte* ranks, std::size_t n, std::int64_t lo,
                       std::int64_t hi, const std::byte* base,
                       std::size_t width, std::byte* out) {
  std::size_t i = 0;
  for (; i < n; ++i) {
    const std::int64_t r = load_i64(ranks, i);
    if (r < lo || r >= hi) break;
    std::memcpy(out + i * width,
                base + static_cast<std::size_t>(r - lo) * width, width);
  }
  return i;
}

void run_decode(const std::byte* src, std::size_t count, std::size_t width,
                std::byte* out) {
  std::size_t pos = 0;
  const std::size_t total = count * width;
  for (std::size_t j = 0; j < count; ++j) {
    PUP_REQUIRE(pos + width <= total, "byte stream underflow");
    std::memcpy(out + j * width, src + pos, width);
    pos += width;
  }
}

}  // namespace scalar

// --- vector implementations -----------------------------------------------

namespace {

std::int64_t mask_count_generic(const std::uint8_t* mask, std::size_t n) {
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t zeros = zero_byte_flags(load_u64(mask + i));
    count += 8 - std::popcount(zeros);
  }
  for (; i < n; ++i) count += (mask[i] != 0);
  return count;
}

#if defined(PUP_KERNELS_AVX2)
std::int64_t mask_count_avx2(const std::uint8_t* mask, std::size_t n) {
  std::int64_t count = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + i));
    const auto eqz = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    count += 32 - std::popcount(eqz);
  }
  for (; i < n; ++i) count += (mask[i] != 0);
  return count;
}
#elif defined(PUP_KERNELS_NEON)
std::int64_t mask_count_neon(const std::uint8_t* mask, std::size_t n) {
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(mask + i);
    // 0xFF where nonzero; shift to 0/1 and sum the block.
    const uint8x16_t nz = vtstq_u8(v, v);
    count += vaddvq_u8(vshrq_n_u8(nz, 7));
  }
  for (; i < n; ++i) count += (mask[i] != 0);
  return count;
}
#endif

// Unrolled prefix: the dependence chain (one add per element in program
// order), not vector width, bounds a scalar prefix, so the generic path
// breaks the chain -- four rotated partial sums per step.  Exact integer
// adds, so any association gives the reference's values; the running sum
// starts at the segment's addend, so each prefix value is already the
// amount to add into ps.
void segmented_prefix_fold_unrolled(const std::int64_t* rs, std::int64_t* ps,
                                    std::size_t n, std::size_t seg_len,
                                    const std::int64_t* seg_add) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t running = seg_add[g];
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      const std::int64_t v0 = rs[e];
      const std::int64_t v1 = rs[e + 1];
      const std::int64_t v2 = rs[e + 2];
      const std::int64_t v3 = rs[e + 3];
      const std::int64_t p1 = running + v0;
      const std::int64_t p2 = p1 + v1;
      const std::int64_t p3 = p2 + v2;
      ps[e] += running;
      ps[e + 1] += p1;
      ps[e + 2] += p2;
      ps[e + 3] += p3;
      running += v0 + v1 + v2 + v3;
    }
    for (; e < end; ++e) {
      ps[e] += running;
      running += rs[e];
    }
  }
}

// Four independent partial sums per segment, combined at its end.
void segment_sums_unrolled(const std::int64_t* rs, std::size_t n,
                           std::size_t seg_len, std::int64_t* sums) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      a0 += rs[e];
      a1 += rs[e + 1];
      a2 += rs[e + 2];
      a3 += rs[e + 3];
    }
    for (; e < end; ++e) a0 += rs[e];
    sums[g] = (a0 + a1) + (a2 + a3);
  }
}

// Range test without a branch per bound: v is in [lo, hi) iff v - lo,
// taken unsigned, is below hi - lo.  Four lanes are tested per step and
// the block holding the exit is finished element by element.
std::size_t prefix_in_range_generic(const std::int64_t* v, std::size_t n,
                                    std::int64_t lo, std::int64_t hi) {
  const std::uint64_t ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - ulo;
  auto outside = [&](std::int64_t x) {
    return static_cast<std::uint64_t>(x) - ulo >= span;
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (outside(v[i]) | outside(v[i + 1]) | outside(v[i + 2]) |
        outside(v[i + 3])) {
      break;
    }
  }
  while (i < n && !outside(v[i])) ++i;
  return i;
}

// SWAR widening: eight mask bytes become eight 0/1 flags per word, then
// eight int64 stores with no data-dependent branch.
std::int64_t mask_widen_generic(const std::uint8_t* mask, std::size_t n,
                                std::int64_t* ps) {
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // 0x01 in each byte whose mask byte is nonzero.
    const std::uint64_t flags =
        (~zero_byte_flags(load_u64(mask + i)) & kHigh) >> 7;
    for (unsigned b = 0; b < 8; ++b) {
      ps[i + b] = static_cast<std::int64_t>((flags >> (8 * b)) & 1);
    }
    count += std::popcount(flags);
  }
  for (; i < n; ++i) {
    const std::int64_t v = (mask[i] != 0);
    ps[i] = v;
    count += v;
  }
  return count;
}

template <bool kTwo>
void add_from_bytes_generic(std::int64_t* dst, std::int64_t* dst2,
                            const std::byte* src, std::size_t n) {
  std::size_t e = 0;
  for (; e + 4 <= n; e += 4) {
    const std::int64_t v0 = load_i64(src, e);
    const std::int64_t v1 = load_i64(src, e + 1);
    const std::int64_t v2 = load_i64(src, e + 2);
    const std::int64_t v3 = load_i64(src, e + 3);
    dst[e] += v0;
    dst[e + 1] += v1;
    dst[e + 2] += v2;
    dst[e + 3] += v3;
    if constexpr (kTwo) {
      dst2[e] += v0;
      dst2[e + 1] += v1;
      dst2[e + 2] += v2;
      dst2[e + 3] += v3;
    }
  }
  for (; e < n; ++e) {
    const std::int64_t v = load_i64(src, e);
    dst[e] += v;
    if constexpr (kTwo) dst2[e] += v;
  }
}

// Narrow wire entries of W bytes (1, 2 or 4), eight bytes of wire per
// step: the compose packs 8/W entries into one word and ORs every value
// into one accumulator, checked once at the end (an entry that does not
// fit sets a bit at or above 8 W); the widening loads unpack one word.
template <std::size_t W>
constexpr std::uint64_t kWireMask = (std::uint64_t{1} << (8 * W)) - 1;

template <std::size_t W>
void narrow_generic(const std::int64_t* src, std::size_t n, std::byte* out) {
  constexpr std::size_t kPer = 8 / W;
  std::uint64_t seen = 0;
  std::size_t e = 0;
  for (; e + kPer <= n; e += kPer) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < kPer; ++k) {
      const auto v = static_cast<std::uint64_t>(src[e + k]);
      seen |= v;
      word |= (v & kWireMask<W>) << (8 * W * k);
    }
    std::memcpy(out + e * W, &word, 8);
  }
  for (; e < n; ++e) {
    const auto v = static_cast<std::uint64_t>(src[e]);
    seen |= v;
    std::memcpy(out + e * W, &v, W);  // the low W bytes (little-endian)
  }
  if ((seen >> (8 * W)) != 0) wire_overflow(src, n, W);
}

// kAdd: dst (and, kTwo, dst2) += the entries; else dst = the entries.
template <std::size_t W, bool kAdd, bool kTwo>
inline void widen_one(std::int64_t* dst, std::int64_t* dst2, std::size_t e,
                      std::uint64_t v) {
  const auto x = static_cast<std::int64_t>(v);
  if constexpr (kAdd) {
    dst[e] += x;
    if constexpr (kTwo) dst2[e] += x;
  } else {
    dst[e] = x;
  }
}

template <std::size_t W, bool kAdd, bool kTwo>
void widen_generic(std::int64_t* dst, std::int64_t* dst2,
                   const std::byte* src, std::size_t n) {
  constexpr std::size_t kPer = 8 / W;
  std::size_t e = 0;
  for (; e + kPer <= n; e += kPer) {
    const std::uint64_t word = load_u64(src + e * W);
    for (std::size_t k = 0; k < kPer; ++k) {
      widen_one<W, kAdd, kTwo>(dst, dst2, e + k,
                               (word >> (8 * W * k)) & kWireMask<W>);
    }
  }
  for (; e < n; ++e) {
    std::uint64_t v = 0;
    std::memcpy(&v, src + e * W, W);  // zero-extended (little-endian)
    widen_one<W, kAdd, kTwo>(dst, dst2, e, v);
  }
}

#if defined(PUP_KERNELS_AVX2)
// Four W-byte entries zero-extended straight into four int64 lanes.
template <std::size_t W>
inline __m256i load4_wire(const std::byte* p) {
  if constexpr (W == 1) {
    return _mm256_cvtepu8_epi64(_mm_loadu_si32(p));
  } else if constexpr (W == 2) {
    return _mm256_cvtepu16_epi64(_mm_loadu_si64(p));
  } else {
    return _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
}

// Four int64 values, OR-ed into the narrowing check's accumulator.
inline __m256i narrow_lane(const std::int64_t* p, __m256i& seen) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  seen = _mm256_or_si256(seen, v);
  return v;
}

// Narrowing: R = 4 / W vectors of four int64 lanes (4 R entries) are
// merged by shifts into one, lane k holding entry k of each vector in its
// low dword; one permute gathers the four low dwords and one byte shuffle
// transposes them into entry order.  Only wire bytes move, and they are
// exact because every value is checked to fit: the OR of all values, whose
// bits at or above 8 W must stay clear.

template <std::size_t W>
void narrow_avx2(const std::int64_t* src, std::size_t n, std::byte* out) {
  constexpr std::size_t kR = 4 / W;
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  // Dword k holds entry k of each of the R vectors, W bytes each; output
  // entry r * 4 + k is at byte k * 4 + r * W (W = 4 needs no shuffle).
  const __m128i transpose =
      W == 1 ? _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7,
                             11, 15)
             : _mm_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11,
                             14, 15);
  __m256i seen = _mm256_setzero_si256();
  std::size_t e = 0;
  for (; e + 4 * kR <= n; e += 4 * kR) {
    __m256i merged = _mm256_setzero_si256();
    [&]<std::size_t... R>(std::index_sequence<R...>) {
      ((merged = _mm256_or_si256(
            merged, _mm256_slli_epi64(narrow_lane(src + e + 4 * R, seen),
                                      8 * W * R))),
       ...);
    }(std::make_index_sequence<kR>{});
    __m128i d = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(merged, low_dwords));
    if constexpr (W != 4) d = _mm_shuffle_epi8(d, transpose);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + e * W), d);
  }
  const __m256i high = _mm256_srli_epi64(seen, static_cast<int>(8 * W));
  bool bad = _mm256_testz_si256(high, high) == 0;
  for (; e < n; ++e) {
    const auto v = static_cast<std::uint64_t>(src[e]);
    bad |= (v >> (8 * W)) != 0;
    std::memcpy(out + e * W, &v, W);
  }
  if (bad) wire_overflow(src, n, W);
}

// The two-destination fold, which the generic loop cannot vectorize
// (dst and dst2 may alias as far as the compiler knows).
template <std::size_t W>
void add_from_bytes2_avx2(std::int64_t* dst, std::int64_t* dst2,
                          const std::byte* src, std::size_t n) {
  std::size_t e = 0;
  for (; e + 4 <= n; e += 4) {
    const __m256i v = load4_wire<W>(src + e * W);
    auto* a = reinterpret_cast<__m256i*>(dst + e);
    auto* b = reinterpret_cast<__m256i*>(dst2 + e);
    _mm256_storeu_si256(a, _mm256_add_epi64(_mm256_loadu_si256(a), v));
    _mm256_storeu_si256(b, _mm256_add_epi64(_mm256_loadu_si256(b), v));
  }
  for (; e < n; ++e) {
    std::uint64_t v = 0;
    std::memcpy(&v, src + e * W, W);
    widen_one<W, true, true>(dst, dst2, e, v);
  }
}
#endif

template <std::size_t W>
void narrow_vector(const std::int64_t* src, std::size_t n, std::byte* out) {
#if defined(PUP_KERNELS_AVX2)
  if (active_path() == Path::kNative) {
    narrow_avx2<W>(src, n, out);
    return;
  }
#endif
  narrow_generic<W>(src, n, out);
}

// The one-destination fold and the widening copy have no AVX2 body: the
// generic word loop measured as fast (bench/micro_kernels, BM_Wire*).
template <std::size_t W, bool kAdd, bool kTwo>
void widen_vector(std::int64_t* dst, std::int64_t* dst2, const std::byte* src,
                  std::size_t n) {
#if defined(PUP_KERNELS_AVX2)
  if constexpr (kTwo) {
    if (active_path() == Path::kNative) {
      add_from_bytes2_avx2<W>(dst, dst2, src, n);
      return;
    }
  }
#endif
  widen_generic<W, kAdd, kTwo>(dst, dst2, src, n);
}

template <bool kAdd, bool kTwo>
void widen_dispatch(std::int64_t* dst, std::int64_t* dst2,
                    const std::byte* src, std::size_t n, std::size_t width) {
  switch (width) {
    case 1:
      return widen_vector<1, kAdd, kTwo>(dst, dst2, src, n);
    case 2:
      return widen_vector<2, kAdd, kTwo>(dst, dst2, src, n);
    default:
      return widen_vector<4, kAdd, kTwo>(dst, dst2, src, n);
  }
}

// The unrolled fold with a branchless compaction: each folded value is
// stored at out[k] and k advances by its mask flag.  A step computes all
// four values before it stores any, and k never passes the element being
// read, so folding in place over ps never clobbers a value still unread.
std::size_t segmented_prefix_fold_gather_unrolled(
    const std::int64_t* rs, const std::int64_t* ps, std::size_t n,
    std::size_t seg_len, const std::int64_t* seg_add, const std::uint8_t* mask,
    std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  std::size_t k = 0;
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t running = seg_add[g];
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      const std::int64_t v0 = rs[e];
      const std::int64_t v1 = rs[e + 1];
      const std::int64_t v2 = rs[e + 2];
      const std::int64_t f0 = ps[e] + running;
      const std::int64_t f1 = ps[e + 1] + running + v0;
      const std::int64_t f2 = ps[e + 2] + running + v0 + v1;
      const std::int64_t f3 = ps[e + 3] + running + v0 + v1 + v2;
      out[k] = f0;
      k += mask[e] != 0;
      out[k] = f1;
      k += mask[e + 1] != 0;
      out[k] = f2;
      k += mask[e + 2] != 0;
      out[k] = f3;
      k += mask[e + 3] != 0;
      running += v0 + v1 + v2 + rs[e + 3];
    }
    for (; e < end; ++e) {
      out[k] = ps[e] + running;
      k += mask[e] != 0;
      running += rs[e];
    }
  }
  return k;
}

#if defined(PUP_KERNELS_AVX2)
// Four lanes at a time: an in-register inclusive scan (two shift-adds
// across the 128-bit halves), minus the input for the exclusive prefix,
// plus the carried running sum, which starts at the segment's addend.  The
// loop-carried chain is one add per block of four.
void segmented_prefix_fold_avx2(const std::int64_t* rs, std::int64_t* ps,
                                std::size_t n, std::size_t seg_len,
                                const std::int64_t* seg_add) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i running = _mm256_set1_epi64x(seg_add[g]);
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rs + e));
      // [0, v0, v1, v2], then [0, 0, v0, v0 + v1].
      const __m256i x1 = _mm256_add_epi64(
          x, _mm256_blend_epi32(
                 _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0)), zero,
                 0x03));
      const __m256i inc = _mm256_add_epi64(
          x1, _mm256_blend_epi32(
                  _mm256_permute4x64_epi64(x1, _MM_SHUFFLE(1, 0, 0, 0)),
                  zero, 0x0f));
      const __m256i excl =
          _mm256_add_epi64(_mm256_sub_epi64(inc, x), running);
      auto* p = reinterpret_cast<__m256i*>(ps + e);
      _mm256_storeu_si256(p, _mm256_add_epi64(_mm256_loadu_si256(p), excl));
      running = _mm256_add_epi64(
          running, _mm256_permute4x64_epi64(inc, _MM_SHUFFLE(3, 3, 3, 3)));
    }
    std::int64_t carry = _mm256_extract_epi64(running, 0);
    for (; e < end; ++e) {
      ps[e] += carry;
      carry += rs[e];
    }
  }
}

// Four lanes of partial sums per segment, reduced at its end.
void segment_sums_avx2(const std::int64_t* rs, std::size_t n,
                       std::size_t seg_len, std::int64_t* sums) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i acc = _mm256_setzero_si256();
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      acc = _mm256_add_epi64(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rs + e)));
    }
    const __m128i half = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                       _mm256_extracti128_si256(acc, 1));
    std::int64_t total =
        _mm_cvtsi128_si64(half) + _mm_extract_epi64(half, 1);
    for (; e < end; ++e) total += rs[e];
    sums[g] = total;
  }
}

// Four lanes per step: a lane is outside when lo > v or hi <= v; the first
// such lane of the first block that has one ends the prefix.
std::size_t prefix_in_range_avx2(const std::int64_t* v, std::size_t n,
                                 std::int64_t lo, std::int64_t hi) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    // hi > x in range lanes, so in = (hi > x) & ~(lo > x).
    const __m256i in = _mm256_andnot_si256(_mm256_cmpgt_epi64(vlo, x),
                                           _mm256_cmpgt_epi64(vhi, x));
    const auto out = static_cast<unsigned>(
        ~_mm256_movemask_pd(_mm256_castsi256_pd(in)) & 0xf);
    if (out != 0) return i + static_cast<std::size_t>(std::countr_zero(out));
  }
  while (i < n && v[i] >= lo && v[i] < hi) ++i;
  return i;
}

// Sixteen mask bytes per step: min(byte, 1) gives the 0/1 flags, which
// widen to four int64 vector stores.
std::int64_t mask_widen_avx2(const std::uint8_t* mask, std::size_t n,
                             std::int64_t* ps) {
  std::int64_t count = 0;
  std::size_t i = 0;
  const __m128i one = _mm_set1_epi8(1);
  const __m128i zero = _mm_setzero_si128();
  for (; i + 16 <= n; i += 16) {
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + i));
    const __m128i f = _mm_min_epu8(m, one);
    auto* out = reinterpret_cast<__m256i*>(ps + i);
    _mm256_storeu_si256(out, _mm256_cvtepu8_epi64(f));
    _mm256_storeu_si256(out + 1, _mm256_cvtepu8_epi64(_mm_srli_si128(f, 4)));
    _mm256_storeu_si256(out + 2, _mm256_cvtepu8_epi64(_mm_srli_si128(f, 8)));
    _mm256_storeu_si256(out + 3, _mm256_cvtepu8_epi64(_mm_srli_si128(f, 12)));
    count += 16 - std::popcount(static_cast<std::uint32_t>(
                      _mm_movemask_epi8(_mm_cmpeq_epi8(m, zero))));
  }
  for (; i < n; ++i) {
    const std::int64_t v = (mask[i] != 0);
    ps[i] = v;
    count += v;
  }
  return count;
}

template <bool kTwo>
void add_from_bytes_avx2(std::int64_t* dst, std::int64_t* dst2,
                         const std::byte* src, std::size_t n) {
  std::size_t e = 0;
  for (; e + 4 <= n; e += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + e * sizeof(std::int64_t)));
    auto* a = reinterpret_cast<__m256i*>(dst + e);
    _mm256_storeu_si256(a, _mm256_add_epi64(_mm256_loadu_si256(a), v));
    if constexpr (kTwo) {
      auto* b = reinterpret_cast<__m256i*>(dst2 + e);
      _mm256_storeu_si256(b, _mm256_add_epi64(_mm256_loadu_si256(b), v));
    }
  }
  for (; e < n; ++e) {
    const std::int64_t v = load_i64(src, e);
    dst[e] += v;
    if constexpr (kTwo) dst2[e] += v;
  }
}
#endif

template <bool kTwo>
void add_from_bytes_vector(std::int64_t* dst, std::int64_t* dst2,
                           const std::byte* src, std::size_t n) {
#if defined(PUP_KERNELS_AVX2)
  if (active_path() == Path::kNative) {
    add_from_bytes_avx2<kTwo>(dst, dst2, src, n);
    return;
  }
#endif
  add_from_bytes_generic<kTwo>(dst, dst2, src, n);
}

// Block-classified gather: skip all-zero mask blocks, bulk-copy all-ones
// blocks, and walk mixed blocks branchlessly (speculative store, masked
// advance) -- which is where the >= 2x over the branchy reference comes
// from at mixed densities, and far more at 0.0/1.0.  W is a compile-time
// element width so the per-element memcpy folds to a single move.
template <std::size_t W, typename BlockFn>
std::size_t gather_blocks(const std::uint8_t* mask, const std::byte* values,
                          std::size_t n, std::byte* out, BlockFn&& block) {
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t x = load_u64(mask + i);
    if (x == 0) continue;
    const std::uint64_t zeros = zero_byte_flags(x);
    if (zeros == 0) {
      std::memcpy(out + k * W, values + i * W, 8 * W);
      k += 8;
      continue;
    }
    k = block(i, zeros, k);
  }
  for (; i < n; ++i) {
    if (mask[i] != 0) {
      std::memcpy(out + k * W, values + i * W, W);
      ++k;
    }
  }
  return k;
}

template <std::size_t W>
std::size_t gather_generic(const std::uint8_t* mask, const std::byte* values,
                           std::size_t n, std::byte* out) {
  return gather_blocks<W>(
      mask, values, n, out,
      [&](std::size_t i, std::uint64_t zeros, std::size_t k) {
        for (unsigned b = 0; b < 8; ++b) {
          std::memcpy(out + k * W, values + (i + b) * W, W);
          k += static_cast<std::size_t>(((zeros >> (8 * b + 7)) & 1) ^ 1);
        }
        return k;
      });
}

#if defined(PUP_KERNELS_AVX2)
// Left-pack table for 8-byte elements: for a 4-lane selection nibble, the
// _mm256_permutevar8x32_epi32 indices that move the selected 64-bit lanes,
// in order, to the front (the unused tail lanes repeat lane 0).
struct LeftPack64 {
  alignas(32) std::uint32_t idx[16][8] = {};
  constexpr LeftPack64() {
    for (unsigned nib = 0; nib < 16; ++nib) {
      unsigned o = 0;
      for (unsigned lane = 0; lane < 4; ++lane) {
        if (((nib >> lane) & 1U) == 0) continue;
        idx[nib][2 * o] = 2 * lane;
        idx[nib][2 * o + 1] = 2 * lane + 1;
        ++o;
      }
    }
  }
};
constexpr LeftPack64 kLeftPack64{};

template <std::size_t W>
std::size_t gather_avx2(const std::uint8_t* mask, const std::byte* values,
                        std::size_t n, std::byte* out) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + i));
    const auto sel = static_cast<std::uint32_t>(
        ~static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero))));
    if (sel == 0) continue;
    if (sel == 0xffffffffU) {
      std::memcpy(out + k * W, values + i * W, 32 * W);
      k += 32;
      continue;
    }
    if constexpr (W == 8) {
      // Mixed block of 8-byte elements: four lanes at a time, permute the
      // selected ones to the front and store all four (the out-capacity
      // contract covers the speculative tail: k <= i, so k + 4 <= n).
      for (unsigned q = 0; q < 8; ++q) {
        const unsigned nib = (sel >> (4 * q)) & 0xfU;
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(values + (i + 4 * q) * W));
        const __m256i to_front = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(kLeftPack64.idx[nib]));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k * W),
                            _mm256_permutevar8x32_epi32(x, to_front));
        k += static_cast<std::size_t>(std::popcount(nib));
      }
      continue;
    }
    for (unsigned b = 0; b < 32; ++b) {
      std::memcpy(out + k * W, values + (i + b) * W, W);
      k += (sel >> b) & 1U;
    }
  }
  for (; i < n; ++i) {
    if (mask[i] != 0) {
      std::memcpy(out + k * W, values + i * W, W);
      ++k;
    }
  }
  return k;
}
#endif

#if defined(PUP_KERNELS_AVX2)
// segmented_prefix_fold_avx2's four-lane fold, then a left-pack of the
// selected lanes (the 4-byte mask word widened to a lane-selection nibble)
// stored whole at out + k.  k never exceeds the block's first element, so
// the speculative store stays inside the block just read and inside n.
std::size_t segmented_prefix_fold_gather_avx2(
    const std::int64_t* rs, const std::int64_t* ps, std::size_t n,
    std::size_t seg_len, const std::int64_t* seg_add, const std::uint8_t* mask,
    std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  const __m256i zero = _mm256_setzero_si256();
  std::size_t k = 0;
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i running = _mm256_set1_epi64x(seg_add[g]);
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rs + e));
      const __m256i x1 = _mm256_add_epi64(
          x, _mm256_blend_epi32(
                 _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0)), zero,
                 0x03));
      const __m256i inc = _mm256_add_epi64(
          x1, _mm256_blend_epi32(
                  _mm256_permute4x64_epi64(x1, _MM_SHUFFLE(1, 0, 0, 0)),
                  zero, 0x0f));
      const __m256i folded = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ps + e)),
          _mm256_add_epi64(_mm256_sub_epi64(inc, x), running));
      std::uint32_t m;
      std::memcpy(&m, mask + e, sizeof(m));
      const __m256i unselected = _mm256_cmpeq_epi64(
          _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(m))), zero);
      const auto nib = static_cast<unsigned>(
          ~_mm256_movemask_pd(_mm256_castsi256_pd(unselected)) & 0xf);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + k),
          _mm256_permutevar8x32_epi32(
              folded, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                          kLeftPack64.idx[nib]))));
      k += static_cast<std::size_t>(std::popcount(nib));
      running = _mm256_add_epi64(
          running, _mm256_permute4x64_epi64(inc, _MM_SHUFFLE(3, 3, 3, 3)));
    }
    std::int64_t carry = _mm256_extract_epi64(running, 0);
    for (; e < end; ++e) {
      out[k] = ps[e] + carry;
      k += mask[e] != 0;
      carry += rs[e];
    }
  }
  return k;
}
#endif

template <std::size_t W>
std::size_t gather_vector(const std::uint8_t* mask, const std::byte* values,
                          std::size_t n, std::byte* out) {
#if defined(PUP_KERNELS_AVX2)
  if (active_path() == Path::kNative) {
    return gather_avx2<W>(mask, values, n, out);
  }
#endif
  return gather_generic<W>(mask, values, n, out);
}

// Block-classified merge, the mirror of gather_blocks: all-zero mask
// blocks take one bulk copy of the field, all-ones blocks one bulk copy of
// the stream, and mixed blocks copy the field and then overwrite only
// their selected lanes, lowest first (count-trailing-zeros over the
// block's selection bits).  src is never read past the selected count.
template <std::size_t W>
std::size_t merge_generic(const std::uint8_t* mask, const std::byte* src,
                          std::size_t src_len, const std::byte* field,
                          std::size_t n, std::byte* out) {
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t x = load_u64(mask + i);
    // 0x80 in each byte whose mask byte is nonzero.
    std::uint64_t sel = ~zero_byte_flags(x) & kHigh;
    require_stream(k, static_cast<std::size_t>(std::popcount(sel)), src_len);
    if (sel == kHigh) {
      std::memcpy(out + i * W, src + k * W, 8 * W);
      k += 8;
      continue;
    }
    std::memcpy(out + i * W, field + i * W, 8 * W);
    for (; sel != 0; sel &= sel - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(sel) / 8);
      std::memcpy(out + (i + b) * W, src + k * W, W);
      ++k;
    }
  }
  for (; i < n; ++i) {
    const std::byte* from = field + i * W;
    if (mask[i] != 0) {
      require_stream(k, 1, src_len);
      from = src + (k++) * W;
    }
    std::memcpy(out + i * W, from, W);
  }
  return k;
}

#if defined(PUP_KERNELS_AVX2)
// Expand-permute table for 8-byte elements: for a 4-lane selection nibble,
// the _mm256_permutevar8x32_epi32 indices that move the j-th stream lane to
// the j-th selected lane (unselected lanes take lane 0; the blend discards
// them).
struct Expand64 {
  alignas(32) std::uint32_t idx[16][8] = {};
  constexpr Expand64() {
    for (unsigned nib = 0; nib < 16; ++nib) {
      unsigned j = 0;
      for (unsigned lane = 0; lane < 4; ++lane) {
        if (((nib >> lane) & 1U) == 0) continue;
        idx[nib][2 * lane] = 2 * j;
        idx[nib][2 * lane + 1] = 2 * j + 1;
        ++j;
      }
    }
  }
};
constexpr Expand64 kExpand64{};

template <std::size_t W>
std::size_t merge_avx2(const std::uint8_t* mask, const std::byte* src,
                       std::size_t src_len, const std::byte* field,
                       std::size_t n, std::byte* out) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i lane_no = _mm256_setr_epi64x(0, 1, 2, 3);
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + i));
    auto sel = static_cast<std::uint32_t>(
        ~static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero))));
    require_stream(k, static_cast<std::size_t>(std::popcount(sel)), src_len);
    if (sel == 0xffffffffU) {
      std::memcpy(out + i * W, src + k * W, 32 * W);
      k += 32;
      continue;
    }
    if (sel == 0) {
      std::memcpy(out + i * W, field + i * W, 32 * W);
      continue;
    }
    if constexpr (W == 8) {
      // Mixed block of 8-byte elements, four lanes at a time: a masked
      // load of the next popcount(nib) stream values (no lane past them is
      // read), a permute that spreads them over the selected lanes, and a
      // blend with the field.  (A plain load while four values remain,
      // masked only at the stream's tail, measured 5% slower: 0.99 against
      // 0.94 ns per element at 50% density, interleaved in one process on
      // a 4-vCPU x86-64 VM.)
      for (unsigned q = 0; q < 8; ++q) {
        const unsigned nib = (sel >> (4 * q)) & 0xfU;
        const auto c = static_cast<long long>(std::popcount(nib));
        const __m256i take =
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(c), lane_no);
        const __m256i stream = _mm256_maskload_epi64(
            reinterpret_cast<const long long*>(src + k * W), take);
        const __m256i spread = _mm256_permutevar8x32_epi32(
            stream, _mm256_load_si256(
                        reinterpret_cast<const __m256i*>(kExpand64.idx[nib])));
        const __m256i selected = _mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_set1_epi64x(nib), lane_bit), lane_bit);
        const std::size_t at = (i + 4 * q) * W;
        const __m256i f =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(field + at));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + at),
                            _mm256_blendv_epi8(f, spread, selected));
        k += static_cast<std::size_t>(c);
      }
      continue;
    }
    std::memcpy(out + i * W, field + i * W, 32 * W);
    for (; sel != 0; sel &= sel - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(sel));
      std::memcpy(out + (i + b) * W, src + k * W, W);
      ++k;
    }
  }
  for (; i < n; ++i) {
    const std::byte* from = field + i * W;
    if (mask[i] != 0) {
      require_stream(k, 1, src_len);
      from = src + (k++) * W;
    }
    std::memcpy(out + i * W, from, W);
  }
  return k;
}
#endif

template <std::size_t W>
std::size_t merge_vector(const std::uint8_t* mask, const std::byte* src,
                         std::size_t src_len, const std::byte* field,
                         std::size_t n, std::byte* out) {
#if defined(PUP_KERNELS_AVX2)
  if (active_path() == Path::kNative) {
    return merge_avx2<W>(mask, src, src_len, field, n, out);
  }
#endif
  return merge_generic<W>(mask, src, src_len, field, n, out);
}

// Run gather, four ranks per step: one range test for the block (v - lo,
// taken unsigned, below hi - lo), then four base + offset copies; the
// block holding the exit is finished element by element.
template <std::size_t W>
std::size_t run_gather_generic(const std::byte* ranks, std::size_t n,
                               std::int64_t lo, std::int64_t hi,
                               const std::byte* base, std::byte* out) {
  const std::uint64_t ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - ulo;
  auto offset = [&](std::size_t i) {
    return static_cast<std::uint64_t>(load_i64(ranks, i)) - ulo;
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t o0 = offset(i);
    const std::uint64_t o1 = offset(i + 1);
    const std::uint64_t o2 = offset(i + 2);
    const std::uint64_t o3 = offset(i + 3);
    if ((o0 >= span) | (o1 >= span) | (o2 >= span) | (o3 >= span)) break;
    std::memcpy(out + i * W, base + o0 * W, W);
    std::memcpy(out + (i + 1) * W, base + o1 * W, W);
    std::memcpy(out + (i + 2) * W, base + o2 * W, W);
    std::memcpy(out + (i + 3) * W, base + o3 * W, W);
  }
  for (; i < n; ++i) {
    const std::uint64_t o = offset(i);
    if (o >= span) break;
    std::memcpy(out + i * W, base + o * W, W);
  }
  return i;
}

#if defined(PUP_KERNELS_AVX2)
// prefix_in_range_avx2's four-lane range test on unaligned rank loads,
// then one vpgatherqq of base[r - lo] for a block wholly in range.
std::size_t run_gather_avx2_8(const std::byte* ranks, std::size_t n,
                              std::int64_t lo, std::int64_t hi,
                              const std::byte* base, std::byte* out) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const auto* b = reinterpret_cast<const long long*>(base);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ranks + i * sizeof(std::int64_t)));
    const __m256i in = _mm256_andnot_si256(_mm256_cmpgt_epi64(vlo, x),
                                           _mm256_cmpgt_epi64(vhi, x));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(in)) != 0xf) break;
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i * 8),
        _mm256_i64gather_epi64(b, _mm256_sub_epi64(x, vlo), 8));
  }
  return i + run_gather_generic<8>(ranks + i * sizeof(std::int64_t), n - i,
                                   lo, hi, base, out + i * 8);
}
#endif

template <std::size_t W>
std::size_t run_gather_vector(const std::byte* ranks, std::size_t n,
                              std::int64_t lo, std::int64_t hi,
                              const std::byte* base, std::byte* out) {
#if defined(PUP_KERNELS_AVX2)
  if constexpr (W == 8) {
    if (active_path() == Path::kNative) {
      return run_gather_avx2_8(ranks, n, lo, hi, base, out);
    }
  }
#endif
  return run_gather_generic<W>(ranks, n, lo, hi, base, out);
}

// Stop-early gather: same block structure with an early exit once the
// target count is reached.  The exit is block-granular, so a mixed or
// all-ones block may write up to 7 elements past `target` -- harmless
// scratch within the out-capacity contract, because the gather is
// order-preserving (out[0, target) is exact) and the return value clamps.
template <std::size_t W>
std::size_t gather_first_n_vector(const std::uint8_t* mask,
                                  const std::byte* values, std::size_t limit,
                                  std::size_t target, std::byte* out) {
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= limit && k < target; i += 8) {
    const std::uint64_t x = load_u64(mask + i);
    if (x == 0) continue;
    const std::uint64_t zeros = zero_byte_flags(x);
    if (zeros == 0) {
      std::memcpy(out + k * W, values + i * W, 8 * W);
      k += 8;
      continue;
    }
    for (unsigned b = 0; b < 8; ++b) {
      std::memcpy(out + k * W, values + (i + b) * W, W);
      k += static_cast<std::size_t>(((zeros >> (8 * b + 7)) & 1) ^ 1);
    }
  }
  for (; i < limit && k < target; ++i) {
    if (mask[i] != 0) {
      std::memcpy(out + k * W, values + i * W, W);
      ++k;
    }
  }
  return k < target ? k : target;
}

}  // namespace

// --- dispatched entry points ----------------------------------------------

std::int64_t mask_count(const std::uint8_t* mask, std::size_t n) {
  switch (active_path()) {
    case Path::kScalar:
      return scalar::mask_count(mask, n);
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      return mask_count_avx2(mask, n);
#elif defined(PUP_KERNELS_NEON)
      return mask_count_neon(mask, n);
#else
      [[fallthrough]];
#endif
    case Path::kGeneric:
      return mask_count_generic(mask, n);
  }
  return scalar::mask_count(mask, n);
}

void segment_sums(const std::int64_t* rs, std::size_t n, std::size_t seg_len,
                  std::int64_t* sums) {
  switch (active_path()) {
    case Path::kScalar:
      scalar::segment_sums(rs, n, seg_len, sums);
      return;
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      segment_sums_avx2(rs, n, seg_len, sums);
      return;
#else
      [[fallthrough]];
#endif
    case Path::kGeneric:
      segment_sums_unrolled(rs, n, seg_len, sums);
      return;
  }
}

void segmented_prefix_fold(const std::int64_t* rs, std::int64_t* ps,
                           std::size_t n, std::size_t seg_len,
                           const std::int64_t* seg_add) {
  switch (active_path()) {
    case Path::kScalar:
      scalar::segmented_prefix_fold(rs, ps, n, seg_len, seg_add);
      return;
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      segmented_prefix_fold_avx2(rs, ps, n, seg_len, seg_add);
      return;
#else
      [[fallthrough]];
#endif
    case Path::kGeneric:
      segmented_prefix_fold_unrolled(rs, ps, n, seg_len, seg_add);
      return;
  }
}

std::int64_t mask_widen(const std::uint8_t* mask, std::size_t n,
                        std::int64_t* ps) {
  switch (active_path()) {
    case Path::kScalar:
      return scalar::mask_widen(mask, n, ps);
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      return mask_widen_avx2(mask, n, ps);
#else
      [[fallthrough]];
#endif
    case Path::kGeneric:
      return mask_widen_generic(mask, n, ps);
  }
  return scalar::mask_widen(mask, n, ps);
}

std::size_t prefix_in_range(const std::int64_t* v, std::size_t n,
                            std::int64_t lo, std::int64_t hi) {
  PUP_DCHECK(lo <= hi, "prefix_in_range needs lo <= hi");
  switch (active_path()) {
    case Path::kScalar:
      return scalar::prefix_in_range(v, n, lo, hi);
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      return prefix_in_range_avx2(v, n, lo, hi);
#else
      [[fallthrough]];
#endif
    case Path::kGeneric:
      return prefix_in_range_generic(v, n, lo, hi);
  }
  return scalar::prefix_in_range(v, n, lo, hi);
}

void add_from_bytes(std::int64_t* dst, const std::byte* src, std::size_t n) {
  if (active_path() == Path::kScalar) {
    scalar::add_from_bytes(dst, src, n);
  } else {
    add_from_bytes_vector<false>(dst, nullptr, src, n);
  }
}

void add_from_bytes(std::int64_t* dst, std::int64_t* dst2,
                    const std::byte* src, std::size_t n) {
  if (active_path() == Path::kScalar) {
    scalar::add_from_bytes(dst, dst2, src, n);
  } else {
    add_from_bytes_vector<true>(dst, dst2, src, n);
  }
}

void narrow_to_bytes(const std::int64_t* src, std::size_t n,
                     std::size_t width, std::byte* out) {
  require_wire_width(width);
  if (active_path() == Path::kScalar) {
    scalar::narrow_to_bytes(src, n, width, out);
    return;
  }
  switch (width) {
    case 1:
      return narrow_vector<1>(src, n, out);
    case 2:
      return narrow_vector<2>(src, n, out);
    case 4:
      return narrow_vector<4>(src, n, out);
    default:
      if (n != 0) std::memcpy(out, src, n * sizeof(std::int64_t));
      return;
  }
}

void widen_from_bytes(std::int64_t* dst, const std::byte* src, std::size_t n,
                      std::size_t width) {
  require_wire_width(width);
  if (width == 8) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(std::int64_t));
  } else if (active_path() == Path::kScalar) {
    scalar::widen_from_bytes(dst, src, n, width);
  } else {
    widen_dispatch<false, false>(dst, nullptr, src, n, width);
  }
}

void add_from_bytes(std::int64_t* dst, const std::byte* src, std::size_t n,
                    std::size_t width) {
  require_wire_width(width);
  if (width == 8) {
    add_from_bytes(dst, src, n);
  } else if (active_path() == Path::kScalar) {
    scalar::add_from_bytes(dst, src, n, width);
  } else {
    widen_dispatch<true, false>(dst, nullptr, src, n, width);
  }
}

void add_from_bytes(std::int64_t* dst, std::int64_t* dst2,
                    const std::byte* src, std::size_t n, std::size_t width) {
  require_wire_width(width);
  if (width == 8) {
    add_from_bytes(dst, dst2, src, n);
  } else if (active_path() == Path::kScalar) {
    scalar::add_from_bytes(dst, dst2, src, n, width);
  } else {
    widen_dispatch<true, true>(dst, dst2, src, n, width);
  }
}

std::size_t segmented_prefix_fold_gather(const std::int64_t* rs,
                                         const std::int64_t* ps,
                                         std::size_t n, std::size_t seg_len,
                                         const std::int64_t* seg_add,
                                         const std::uint8_t* mask,
                                         std::int64_t* out) {
  switch (active_path()) {
    case Path::kScalar:
      return scalar::segmented_prefix_fold_gather(rs, ps, n, seg_len, seg_add,
                                                  mask, out);
    case Path::kNative:
#if defined(PUP_KERNELS_AVX2)
      return segmented_prefix_fold_gather_avx2(rs, ps, n, seg_len, seg_add,
                                               mask, out);
#else
      [[fallthrough]];
#endif
    case Path::kGeneric:
      return segmented_prefix_fold_gather_unrolled(rs, ps, n, seg_len,
                                                   seg_add, mask, out);
  }
  return scalar::segmented_prefix_fold_gather(rs, ps, n, seg_len, seg_add,
                                              mask, out);
}

namespace detail {

std::size_t gather_bytes(const std::uint8_t* mask, const std::byte* values,
                         std::size_t n, std::size_t width, std::byte* out) {
  switch (width) {
    case 1:
      return gather_vector<1>(mask, values, n, out);
    case 2:
      return gather_vector<2>(mask, values, n, out);
    case 4:
      return gather_vector<4>(mask, values, n, out);
    case 8:
      return gather_vector<8>(mask, values, n, out);
    case 16:
      return gather_vector<16>(mask, values, n, out);
    default:
      return scalar::gather(mask, values, n, width, out);
  }
}

std::size_t gather_first_n_bytes(const std::uint8_t* mask,
                                 const std::byte* values, std::size_t limit,
                                 std::size_t target, std::size_t width,
                                 std::byte* out) {
  switch (width) {
    case 1:
      return gather_first_n_vector<1>(mask, values, limit, target, out);
    case 2:
      return gather_first_n_vector<2>(mask, values, limit, target, out);
    case 4:
      return gather_first_n_vector<4>(mask, values, limit, target, out);
    case 8:
      return gather_first_n_vector<8>(mask, values, limit, target, out);
    case 16:
      return gather_first_n_vector<16>(mask, values, limit, target, out);
    default:
      return scalar::gather_first_n(mask, values, limit, target, width, out);
  }
}

std::size_t merge_bytes(const std::uint8_t* mask, const std::byte* src,
                        std::size_t src_len, const std::byte* field,
                        std::size_t n, std::size_t width, std::byte* out) {
  switch (width) {
    case 1:
      return merge_vector<1>(mask, src, src_len, field, n, out);
    case 2:
      return merge_vector<2>(mask, src, src_len, field, n, out);
    case 4:
      return merge_vector<4>(mask, src, src_len, field, n, out);
    case 8:
      return merge_vector<8>(mask, src, src_len, field, n, out);
    case 16:
      return merge_vector<16>(mask, src, src_len, field, n, out);
    default:
      return scalar::merge(mask, src, src_len, field, n, width, out);
  }
}

std::size_t run_gather_bytes(const std::byte* ranks, std::size_t n,
                             std::int64_t lo, std::int64_t hi,
                             const std::byte* base, std::size_t width,
                             std::byte* out) {
  switch (width) {
    case 1:
      return run_gather_vector<1>(ranks, n, lo, hi, base, out);
    case 2:
      return run_gather_vector<2>(ranks, n, lo, hi, base, out);
    case 4:
      return run_gather_vector<4>(ranks, n, lo, hi, base, out);
    case 8:
      return run_gather_vector<8>(ranks, n, lo, hi, base, out);
    case 16:
      return run_gather_vector<16>(ranks, n, lo, hi, base, out);
    default:
      return scalar::run_gather(ranks, n, lo, hi, base, width, out);
  }
}

}  // namespace detail

}  // namespace pup::kernels
