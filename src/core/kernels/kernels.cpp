#include "core/kernels/kernels.hpp"

#include <atomic>
#include <bit>
#include <tuple>
#include <type_traits>
#include <utility>

// One portable source, compiled for the baseline ISA, and one dispatch
// table per Path.  The scalar table holds the reference loops; the generic
// table the SWAR and unrolled loops below.  The native table is the same
// generic source rebuilt for the native ISA, with a hand-written body in
// each slot where one measured faster (EXPERIMENTS.md, "Kernel dispatch").
// The native section at the end of this file is the only code compiled
// for an ISA past the baseline: on x86-64 every function in it carries
// target("avx2") and is reached only through the table that the runtime
// cpuid check selects; on AArch64 NEON is baseline and needs no gate.

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

// The sum of the bytes of x, each 0 or 1: one multiply gathers them into
// the top byte.  Exact (at most 8), and free of the popcount instruction,
// which the baseline x86-64 ISA lacks (std::popcount would be a libcall).
inline int sum_bytes(std::uint64_t x) {
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

inline std::uint64_t load_u64(const void* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof(x));
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

// --- narrow wire entries --------------------------------------------------

// A wire entry is the low `width` bytes of its int64 value, which every
// path reads and writes as the first bytes in memory.
static_assert(std::endian::native == std::endian::little,
              "the narrow wire kernels assume a little-endian host");

void require_wire_width(std::size_t width) {
  PUP_REQUIRE(width == 1 || width == 2 || width == 4 || width == 8,
              "wire width must be 1, 2, 4 or 8 bytes, not " << width);
}

// The wire entry src[e] + bias, in wrapping (two's complement) arithmetic.
inline std::uint64_t biased(const std::int64_t* src, std::size_t e,
                            std::int64_t bias) {
  return static_cast<std::uint64_t>(src[e]) + static_cast<std::uint64_t>(bias);
}

// The narrowing check failed somewhere in src[0, n): name the first entry
// that does not fit.  Out of line, off the compose loops' hot path.
[[noreturn, gnu::cold, gnu::noinline]] void wire_overflow(
    const std::int64_t* src, std::size_t n, std::size_t width,
    std::int64_t bias) {
  std::size_t e = 0;
  while (e < n && (biased(src, e, bias) >> (8 * width)) == 0) ++e;
  PUP_REQUIRE(false, "wire entry "
                         << (e < n ? static_cast<std::int64_t>(
                                         biased(src, e, bias))
                                   : 0)
                         << " at index " << e << " does not fit the "
                         << width << "-byte wire width");
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

// An index of the index_width-byte stream is at or past extent: name the
// first one.  Out of line, off the gather loops' hot path.
[[noreturn, gnu::cold, gnu::noinline]] void index_overflow(
    const std::byte* index, std::size_t n, std::size_t index_width,
    std::size_t extent) {
  std::size_t i = 0;
  while (i < n && load_wire(index, i, index_width) < extent) ++i;
  PUP_REQUIRE(false, "index " << (i < n ? load_wire(index, i, index_width) : 0)
                              << " at position " << i
                              << " is outside the local extent " << extent);
  __builtin_unreachable();
}

inline void store_wire(std::byte* out, std::size_t e, std::size_t width,
                       std::uint64_t v) {
  std::memcpy(out + e * width, &v, width);
}

// --- base ranks -------------------------------------------------------------

// The e-th entry of an unaligned stream of U.
template <typename U>
inline U load_entry(const std::byte* src, std::size_t e) {
  U v;
  std::memcpy(&v, src + e * sizeof(U), sizeof(U));
  return v;
}

// A checked add wrapped somewhere in [0, n): name the first entry whose
// sum is below its addend, which an unsigned add leaves only when it
// wraps.  Out of line, off the fold loops' hot path.
template <typename U>
[[noreturn, gnu::cold, gnu::noinline]] void rank_overflow(
    const U* dst, const U* dst2, const std::byte* src, std::size_t n) {
  std::size_t e = 0;
  auto wrapped = [&](std::size_t i) {
    const U v = load_entry<U>(src, i);
    return dst[i] < v || (dst2 != nullptr && dst2[i] < v);
  };
  while (e < n && !wrapped(e)) ++e;
  PUP_REQUIRE(false, "base-rank sum at entry "
                         << e << " does not fit the " << sizeof(U)
                         << "-byte wire width");
  __builtin_unreachable();
}

// --- packed PRS rounds -------------------------------------------------------

// Round widths take one slot each, log2 of the bits: 1, 2, 4, 8, 16, 32
// and 64 bits; U's row stops at 8 sizeof(U).
constexpr std::size_t kRoundSlots = 7;
template <typename U>
constexpr std::size_t kRoundSlotsOf = std::countr_zero(8 * sizeof(U)) + 1;

void require_round_bits(unsigned bits, std::size_t elem_bytes) {
  PUP_REQUIRE(bits != 0 && (bits & (bits - 1)) == 0 && bits <= 64,
              "a PRS round width must be 1, 2, 4, 8, 16, 32 or 64 bits, not "
                  << bits);
  PUP_REQUIRE(bits <= 8 * elem_bytes,
              "a " << bits << "-bit PRS round does not fit the " << elem_bytes
                   << "-byte wire width");
}

template <typename U>
inline bool fits_round(U v, unsigned bits) {
  return bits >= 64 || (static_cast<std::uint64_t>(v) >> bits) == 0;
}

// An entry of src[0, n) does not fit its round: name the first.  Out of
// line, off the pack loops' hot path.
template <typename U>
[[noreturn, gnu::cold, gnu::noinline]] void round_overflow(const U* src,
                                                           std::size_t n,
                                                           unsigned bits) {
  std::size_t e = 0;
  while (e < n && fits_round(src[e], bits)) ++e;
  PUP_REQUIRE(false, "PRS entry "
                         << (e < n ? static_cast<std::int64_t>(src[e]) : 0)
                         << " at index " << e << " does not fit its " << bits
                         << "-bit round");
  __builtin_unreachable();
}

[[noreturn, gnu::cold, gnu::noinline]] void packed_sum_overflow(
    std::size_t e, std::size_t elem_bytes) {
  PUP_REQUIRE(false, "base-rank sum at entry " << e << " does not fit the "
                                               << elem_bytes
                                               << "-byte wire width");
  __builtin_unreachable();
}

// The e-th bits-bit entry of a packed stream.
inline std::uint64_t load_packed(const std::byte* src, std::size_t e,
                                 unsigned bits) {
  if (bits >= 8) return load_wire(src, e, bits / 8);
  const std::size_t bit = e * bits;
  return (std::to_integer<std::uint64_t>(src[bit / 8]) >> (bit % 8)) &
         ((std::uint64_t{1} << bits) - 1);
}

// The scalar reference fold at U's own width: each sum checked (below
// int64) as it is stored, so the first one that wraps throws.
template <typename U, bool kTwo>
void add_entries(U* dst, U* dst2, const std::byte* src, std::size_t n) {
  for (std::size_t e = 0; e < n; ++e) {
    const U v = load_entry<U>(src, e);
    bool over = __builtin_add_overflow(dst[e], v, &dst[e]);
    if constexpr (kTwo) over |= __builtin_add_overflow(dst2[e], v, &dst2[e]);
    if (std::is_unsigned_v<U> && over) {
      rank_overflow<U>(dst, kTwo ? dst2 : nullptr, src, e + 1);
    }
  }
}

}  // namespace

// --- scalar reference implementations -------------------------------------

namespace scalar {

std::int64_t mask_count(const std::uint8_t* mask, std::size_t n) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += (mask[i] != 0);
  return c;
}

template <BaseRank U>
std::int64_t mask_flags(const std::uint8_t* mask, std::size_t n, U* ps) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const U v = mask[i] != 0;
    ps[i] = v;
    c += v;
  }
  return c;
}

template <BaseRank U>
void segment_sums(const U* rs, std::size_t n, std::size_t seg_len,
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
template <BaseRank U>
void segmented_prefix_fold(const U* rs, const U* ps, std::size_t n,
                           std::size_t seg_len, const std::int64_t* seg_add,
                           std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    std::int64_t running = 0;
    for (std::size_t e = s; e < end; ++e) {
      out[e] = static_cast<std::int64_t>(ps[e]) + running + seg_add[g];
      running += rs[e];
    }
  }
}

template <BaseRank U>
std::size_t segmented_prefix_fold_gather(const U* rs, const U* ps,
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
      const std::int64_t v =
          static_cast<std::int64_t>(ps[e]) + running + seg_add[g];
      if (mask[e] != 0) out[k++] = v;
      running += rs[e];
    }
  }
  return k;
}

template <BaseRank U>
void pack_bits(const U* src, std::size_t n, unsigned bits, std::byte* out) {
  require_round_bits(bits, sizeof(U));
  if (bits < 8 && n != 0) std::memset(out, 0, packed_bytes(n, bits));
  for (std::size_t e = 0; e < n; ++e) {
    if (!fits_round(src[e], bits)) round_overflow(src, n, bits);
    const auto v = static_cast<std::uint64_t>(src[e]);
    if (bits >= 8) {
      store_wire(out, e, bits / 8, v);
    } else {
      const std::size_t bit = e * bits;
      out[bit / 8] |= static_cast<std::byte>(v << (bit % 8));
    }
  }
}

template <BaseRank U>
void unpack_bits(const std::byte* src, std::size_t n, unsigned bits, U* out) {
  require_round_bits(bits, sizeof(U));
  for (std::size_t e = 0; e < n; ++e) {
    out[e] = static_cast<U>(load_packed(src, e, bits));
  }
}

template <BaseRank U>
void add_packed(U* dst, U* dst2, const std::byte* src, std::size_t n,
                unsigned bits) {
  require_round_bits(bits, sizeof(U));
  if (bits == 8 * sizeof(U)) {
    if (dst2 != nullptr) return add_entries<U, true>(dst, dst2, src, n);
    return add_entries<U, false>(dst, nullptr, src, n);
  }
  for (std::size_t e = 0; e < n; ++e) {
    const auto v = static_cast<U>(load_packed(src, e, bits));
    bool over = __builtin_add_overflow(dst[e], v, &dst[e]);
    if (dst2 != nullptr) over |= __builtin_add_overflow(dst2[e], v, &dst2[e]);
    if (std::is_unsigned_v<U> && over) packed_sum_overflow(e, sizeof(U));
  }
}

// The definitions entry by entry: each value is checked before it is
// stored, so the first one that does not fit throws.
void narrow_to_bytes(const std::int64_t* src, std::size_t n,
                     std::size_t width, std::byte* out, std::int64_t bias) {
  require_wire_width(width);
  for (std::size_t e = 0; e < n; ++e) {
    const std::uint64_t v = biased(src, e, bias);
    if (width < 8 && (v >> (8 * width)) != 0) {
      wire_overflow(src, n, width, bias);
    }
    store_wire(out, e, width, v);
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

void index_gather(const std::byte* index, std::size_t n,
                  std::size_t index_width, const std::byte* base,
                  std::size_t extent, std::size_t width, std::byte* out) {
  require_wire_width(index_width);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = load_wire(index, i, index_width);
    if (x >= extent) index_overflow(index, n, index_width, extent);
    std::memcpy(out + i * width, base + x * width, width);
  }
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

// --- generic implementations ----------------------------------------------

namespace {

std::int64_t mask_count_generic(const std::uint8_t* mask, std::size_t n) {
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t zeros = zero_byte_flags(load_u64(mask + i));
    count += 8 - sum_bytes(zeros >> 7);
  }
  for (; i < n; ++i) count += (mask[i] != 0);
  return count;
}

// Unrolled prefix: the dependence chain (one add per element in program
// order), not vector width, bounds a scalar prefix, so the generic path
// breaks the chain -- four rotated partial sums per step.  Exact integer
// adds, so any association gives the reference's values; the running sum
// starts at the segment's addend, so each prefix value is already the
// amount to add to ps.
template <typename U>
void segmented_prefix_fold_unrolled(const U* rs, const U* ps, std::size_t n,
                                    std::size_t seg_len,
                                    const std::int64_t* seg_add,
                                    std::int64_t* out) {
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
      out[e] = ps[e] + running;
      out[e + 1] = ps[e + 1] + p1;
      out[e + 2] = ps[e + 2] + p2;
      out[e + 3] = ps[e + 3] + p3;
      running += v0 + v1 + v2 + v3;
    }
    for (; e < end; ++e) {
      out[e] = ps[e] + running;
      running += rs[e];
    }
  }
}

// Four independent partial sums per segment, combined at its end.
template <typename U>
void segment_sums_unrolled(const U* rs, std::size_t n, std::size_t seg_len,
                           std::int64_t* sums) {
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

// Wire entries of W bytes (1, 2, 4 or 8), eight bytes of wire per step:
// the compose packs 8/W entries into one word and ORs every value into one
// accumulator, checked once at the end (an entry that does not fit sets a
// bit at or above 8 W).  Width 8 is the plain int64 wire: a copy, and no
// check.
template <std::size_t W>
constexpr std::uint64_t kWireMask =
    W == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * W)) - 1;

template <std::size_t W>
void narrow_generic(const std::int64_t* src, std::size_t n, std::int64_t bias,
                    std::byte* out) {
  if constexpr (W == 8) {
    if (bias == 0) {
      if (n != 0) std::memcpy(out, src, n * sizeof(std::int64_t));
      return;
    }
    for (std::size_t e = 0; e < n; ++e) {
      const std::uint64_t v = biased(src, e, bias);
      std::memcpy(out + e * W, &v, W);
    }
  } else {
    constexpr std::size_t kPer = 8 / W;
    std::uint64_t seen = 0;
    std::size_t e = 0;
    for (; e + kPer <= n; e += kPer) {
      std::uint64_t word = 0;
      for (std::size_t k = 0; k < kPer; ++k) {
        const std::uint64_t v = biased(src, e + k, bias);
        seen |= v;
        word |= (v & kWireMask<W>) << (8 * W * k);
      }
      std::memcpy(out + e * W, &word, 8);
    }
    for (; e < n; ++e) {
      const std::uint64_t v = biased(src, e, bias);
      seen |= v;
      std::memcpy(out + e * W, &v, W);  // the low W bytes (little-endian)
    }
    if ((seen >> (8 * W)) != 0) wire_overflow(src, n, W, bias);
  }
}

// The payload fold, sixteen bytes of entries per step in a portable vector
// (GCC/Clang vector extensions: SSE2 at the baseline ISA, VEX-encoded in
// the AVX2 rebuild).  Below int64 a lane's sum wrapped exactly when it is
// below the entry added; the compare masks are OR-ed into one flag vector,
// tested once at the end.
template <typename U, bool kTwo>
void add_generic(U* __restrict dst, U* __restrict dst2,
                 const std::byte* __restrict src, std::size_t n) {
  using V [[gnu::vector_size(16)]] = U;
  constexpr std::size_t kPer = sizeof(V) / sizeof(U);
  constexpr bool kChecked = std::is_unsigned_v<U>;
  V wrapped = {};
  auto add_step = [&](U* d, const V& v) {
    V x;
    std::memcpy(&x, d, sizeof(V));
    x += v;
    std::memcpy(d, &x, sizeof(V));
    if constexpr (kChecked) wrapped |= reinterpret_cast<V>(x < v);
  };
  std::size_t e = 0;
  for (; e + kPer <= n; e += kPer) {
    V v;
    std::memcpy(&v, src + e * sizeof(U), sizeof(V));
    add_step(dst + e, v);
    if constexpr (kTwo) add_step(dst2 + e, v);
  }
  bool bad = false;
  for (; e < n; ++e) {
    const U v = load_entry<U>(src, e);
    dst[e] = static_cast<U>(dst[e] + v);
    bad |= kChecked && dst[e] < v;
    if constexpr (kTwo) {
      dst2[e] = static_cast<U>(dst2[e] + v);
      bad |= kChecked && dst2[e] < v;
    }
  }
  for (std::size_t k = 0; k < kPer; ++k) bad |= wrapped[k] != 0;
  if (bad) rank_overflow<U>(dst, kTwo ? dst2 : nullptr, src, n);
}

// The unrolled fold with a branchless compaction: each folded value is
// stored at out[k] and k advances by its mask flag, so no store lands past
// out[k] for the final count k.
template <typename U>
std::size_t segmented_prefix_fold_gather_unrolled(
    const U* rs, const U* ps, std::size_t n, std::size_t seg_len,
    const std::int64_t* seg_add, const std::uint8_t* mask,
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

// Block-classified gather: skip all-zero mask blocks, bulk-copy all-ones
// blocks, and walk mixed blocks branchlessly (speculative store, masked
// advance) -- which is where the >= 2x over the branchy reference comes
// from at mixed densities, and far more at 0.0/1.0.  W is a compile-time
// element width so the per-element memcpy folds to a single move.
template <std::size_t W>
std::size_t gather_generic(const std::uint8_t* mask, const std::byte* values,
                           std::size_t n, std::byte* out) {
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
    for (unsigned b = 0; b < 8; ++b) {
      std::memcpy(out + k * W, values + (i + b) * W, W);
      k += static_cast<std::size_t>(((zeros >> (8 * b + 7)) & 1) ^ 1);
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

// Stop-early gather: same block structure with an early exit once the
// target count is reached.  The exit is block-granular, so a mixed or
// all-ones block may write up to 7 elements past `target` -- harmless
// scratch within the out-capacity contract, because the gather is
// order-preserving (out[0, target) is exact) and the return value clamps.
template <std::size_t W>
std::size_t gather_first_n_generic(const std::uint8_t* mask,
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

// Block-classified merge, the mirror of gather_generic: all-zero mask
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
    require_stream(k, static_cast<std::size_t>(sum_bytes(sel >> 7)), src_len);
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

// Indexed gather over IW-byte indices, four per step: one range test for
// the step, then four indexed copies, so an index out of range throws
// before any load of its step.
template <std::size_t IW, std::size_t W>
void index_gather_generic(const std::byte* index, std::size_t n,
                          const std::byte* base, std::size_t extent,
                          std::byte* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t x0 = load_wire(index, i, IW);
    const std::uint64_t x1 = load_wire(index, i + 1, IW);
    const std::uint64_t x2 = load_wire(index, i + 2, IW);
    const std::uint64_t x3 = load_wire(index, i + 3, IW);
    if ((x0 >= extent) | (x1 >= extent) | (x2 >= extent) | (x3 >= extent)) {
      index_overflow(index, n, IW, extent);
    }
    std::memcpy(out + i * W, base + x0 * W, W);
    std::memcpy(out + (i + 1) * W, base + x1 * W, W);
    std::memcpy(out + (i + 2) * W, base + x2 * W, W);
    std::memcpy(out + (i + 3) * W, base + x3 * W, W);
  }
  for (; i < n; ++i) {
    const std::uint64_t x = load_wire(index, i, IW);
    if (x >= extent) index_overflow(index, n, IW, extent);
    std::memcpy(out + i * W, base + x * W, W);
  }
}

// --- packed PRS rounds -------------------------------------------------------
//
// Below a byte, eight entries of B bits are one B-byte word: SWAR moves
// them between their packed bits and one byte each (uint8 base ranks, or
// the low bytes of wider ones).  Whole-byte widths below U narrow or widen
// entry by entry; at U's own width the payload is U's bytes.

// Eight B-bit entries, the low 8 B bits of x, one per byte.
template <unsigned B>
inline std::uint64_t spread8(std::uint64_t x) {
  if constexpr (B == 1) {
    // Byte k keeps bit k of the replicated byte; nonzero bytes become 1.
    x = ((x & 0xff) * 0x0101010101010101ULL) & 0x8040201008040201ULL;
    return (~zero_byte_flags(x) & kHigh) >> 7;
  } else if constexpr (B == 2) {
    x &= 0xffff;
    x = (x | x << 24) & 0x000000ff000000ffULL;
    x = (x | x << 12) & 0x000f000f000f000fULL;
    return (x | x << 6) & 0x0303030303030303ULL;
  } else {
    static_assert(B == 4);
    x &= 0xffffffffULL;
    x = (x | x << 16) & 0x0000ffff0000ffffULL;
    x = (x | x << 8) & 0x00ff00ff00ff00ffULL;
    return (x | x << 4) & 0x0f0f0f0f0f0f0f0fULL;
  }
}

// The inverse: eight bytes, each below 2^B, packed into the low 8 B bits.
template <unsigned B>
inline std::uint64_t pack8(std::uint64_t x) {
  if constexpr (B == 1) {
    return (x * 0x0102040810204080ULL) >> 56;
  } else if constexpr (B == 2) {
    x = (x | x >> 6) & 0x000f000f000f000fULL;
    x = (x | x >> 12) & 0x000000ff000000ffULL;
    return (x | x >> 24) & 0xffff;
  } else {
    static_assert(B == 4);
    x = (x | x >> 4) & 0x00ff00ff00ff00ffULL;
    x = (x | x >> 8) & 0x0000ffff0000ffffULL;
    return (x | x >> 16) & 0xffffffffULL;
  }
}

// Eight entries' low bytes, one per byte of the result; `seen` collects
// the OR of the whole entries for the range check.
template <typename U>
inline std::uint64_t low_bytes8(const U* p, std::size_t count,
                                std::uint64_t& seen) {
  std::uint64_t x = 0;
  if constexpr (sizeof(U) == 1) {
    if (count == 8) {
      x = load_u64(p);
      seen |= x;
      return x;
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    const auto v = static_cast<std::uint64_t>(p[k]);
    seen |= v;
    x |= (v & 0xff) << (8 * k);
  }
  return x;
}

template <typename U, unsigned B>
void pack_generic(const U* src, std::size_t n, std::byte* out) {
  if constexpr (B == 8 * sizeof(U)) {
    if (n != 0) std::memcpy(out, src, n * sizeof(U));
  } else if constexpr (B >= 8) {
    std::uint64_t seen = 0;
    for (std::size_t e = 0; e < n; ++e) {
      const auto v = static_cast<std::uint64_t>(src[e]);
      seen |= v;
      std::memcpy(out + e * (B / 8), &v, B / 8);
    }
    if ((seen >> B) != 0) round_overflow(src, n, B);
  } else {
    std::uint64_t seen = 0;
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8) {
      const std::uint64_t w = pack8<B>(low_bytes8(src + e, 8, seen));
      std::memcpy(out + e * B / 8, &w, B);
    }
    if (e < n) {
      const std::uint64_t w = pack8<B>(low_bytes8(src + e, n - e, seen));
      std::memcpy(out + e * B / 8, &w, packed_bytes(n - e, B));
    }
    // uint8 gathers eight entries per word of seen; wider U one.
    constexpr std::uint64_t kFits =
        sizeof(U) == 1 ? 0x0101010101010101ULL * ((1U << B) - 1)
                       : (1U << B) - 1;
    if ((seen & ~kFits) != 0) round_overflow(src, n, B);
  }
}

template <typename U, unsigned B>
void unpack_generic(const std::byte* src, std::size_t n, U* out) {
  if constexpr (B == 8 * sizeof(U)) {
    if (n != 0) std::memcpy(out, src, n * sizeof(U));
  } else if constexpr (B >= 8) {
    for (std::size_t e = 0; e < n; ++e) {
      std::uint64_t v = 0;
      std::memcpy(&v, src + e * (B / 8), B / 8);
      out[e] = static_cast<U>(v);
    }
  } else {
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8) {
      std::uint64_t x = 0;
      std::memcpy(&x, src + e * B / 8, B);
      const std::uint64_t y = spread8<B>(x);
      if constexpr (sizeof(U) == 1) {
        std::memcpy(out + e, &y, 8);
      } else {
        for (std::size_t k = 0; k < 8; ++k) {
          out[e + k] = static_cast<U>((y >> (8 * k)) & 0xff);
        }
      }
    }
    if (e < n) {
      std::uint64_t x = 0;
      std::memcpy(&x, src + e * B / 8, packed_bytes(n - e, B));
      const std::uint64_t y = spread8<B>(x);
      for (std::size_t k = 0; e + k < n; ++k) {
        out[e + k] = static_cast<U>((y >> (8 * k)) & 0xff);
      }
    }
  }
}

// Below U's width the payload is unpacked a chunk at a time into a stack
// buffer that the checked vector fold then adds where it lies.
template <typename U, unsigned B>
void add_packed_generic(U* dst, U* dst2, const std::byte* src,
                        std::size_t n) {
  auto add = [&](U* d, U* d2, const std::byte* s, std::size_t m) {
    if (d2 != nullptr) {
      add_generic<U, true>(d, d2, s, m);
    } else {
      add_generic<U, false>(d, nullptr, s, m);
    }
  };
  if constexpr (B == 8 * sizeof(U)) {
    add(dst, dst2, src, n);
  } else {
    constexpr std::size_t kChunk = 256;
    U tmp[kChunk];
    for (std::size_t e = 0; e < n; e += kChunk) {
      const std::size_t m = n - e < kChunk ? n - e : kChunk;
      unpack_generic<U, B>(src + e * B / 8, m, tmp);
      add(dst + e, dst2 == nullptr ? nullptr : dst2 + e,
          reinterpret_cast<const std::byte*>(tmp), m);
    }
  }
}

// --- dispatch tables ------------------------------------------------------

// SWAR flags at uint8: eight mask bytes become eight 0/1 bytes per word,
// stored whole.  Wider entries take the scalar reference's loop: storing a
// word's flags one entry at a time measured slower than it at the baseline
// ISA.
std::int64_t mask_flags_swar(const std::uint8_t* mask, std::size_t n,
                             std::uint8_t* ps) {
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // 0x01 in each byte whose mask byte is nonzero.
    const std::uint64_t flags =
        (~zero_byte_flags(load_u64(mask + i)) & kHigh) >> 7;
    std::memcpy(ps + i, &flags, sizeof(flags));
    count += sum_bytes(flags);
  }
  return count + scalar::mask_flags(mask + i, n - i, ps + i);
}

// Width-specialized kernels take one slot per width of 1, 2, 4, 8 and 16
// bytes (slot log2 width; wire entries use the first four, and the indexed
// gather one row per index width of the wire).
constexpr std::size_t kSlots = 5;
constexpr std::size_t kWireSlots = 4;

// The base-rank kernels at one width.
template <typename U>
struct RankKernels {
  std::int64_t (*mask_flags)(const std::uint8_t*, std::size_t, U*);
  void (*segment_sums)(const U*, std::size_t, std::size_t, std::int64_t*);
  void (*segmented_prefix_fold)(const U*, const U*, std::size_t, std::size_t,
                                const std::int64_t*, std::int64_t*);
  std::size_t (*segmented_prefix_fold_gather)(const U*, const U*, std::size_t,
                                              std::size_t,
                                              const std::int64_t*,
                                              const std::uint8_t*,
                                              std::int64_t*);
  // The PRS rounds, one slot per round width up to U's (kRoundSlotsOf<U>);
  // the fold's dst2 may be null.
  void (*pack[kRoundSlots])(const U*, std::size_t, std::byte*) = {};
  void (*unpack[kRoundSlots])(const std::byte*, std::size_t, U*) = {};
  void (*add_packed[kRoundSlots])(U*, U*, const std::byte*,
                                  std::size_t) = {};
};

// The kernels of one Path.  A null slot -- every width slot of the scalar
// table, and any width without a slot -- runs the scalar reference.  The
// base-rank kernels are filled in every table.
struct Table {
  std::int64_t (*mask_count)(const std::uint8_t*, std::size_t);
  std::size_t (*prefix_in_range)(const std::int64_t*, std::size_t,
                                  std::int64_t, std::int64_t);
  std::tuple<RankKernels<std::uint8_t>, RankKernels<std::uint16_t>,
             RankKernels<std::uint32_t>, RankKernels<std::int64_t>>
      ranks = {};
  void (*narrow[kWireSlots])(const std::int64_t*, std::size_t, std::int64_t,
                             std::byte*) = {};
  std::size_t (*gather[kSlots])(const std::uint8_t*, const std::byte*,
                                std::size_t, std::byte*) = {};
  std::size_t (*gather_first_n[kSlots])(const std::uint8_t*,
                                        const std::byte*, std::size_t,
                                        std::size_t, std::byte*) = {};
  std::size_t (*merge[kSlots])(const std::uint8_t*, const std::byte*,
                               std::size_t, const std::byte*, std::size_t,
                               std::byte*) = {};
  void (*index_gather[kWireSlots][kSlots])(const std::byte*, std::size_t,
                                            const std::byte*, std::size_t,
                                            std::byte*) = {};
};

// The slot of `width` in a table row of `slots` entries, or null.
template <typename F, std::size_t N>
F at_width(F const (&slots)[N], std::size_t width) {
  const bool power_of_two = width != 0 && (width & (width - 1)) == 0;
  return power_of_two && width < (std::size_t{1} << N)
             ? slots[std::countr_zero(width)]
             : nullptr;
}

template <typename U>
constexpr RankKernels<U> scalar_ranks() {
  return {
      .mask_flags = scalar::mask_flags<U>,
      .segment_sums = scalar::segment_sums<U>,
      .segmented_prefix_fold = scalar::segmented_prefix_fold<U>,
      .segmented_prefix_fold_gather = scalar::segmented_prefix_fold_gather<U>,
  };
}

constexpr Table kScalarTable = {
    .mask_count = scalar::mask_count,
    .prefix_in_range = scalar::prefix_in_range,
    .ranks = {scalar_ranks<std::uint8_t>(), scalar_ranks<std::uint16_t>(),
              scalar_ranks<std::uint32_t>(), scalar_ranks<std::int64_t>()},
};

// A build of function F: Baseline is F itself; a native section supplies
// one that rebuilds F's source for its ISA.
template <auto F>
struct Baseline {
  static constexpr auto run = F;
};

// Index width 1 << I's row of the indexed gather, every element width.
template <template <auto> class Build, std::size_t I, std::size_t... S>
constexpr void index_gather_row(Table& t, std::index_sequence<S...>) {
  constexpr std::size_t kIndexWidth = std::size_t{1} << I;
  ((t.index_gather[I][S] =
        Build<index_gather_generic<kIndexWidth, std::size_t{1} << S>>::run),
   ...);
}

// The generic base-rank source at width U, every kernel built by Build.
template <template <auto> class Build, typename U>
constexpr RankKernels<U> generic_ranks() {
  RankKernels<U> r = {
      .mask_flags = Build<scalar::mask_flags<U>>::run,
      .segment_sums = Build<segment_sums_unrolled<U>>::run,
      .segmented_prefix_fold = Build<segmented_prefix_fold_unrolled<U>>::run,
      .segmented_prefix_fold_gather =
          Build<segmented_prefix_fold_gather_unrolled<U>>::run,
  };
  if constexpr (sizeof(U) == 1) r.mask_flags = Build<mask_flags_swar>::run;
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    ((r.pack[S] = Build<pack_generic<U, 1U << S>>::run), ...);
    ((r.unpack[S] = Build<unpack_generic<U, 1U << S>>::run), ...);
    ((r.add_packed[S] = Build<add_packed_generic<U, 1U << S>>::run), ...);
  }(std::make_index_sequence<kRoundSlotsOf<U>>{});
  return r;
}

// The generic source, every kernel of it built by Build.
template <template <auto> class Build>
constexpr Table generic_table() {
  Table t = {
      .mask_count = Build<mask_count_generic>::run,
      .prefix_in_range = Build<prefix_in_range_generic>::run,
      .ranks = {generic_ranks<Build, std::uint8_t>(),
                generic_ranks<Build, std::uint16_t>(),
                generic_ranks<Build, std::uint32_t>(),
                generic_ranks<Build, std::int64_t>()},
  };
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    ((t.gather[S] = Build<gather_generic<std::size_t{1} << S>>::run), ...);
    ((t.gather_first_n[S] =
          Build<gather_first_n_generic<std::size_t{1} << S>>::run),
     ...);
    ((t.merge[S] = Build<merge_generic<std::size_t{1} << S>>::run), ...);
  }(std::make_index_sequence<kSlots>{});
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    ((t.narrow[S] = Build<narrow_generic<std::size_t{1} << S>>::run), ...);
    (index_gather_row<Build, S>(t, std::make_index_sequence<kSlots>{}), ...);
  }(std::make_index_sequence<kWireSlots>{});
  return t;
}

constexpr Table kGenericTable = generic_table<Baseline>();

}  // namespace
}  // namespace pup::kernels

// --- native section -------------------------------------------------------
//
// Defines native_table(): the kNative table when the running CPU supports
// it, else null; and kNativeName, what path_name(kNative) reports.

#if defined(__x86_64__)
#include <immintrin.h>

namespace pup::kernels {
namespace {
namespace avx2 {

// The generic source of F rebuilt for AVX2: F is inlined (with everything
// it calls) into a function compiled for AVX2, so the compiler folds F's
// loops into AVX2 vector code.
template <auto F>
struct Build;
template <typename R, typename... A, R (*F)(A...)>
struct Build<F> {
  [[gnu::target("avx2"), gnu::flatten]] static R run(A... a) {
    return F(a...);
  }
};

[[gnu::target("avx2")]] std::int64_t mask_count(const std::uint8_t* mask,
                                                std::size_t n) {
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

// Vector R of four int64 values plus the bias, OR-ed into the narrowing
// check's accumulator and shifted to its W-byte field.
template <std::size_t W, std::size_t R>
[[gnu::target("avx2")]] inline __m256i narrow_lane(const std::int64_t* p,
                                                   __m256i bias,
                                                   __m256i& seen) {
  const __m256i v = _mm256_add_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * R)), bias);
  seen = _mm256_or_si256(seen, v);
  return _mm256_slli_epi64(v, static_cast<int>(8 * W * R));
}

// R = 4 / W vectors merged into one, lane k holding entry k of each
// vector in its low dword.
template <std::size_t W, std::size_t... R>
[[gnu::target("avx2")]] inline __m256i merge_lanes(const std::int64_t* p,
                                                   __m256i bias,
                                                   __m256i& seen,
                                                   std::index_sequence<R...>) {
  __m256i merged = _mm256_setzero_si256();
  ((merged = _mm256_or_si256(merged, narrow_lane<W, R>(p, bias, seen))), ...);
  return merged;
}

// Narrowing: the 4 R entries merged by merge_lanes, then one permute
// gathers the four low dwords and one byte shuffle transposes them into
// entry order.  Only wire bytes move, and they are exact because every
// value is checked to fit: the OR of all values, whose bits at or above
// 8 W must stay clear.
template <std::size_t W>
[[gnu::target("avx2")]] void narrow(const std::int64_t* src, std::size_t n,
                                    std::int64_t bias, std::byte* out) {
  constexpr std::size_t kR = 4 / W;
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  // Dword k holds entry k of each of the R vectors, W bytes each; output
  // entry r * 4 + k is at byte k * 4 + r * W (W = 4 needs no shuffle).
  const __m128i transpose =
      W == 1 ? _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7,
                             11, 15)
             : _mm_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11,
                             14, 15);
  const __m256i vbias = _mm256_set1_epi64x(bias);
  __m256i seen = _mm256_setzero_si256();
  std::size_t e = 0;
  for (; e + 4 * kR <= n; e += 4 * kR) {
    const __m256i merged = merge_lanes<W>(src + e, vbias, seen,
                                          std::make_index_sequence<kR>{});
    __m128i d = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(merged, low_dwords));
    if constexpr (W != 4) d = _mm_shuffle_epi8(d, transpose);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + e * W), d);
  }
  const __m256i high = _mm256_srli_epi64(seen, static_cast<int>(8 * W));
  bool bad = _mm256_testz_si256(high, high) == 0;
  for (; e < n; ++e) {
    const std::uint64_t v = biased(src, e, bias);
    bad |= (v >> (8 * W)) != 0;
    std::memcpy(out + e * W, &v, W);
  }
  if (bad) wire_overflow(src, n, W, bias);
}

// Four lanes at a time: an in-register inclusive scan (two shift-adds
// across the 128-bit halves) of rs[e, e + 4).
[[gnu::target("avx2")]] inline __m256i inclusive_scan4(__m256i x) {
  const __m256i zero = _mm256_setzero_si256();
  // [0, v0, v1, v2], then [0, 0, v0, v0 + v1].
  const __m256i x1 = _mm256_add_epi64(
      x, _mm256_blend_epi32(_mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0)),
                            zero, 0x03));
  return _mm256_add_epi64(
      x1, _mm256_blend_epi32(
              _mm256_permute4x64_epi64(x1, _MM_SHUFFLE(1, 0, 0, 0)), zero,
              0x0f));
}

// Four base ranks from p, zero-extended into the int64 lanes: one 4-, 8-
// or 16-byte load and one widening move below int64.
template <typename U>
[[gnu::target("avx2")]] inline __m256i load4(const U* p) {
  if constexpr (sizeof(U) == 1) {
    std::uint32_t x;
    std::memcpy(&x, p, sizeof(x));
    return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(x)));
  } else if constexpr (sizeof(U) == 2) {
    return _mm256_cvtepu16_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  } else if constexpr (sizeof(U) == 4) {
    return _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  } else {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
}

// W_0 = 1 flags, 32 mask bytes per step: one compare against zero, its
// movemask counted, and the 0/1 bytes stored whole at uint8; at int64 each
// run of four mask bytes is zero-extended and compared per lane.  (uint16
// and uint32 take the generic rebuild: level 0 reaches them only with
// P_0 > 255.)
template <typename U>
[[gnu::target("avx2")]] std::int64_t mask_flags(const std::uint8_t* mask,
                                                std::size_t n, U* ps) {
  const __m256i zero = _mm256_setzero_si256();
  std::int64_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    const __m256i eqz = _mm256_cmpeq_epi8(v, zero);
    count += 32 - std::popcount(
                      static_cast<std::uint32_t>(_mm256_movemask_epi8(eqz)));
    if constexpr (sizeof(U) == 1) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ps + i),
                          _mm256_andnot_si256(eqz, _mm256_set1_epi8(1)));
    } else {
      static_assert(sizeof(U) == 8, "uint16/uint32 flags are not built here");
      for (std::size_t j = 0; j < 32; j += 4) {
        const __m256i w = load4(mask + i + j);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(ps + i + j),
            _mm256_andnot_si256(_mm256_cmpeq_epi64(w, zero),
                                _mm256_set1_epi64x(1)));
      }
    }
  }
  return count + scalar::mask_flags(mask + i, n - i, ps + i);
}

// The inclusive scan minus the input for the exclusive prefix, plus the
// carried running sum, which starts at the segment's addend.  The
// loop-carried chain is one add per block of four.
template <typename U>
[[gnu::target("avx2")]] void segmented_prefix_fold(
    const U* rs, const U* ps, std::size_t n, std::size_t seg_len,
    const std::int64_t* seg_add, std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i running = _mm256_set1_epi64x(seg_add[g]);
    std::size_t e = s;
    for (; e + 4 <= end; e += 4) {
      const __m256i x = load4(rs + e);
      const __m256i inc = inclusive_scan4(x);
      const __m256i excl =
          _mm256_add_epi64(_mm256_sub_epi64(inc, x), running);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + e),
                          _mm256_add_epi64(load4(ps + e), excl));
      running = _mm256_add_epi64(
          running, _mm256_permute4x64_epi64(inc, _MM_SHUFFLE(3, 3, 3, 3)));
    }
    std::int64_t carry = _mm256_extract_epi64(running, 0);
    for (; e < end; ++e) {
      out[e] = static_cast<std::int64_t>(ps[e]) + carry;
      carry += rs[e];
    }
  }
}

// Four lanes of partial sums per segment, reduced at its end.  uint8
// entries are summed 32 per step first: a sum of absolute differences
// against zero adds each run of eight bytes into one int64 lane.
template <typename U>
[[gnu::target("avx2")]] void segment_sums(const U* rs, std::size_t n,
                                          std::size_t seg_len,
                                          std::int64_t* sums) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i acc = _mm256_setzero_si256();
    std::size_t e = s;
    if constexpr (sizeof(U) == 1) {
      for (; e + 32 <= end; e += 32) {
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(_mm256_loadu_si256(
                                     reinterpret_cast<const __m256i*>(rs + e)),
                                 zero));
      }
    }
    for (; e + 4 <= end; e += 4) acc = _mm256_add_epi64(acc, load4(rs + e));
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
[[gnu::target("avx2")]] std::size_t prefix_in_range(const std::int64_t* v,
                                                    std::size_t n,
                                                    std::int64_t lo,
                                                    std::int64_t hi) {
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
[[gnu::target("avx2")]] std::size_t gather(const std::uint8_t* mask,
                                           const std::byte* values,
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

// Left-pack table for 4-byte elements: for an 8-lane selection byte, the
// _mm256_permutevar8x32_epi32 indices that move the selected lanes, in
// order, to the front (the unused tail lanes repeat lane 0).
struct LeftPack32 {
  alignas(32) std::uint32_t idx[256][8] = {};
  constexpr LeftPack32() {
    for (unsigned sel = 0; sel < 256; ++sel) {
      unsigned o = 0;
      for (unsigned lane = 0; lane < 8; ++lane) {
        if (((sel >> lane) & 1U) != 0) idx[sel][o++] = lane;
      }
    }
  }
};
constexpr LeftPack32 kLeftPack32{};

// Eight uint8 or uint16 entries zero-extended into 32-bit lanes.
template <typename U>
[[gnu::target("avx2")]] inline __m256i load8(const U* p) {
  static_assert(sizeof(U) <= 2);
  if constexpr (sizeof(U) == 1) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  } else {
    return _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
}

// An in-register inclusive scan of eight 32-bit lanes: two shift-adds
// within each 128-bit half, then the low half's total into the high half.
[[gnu::target("avx2")]] inline __m256i inclusive_scan8(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  const __m256i low_total = _mm256_permutevar8x32_epi32(
      x, _mm256_setr_epi32(0, 0, 0, 0, 3, 3, 3, 3));
  return _mm256_add_epi32(
      x, _mm256_blend_epi32(_mm256_setzero_si256(), low_total, 0xf0));
}

// segmented_prefix_fold eight lanes per step for uint8 and uint16 entries:
// PS_i[e] plus the in-step exclusive prefix is exact in 32 bits (at most
// 8 * 65535), so the step is scanned in 32-bit lanes and only widened to
// int64, and offset by the running sum, as it is stored.
template <typename U>
[[gnu::target("avx2")]] void segmented_prefix_fold8(
    const U* rs, const U* ps, std::size_t n, std::size_t seg_len,
    const std::int64_t* seg_add, std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  const __m256i last = _mm256_set1_epi32(7);
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i running = _mm256_set1_epi64x(seg_add[g]);
    std::size_t e = s;
    for (; e + 8 <= end; e += 8) {
      const __m256i x = load8(rs + e);
      const __m256i inc = inclusive_scan8(x);
      const __m256i part =
          _mm256_add_epi32(load8(ps + e), _mm256_sub_epi32(inc, x));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + e),
          _mm256_add_epi64(_mm256_cvtepu32_epi64(_mm256_castsi256_si128(part)),
                           running));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + e + 4),
          _mm256_add_epi64(
              _mm256_cvtepu32_epi64(_mm256_extracti128_si256(part, 1)),
              running));
      // The step's total, lane 7, zero-extended into every int64 lane.
      running = _mm256_add_epi64(
          running,
          _mm256_srli_epi64(_mm256_permutevar8x32_epi32(inc, last), 32));
    }
    std::int64_t carry = _mm256_extract_epi64(running, 0);
    for (; e < end; ++e) {
      out[e] = static_cast<std::int64_t>(ps[e]) + carry;
      carry += rs[e];
    }
  }
}

// segmented_prefix_fold's four-lane fold, then a left-pack of the selected
// lanes (the 4-byte mask word widened to a lane-selection nibble) stored
// whole at out + k.  uint8 and uint16 entries go eight lanes per step
// first: PS_i[e] plus the in-step exclusive prefix is exact in 32 bits (at
// most 8 * 65535), so those lanes are left-packed as 32-bit values, then
// widened and offset by the int64 running sum.  A step stores at most
// eight lanes from out + k, k the count so far, so the speculative stores
// stay inside min(n, final count + kGatherSlack).
template <typename U>
[[gnu::target("avx2")]] std::size_t segmented_prefix_fold_gather(
    const U* rs, const U* ps, std::size_t n, std::size_t seg_len,
    const std::int64_t* seg_add, const std::uint8_t* mask,
    std::int64_t* out) {
  PUP_REQUIRE(seg_len >= 1, "segment length must be positive");
  const __m256i zero = _mm256_setzero_si256();
  std::size_t k = 0;
  for (std::size_t s = 0, g = 0; s < n; s += seg_len, ++g) {
    const std::size_t end = s + seg_len < n ? s + seg_len : n;
    __m256i running = _mm256_set1_epi64x(seg_add[g]);
    std::size_t e = s;
    if constexpr (sizeof(U) <= 2) {
      const __m256i last = _mm256_set1_epi32(7);
      for (; e + 8 <= end; e += 8) {
        const __m256i x = load8(rs + e);
        const __m256i inc = inclusive_scan8(x);
        const __m256i part =
            _mm256_add_epi32(load8(ps + e), _mm256_sub_epi32(inc, x));
        std::int64_t m;
        std::memcpy(&m, mask + e, sizeof(m));
        const auto sel = static_cast<unsigned>(
            ~_mm_movemask_epi8(_mm_cmpeq_epi8(_mm_cvtsi64_si128(m),
                                              _mm_setzero_si128())) &
            0xff);
        const __m256i packed = _mm256_permutevar8x32_epi32(
            part, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                      kLeftPack32.idx[sel])));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + k),
            _mm256_add_epi64(
                _mm256_cvtepu32_epi64(_mm256_castsi256_si128(packed)),
                running));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + k + 4),
            _mm256_add_epi64(
                _mm256_cvtepu32_epi64(_mm256_extracti128_si256(packed, 1)),
                running));
        k += static_cast<std::size_t>(std::popcount(sel));
        // The step's total, lane 7, zero-extended into every int64 lane.
        running = _mm256_add_epi64(
            running,
            _mm256_srli_epi64(_mm256_permutevar8x32_epi32(inc, last), 32));
      }
    }
    for (; e + 4 <= end; e += 4) {
      const __m256i x = load4(rs + e);
      const __m256i inc = inclusive_scan4(x);
      const __m256i folded = _mm256_add_epi64(
          load4(ps + e), _mm256_add_epi64(_mm256_sub_epi64(inc, x), running));
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
      out[k] = static_cast<std::int64_t>(ps[e]) + carry;
      k += mask[e] != 0;
      carry += rs[e];
    }
  }
  return k;
}

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
[[gnu::target("avx2")]] std::size_t merge(const std::uint8_t* mask,
                                          const std::byte* src,
                                          std::size_t src_len,
                                          const std::byte* field,
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

// The pack and fold of uint8 base ranks at B = 1 or 2 bits (a W_0 = 1
// level's two rounds on four members), 32 entries (4 B payload bytes) per
// step; wider rounds, and the first round's copy, take the generic source
// rebuilt for AVX2, which measured as fast end to end.  The pack checks
// every entry once, by OR-ing them into one vector whose bits at and
// above B must stay clear; the fold's add wrapped exactly where the
// saturating add differs.  Tails shorter than a step go entry by entry.

// Lane k of the result holds entry k of the 32 packed at src.
template <unsigned B>
[[gnu::target("avx2")]] inline __m256i spread32(const std::byte* src) {
  if constexpr (B == 1) {
    // Byte k/8 of the word into lane k, which keeps bit k % 8.
    std::uint32_t w;
    std::memcpy(&w, src, sizeof(w));
    const __m256i rep = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(w)),
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2,
                         2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3));
    return _mm256_min_epu8(
        _mm256_and_si256(rep, _mm256_set1_epi64x(0x8040201008040201LL)),
        _mm256_set1_epi8(1));
  } else {
    static_assert(B == 2);
    // Byte k/4 into lane k, which keeps its field k % 4; a nibble lookup
    // shifts the field down (0-3 stay, 4/8/12 become 1/2/3), from the low
    // nibble for fields 0-1 and the high one for fields 2-3.
    std::uint64_t q;
    std::memcpy(&q, src, sizeof(q));
    const __m256i rep = _mm256_shuffle_epi8(
        _mm256_set1_epi64x(static_cast<long long>(q)),
        _mm256_setr_epi8(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4,
                         4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7));
    const __m256i field = _mm256_and_si256(
        rep, _mm256_set1_epi32(static_cast<int>(0xc0300c03U)));
    const __m256i lut = _mm256_setr_epi8(0, 1, 2, 3, 1, 0, 0, 0, 2, 0, 0, 0,
                                         3, 0, 0, 0, 0, 1, 2, 3, 1, 0, 0, 0,
                                         2, 0, 0, 0, 3, 0, 0, 0);
    const __m256i nib = _mm256_set1_epi8(0x0f);
    return _mm256_or_si256(
        _mm256_shuffle_epi8(lut, _mm256_and_si256(field, nib)),
        _mm256_shuffle_epi8(
            lut, _mm256_and_si256(_mm256_srli_epi16(field, 4), nib)));
  }
}

template <unsigned B>
[[gnu::target("avx2")]] void pack_u8(const std::uint8_t* src, std::size_t n,
                                     std::byte* out) {
  __m256i seen = _mm256_setzero_si256();
  std::size_t e = 0;
  for (; e + 32 <= n; e += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + e));
    seen = _mm256_or_si256(seen, v);
    std::byte* to = out + e * B / 8;
    if constexpr (B == 1) {
      // Each flag to its byte's top bit, and one movemask packs them.
      const auto bits = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_slli_epi16(v, 7)));
      std::memcpy(to, &bits, sizeof(bits));
    } else {
      static_assert(B == 2);
      // Pairs, then pairs of pairs, into one byte per dword.
      const __m256i quads = _mm256_madd_epi16(
          _mm256_maddubs_epi16(v, _mm256_set1_epi16(0x0401)),
          _mm256_set1_epi32(0x00100001));
      const __m256i bytes = _mm256_shuffle_epi8(
          quads, _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                                  -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1,
                                  -1, -1, -1, -1, -1, -1, -1, -1));
      const auto lo = static_cast<std::uint32_t>(_mm256_cvtsi256_si32(bytes));
      const auto hi =
          static_cast<std::uint32_t>(_mm256_extract_epi32(bytes, 4));
      std::memcpy(to, &lo, sizeof(lo));
      std::memcpy(to + 4, &hi, sizeof(hi));
    }
  }
  const auto high = static_cast<char>(0xff << B);
  bool bad = _mm256_testz_si256(seen, _mm256_set1_epi8(high)) == 0;
  if (e < n) {
    std::byte* tail = out + e * B / 8;
    std::memset(tail, 0, packed_bytes(n - e, B));
    for (std::size_t k = e; k < n; ++k) {
      bad |= (src[k] >> B) != 0;
      const std::size_t bit = (k - e) * B;
      tail[bit / 8] |=
          static_cast<std::byte>((src[k] & ((1U << B) - 1)) << (bit % 8));
    }
  }
  if (bad) round_overflow(src, n, B);
}

// d[0, 32) += v, the lanes that wrapped flagged in `wrapped`.
[[gnu::target("avx2")]] inline void add32(std::uint8_t* d, __m256i v,
                                          __m256i& wrapped) {
  const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d));
  const __m256i sum = _mm256_add_epi8(x, v);
  wrapped =
      _mm256_or_si256(wrapped, _mm256_xor_si256(sum, _mm256_adds_epu8(x, v)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(d), sum);
}

template <unsigned B>
[[gnu::target("avx2")]] void add_packed_u8(std::uint8_t* dst,
                                           std::uint8_t* dst2,
                                           const std::byte* src,
                                           std::size_t n) {
  __m256i wrapped = _mm256_setzero_si256();
  std::size_t e = 0;
  for (; e + 32 <= n; e += 32) {
    const __m256i v = spread32<B>(src + e * B / 8);
    add32(dst + e, v, wrapped);
    if (dst2 != nullptr) add32(dst2 + e, v, wrapped);
  }
  if (_mm256_testz_si256(wrapped, wrapped) == 0) {
    packed_sum_overflow(e, sizeof(std::uint8_t));
  }
  if (e < n) {
    add_packed_generic<std::uint8_t, B>(
        dst + e, dst2 == nullptr ? nullptr : dst2 + e, src + e * B / 8,
        n - e);
  }
}

// The base-rank kernels at width U: the generic source rebuilt for AVX2
// (the payload folds and packed rounds), with the hand-written flags,
// scans and sums above.
template <typename U>
constexpr RankKernels<U> avx2_ranks() {
  RankKernels<U> r = generic_ranks<Build, U>();
  if constexpr (sizeof(U) == 1) {
    [&]<std::size_t... S>(std::index_sequence<S...>) {
      ((r.pack[S] = pack_u8<1U << S>), ...);
      ((r.add_packed[S] = add_packed_u8<1U << S>), ...);
    }(std::make_index_sequence<2>{});
  }
  if constexpr (sizeof(U) == 1 || sizeof(U) == 8) {
    r.mask_flags = mask_flags<U>;
  }
  r.segment_sums = segment_sums<U>;
  // uint8 and uint16 scan eight 32-bit lanes; uint32 and int64 four int64
  // lanes, which measured faster there than the generic rebuild.
  if constexpr (sizeof(U) <= 2) {
    r.segmented_prefix_fold = segmented_prefix_fold8<U>;
  } else {
    r.segmented_prefix_fold = segmented_prefix_fold<U>;
  }
  r.segmented_prefix_fold_gather = segmented_prefix_fold_gather<U>;
  return r;
}

// The generic source rebuilt for AVX2, with the hand-written bodies above
// in the slots where they measured faster.  One more slot differs from a
// plain rebuild of the generic table (EXPERIMENTS.md, "Kernel dispatch"):
// the indexed gather keeps its baseline build, which measured faster than
// its AVX2 rebuild.
constexpr Table make_table() {
  Table t = generic_table<Build>();
  for (std::size_t i = 0; i < kWireSlots; ++i) {
    for (std::size_t j = 0; j < kSlots; ++j) {
      t.index_gather[i][j] = kGenericTable.index_gather[i][j];
    }
  }
  t.mask_count = mask_count;
  t.prefix_in_range = prefix_in_range;
  t.ranks = {avx2_ranks<std::uint8_t>(), avx2_ranks<std::uint16_t>(),
             avx2_ranks<std::uint32_t>(), avx2_ranks<std::int64_t>()};
  t.narrow[0] = narrow<1>;
  t.narrow[1] = narrow<2>;
  t.narrow[2] = narrow<4>;
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    ((t.gather[S] = gather<std::size_t{1} << S>), ...);
    ((t.merge[S] = merge<std::size_t{1} << S>), ...);
  }(std::make_index_sequence<kSlots>{});
  return t;
}

constexpr Table kTable = make_table();

}  // namespace avx2

const Table* native_table() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has ? &avx2::kTable : nullptr;
}
constexpr const char* kNativeName = "avx2";

}  // namespace
}  // namespace pup::kernels

#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>

namespace pup::kernels {
namespace {

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

constexpr Table make_neon_table() {
  Table t = kGenericTable;
  t.mask_count = mask_count_neon;
  return t;
}

constexpr Table kNeonTable = make_neon_table();

const Table* native_table() { return &kNeonTable; }
constexpr const char* kNativeName = "neon";

}  // namespace
}  // namespace pup::kernels

#else

namespace pup::kernels {
namespace {
const Table* native_table() { return nullptr; }
constexpr const char* kNativeName = "native";
}  // namespace
}  // namespace pup::kernels

#endif

// --- dispatch -------------------------------------------------------------

namespace pup::kernels {
namespace {

// -1 = auto; otherwise the Path pinned by set_path().  g_active is the
// table of active_path(), resolved on the first kernel call and replaced
// by set_path().  Relaxed atomics: set_path() runs only in single-threaded
// sections, and every path computes the same bytes.
std::atomic<int> g_forced{-1};
std::atomic<const Table*> g_active{nullptr};

const Table* table_of(Path p) {
  switch (p) {
    case Path::kScalar:
      return &kScalarTable;
    case Path::kNative:
      return native_table();
    case Path::kGeneric:
      break;
  }
  return &kGenericTable;
}

[[gnu::cold, gnu::noinline]] const Table* resolve_active() {
  const Table* t = table_of(active_path());
  g_active.store(t, std::memory_order_relaxed);
  return t;
}

// Inlined into every entry point: one load, then the call through the
// table (a dozen-element kernel call costs about as much as the dispatch).
[[gnu::always_inline]] inline const Table& active() {
  const Table* t = g_active.load(std::memory_order_relaxed);
  return t != nullptr ? *t : *resolve_active();
}

template <typename U>
[[gnu::always_inline]] inline const RankKernels<U>& ranks() {
  return std::get<RankKernels<U>>(active().ranks);
}

}  // namespace

const char* path_name(Path p) {
  switch (p) {
    case Path::kScalar:
      return "scalar";
    case Path::kGeneric:
      return "generic";
    case Path::kNative:
      return kNativeName;
  }
  return "unknown";
}

bool native_available() { return native_table() != nullptr; }

Path active_path() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Path>(forced);
  return native_available() ? Path::kNative : Path::kGeneric;
}

void set_path(std::optional<Path> p) {
  PUP_REQUIRE(!p.has_value() || p != Path::kNative || native_available(),
              "cannot pin the native kernel path: not compiled in or not "
              "supported by this CPU");
  g_forced.store(p.has_value() ? static_cast<int>(*p) : -1,
                 std::memory_order_relaxed);
  g_active.store(table_of(active_path()), std::memory_order_relaxed);
}

// --- dispatched entry points ----------------------------------------------

std::int64_t mask_count(const std::uint8_t* mask, std::size_t n) {
  return active().mask_count(mask, n);
}

template <BaseRank U>
std::int64_t mask_flags(const std::uint8_t* mask, std::size_t n, U* ps) {
  return ranks<U>().mask_flags(mask, n, ps);
}

template <BaseRank U>
void segment_sums(const U* rs, std::size_t n, std::size_t seg_len,
                  std::int64_t* sums) {
  ranks<U>().segment_sums(rs, n, seg_len, sums);
}

template <BaseRank U>
void segmented_prefix_fold(const U* rs, const U* ps, std::size_t n,
                           std::size_t seg_len, const std::int64_t* seg_add,
                           std::int64_t* out) {
  ranks<U>().segmented_prefix_fold(rs, ps, n, seg_len, seg_add, out);
}

template <BaseRank U>
std::size_t segmented_prefix_fold_gather(const U* rs, const U* ps,
                                         std::size_t n, std::size_t seg_len,
                                         const std::int64_t* seg_add,
                                         const std::uint8_t* mask,
                                         std::int64_t* out) {
  return ranks<U>().segmented_prefix_fold_gather(rs, ps, n, seg_len, seg_add,
                                                 mask, out);
}

template <BaseRank U>
void pack_bits(const U* src, std::size_t n, unsigned bits, std::byte* out) {
  require_round_bits(bits, sizeof(U));
  if (const auto f = ranks<U>().pack[std::countr_zero(bits)]) {
    return f(src, n, out);
  }
  scalar::pack_bits(src, n, bits, out);
}

template <BaseRank U>
void unpack_bits(const std::byte* src, std::size_t n, unsigned bits, U* out) {
  require_round_bits(bits, sizeof(U));
  if (const auto f = ranks<U>().unpack[std::countr_zero(bits)]) {
    return f(src, n, out);
  }
  scalar::unpack_bits(src, n, bits, out);
}

template <BaseRank U>
void add_packed(U* dst, U* dst2, const std::byte* src, std::size_t n,
                unsigned bits) {
  require_round_bits(bits, sizeof(U));
  if (const auto f = ranks<U>().add_packed[std::countr_zero(bits)]) {
    return f(dst, dst2, src, n);
  }
  scalar::add_packed(dst, dst2, src, n, bits);
}

std::size_t prefix_in_range(const std::int64_t* v, std::size_t n,
                            std::int64_t lo, std::int64_t hi) {
  PUP_DCHECK(lo <= hi, "prefix_in_range needs lo <= hi");
  return active().prefix_in_range(v, n, lo, hi);
}

void narrow_to_bytes(const std::int64_t* src, std::size_t n,
                     std::size_t width, std::byte* out, std::int64_t bias) {
  require_wire_width(width);
  if (const auto f = at_width(active().narrow, width)) {
    return f(src, n, bias, out);
  }
  scalar::narrow_to_bytes(src, n, width, out, bias);
}

namespace detail {

std::size_t gather_bytes(const std::uint8_t* mask, const std::byte* values,
                         std::size_t n, std::size_t width, std::byte* out) {
  if (const auto f = at_width(active().gather, width)) {
    return f(mask, values, n, out);
  }
  return scalar::gather(mask, values, n, width, out);
}

std::size_t gather_first_n_bytes(const std::uint8_t* mask,
                                 const std::byte* values, std::size_t limit,
                                 std::size_t target, std::size_t width,
                                 std::byte* out) {
  if (const auto f = at_width(active().gather_first_n, width)) {
    return f(mask, values, limit, target, out);
  }
  return scalar::gather_first_n(mask, values, limit, target, width, out);
}

std::size_t merge_bytes(const std::uint8_t* mask, const std::byte* src,
                        std::size_t src_len, const std::byte* field,
                        std::size_t n, std::size_t width, std::byte* out) {
  if (const auto f = at_width(active().merge, width)) {
    return f(mask, src, src_len, field, n, out);
  }
  return scalar::merge(mask, src, src_len, field, n, width, out);
}

void index_gather_bytes(const std::byte* index, std::size_t n,
                        std::size_t index_width, const std::byte* base,
                        std::size_t extent, std::size_t width,
                        std::byte* out) {
  require_wire_width(index_width);
  const auto& row = active().index_gather[std::countr_zero(index_width)];
  if (const auto f = at_width(row, width)) {
    return f(index, n, base, extent, out);
  }
  scalar::index_gather(index, n, index_width, base, extent, width, out);
}

}  // namespace detail

}  // namespace pup::kernels

// The four base-rank widths of every width-templated kernel, reference and
// dispatched.
#define PUP_BASE_RANK_KERNELS(NS, U)                                         \
  template std::int64_t NS mask_flags<U>(const std::uint8_t*, std::size_t,  \
                                         U*);                               \
  template void NS segment_sums<U>(const U*, std::size_t, std::size_t,      \
                                   std::int64_t*);                          \
  template void NS segmented_prefix_fold<U>(const U*, const U*, std::size_t, \
                                            std::size_t, const std::int64_t*, \
                                            std::int64_t*);                 \
  template std::size_t NS segmented_prefix_fold_gather<U>(                  \
      const U*, const U*, std::size_t, std::size_t, const std::int64_t*,    \
      const std::uint8_t*, std::int64_t*);                                  \
  template void NS pack_bits<U>(const U*, std::size_t, unsigned, std::byte*); \
  template void NS unpack_bits<U>(const std::byte*, std::size_t, unsigned,  \
                                  U*);                                      \
  template void NS add_packed<U>(U*, U*, const std::byte*, std::size_t,     \
                                 unsigned);
#define PUP_BASE_RANK_KERNELS_BOTH(U)                                        \
  PUP_BASE_RANK_KERNELS(pup::kernels::, U)                                  \
  PUP_BASE_RANK_KERNELS(pup::kernels::scalar::, U)
PUP_BASE_RANK_KERNELS_BOTH(std::uint8_t)
PUP_BASE_RANK_KERNELS_BOTH(std::uint16_t)
PUP_BASE_RANK_KERNELS_BOTH(std::uint32_t)
PUP_BASE_RANK_KERNELS_BOTH(std::int64_t)
#undef PUP_BASE_RANK_KERNELS_BOTH
#undef PUP_BASE_RANK_KERNELS
