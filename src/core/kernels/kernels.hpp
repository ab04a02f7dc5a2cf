// Vectorized local kernels for the hot pack/unpack loops.
//
// The paper's comparative claims rest on *measured local computation*
// (Figs. 3-5), and a handful of loop shapes dominate it:
//
//   * mask_count / mask_flags -- the initial ranking scan: a slice's
//     selected count, or (W_0 = 1) PS_0 written as the mask's 0/1 flags;
//   * segment_sums / segmented_prefix_fold -- ranking substeps 2.2-2.4 over
//     the PS_i/RS_i base-rank arrays, each read at its level's width: an
//     intermediate step needs only the segment totals of RS_i (the seeds
//     of level i+1), and the final step folds the segmented exclusive
//     prefix of RS_i and the finished level-(i+1) ranks into PS_i in one
//     pass, writing the int64 ranks;
//   * segmented_prefix_fold_gather -- that final fold at level 0 of a
//     W_0 = 1 counting scan, fused with the gather of PS_f under the mask:
//     only the selected elements' ranks are kept, compacted;
//   * add_packed -- a PRS round's fold of a received payload of base
//     ranks into one or two accumulators, read where it lies (unaligned
//     loads from the message bytes), checked below int64: entries at the
//     accumulator's own width, or packed down to the round's bits;
//   * pack_bits / unpack_bits -- a direct PRS round sent at its own bit
//     width: the checked compose, and the first round's copy;
//   * narrow_to_bytes -- UNPACK's requests (and the ranking's level seeds)
//     narrowed from int64 onto a 1-, 2-, 4- or 8-byte wire, checked;
//   * prefix_in_range -- UNPACK's request runs: how far a scan-ordered
//     rank list stays inside one V block;
//   * index_gather -- UNPACK's replies: an owner answers a request stream
//     of local indices, each range-checked, by indexed loads;
//   * mask_gather / mask_gather_first_n / run_decode -- the CMS run
//     encode (a slice's selected values into a run payload) and decode;
//   * mask_merge -- UNPACK's placement: the result's local storage written
//     once, each slot from the scan-ordered value stream or the field.
//
// kernels.cpp holds one dispatch table per path, selected at runtime; each
// entry point below is one call through the active table:
//
//   * kScalar  -- the reference loops, each kernel's definition element
//                 by element.  Always available; the parity oracle for
//                 tests.
//   * kGeneric -- portable SWAR (8-byte word tricks) plus loops unrolled
//                 by four, compiled for the baseline ISA.  The fallback
//                 when no native ISA path applies.
//   * kNative  -- the generic source rebuilt for AVX2, with hand-written
//                 AVX2 bodies where they measured faster (x86-64, gated
//                 on the runtime cpuid check; only functions marked
//                 target("avx2") carry AVX2 code), or the generic table
//                 plus a NEON mask_count (AArch64).
//
// Selection: set_path() pins a path; by default ("auto") kernels take the
// best vector path.  The library never reads the environment: the entry
// point that honours PUP_SIMD (example_quickstart) turns PUP_SIMD=off
// into set_path(kScalar).  Every kernel computes exact
// integer (or memcpy'd) results, so the choice can never change a payload
// byte, a modeled charge, or a trace digest -- only the real wall clock
// charged to local computation.  tests/simd_kernels_test.cpp holds
// the bit-identity property; bench/micro_kernels.cpp gates the speedup.
//
// Layering (lint-enforced, "kernels-layering"): this directory may include
// only support/ and its own headers.  Kernels know nothing of machines,
// distributions, or plans -- callers hand them raw spans.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

#include "support/check.hpp"

namespace pup::kernels {

/// Implementation paths, from reference to most specialized.
enum class Path {
  kScalar,   ///< reference loops (the historical code)
  kGeneric,  ///< portable SWAR + unrolled loops
  kNative,   ///< AVX2 / NEON intrinsics (when compiled in and cpu-supported)
};

/// Human-readable name ("scalar", "generic", "avx2", "neon").  kNative
/// resolves to the ISA actually compiled in.
const char* path_name(Path p);

/// True when a native ISA path is compiled in and the running CPU
/// supports it.
bool native_available();

/// The path every kernel dispatches through: the one pinned by set_path(),
/// else kNative when available, else kGeneric.
Path active_path();

/// Pins active_path() (nullopt returns to auto).  Throws ContractError
/// when pinning kNative on a build or CPU without it.  Call only from
/// single-threaded sections: no kernel may be running.
void set_path(std::optional<Path> p);

// --- masked count/scan ----------------------------------------------------

/// Number of nonzero bytes in mask[0, n): the per-slice count of the
/// initial ranking scan and the COUNT reduction.
std::int64_t mask_count(const std::uint8_t* mask, std::size_t n);

// --- base ranks -------------------------------------------------------------
//
// The ranking keeps each level's PS_i/RS_i at the width its schedule proves
// (RankingStep::wire_bytes), the same in memory and on the wire: uint8,
// uint16 or uint32, or int64 where nothing narrower is proven (the paper's
// int64 wire).  Each kernel below is instantiated for exactly these four
// types; the ranks a fold produces are int64.

template <typename U>
concept BaseRank =
    std::same_as<U, std::uint8_t> || std::same_as<U, std::uint16_t> ||
    std::same_as<U, std::uint32_t> || std::same_as<U, std::int64_t>;

/// Calls f(U{}) with U the base rank of `width` bytes: uint8, uint16,
/// uint32 for 1, 2, 4, int64 for 8.  Throws ContractError for any other
/// width.
template <typename F>
decltype(auto) with_base_rank(std::size_t width, F&& f) {
  switch (width) {
    case 1:
      return f(std::uint8_t{});
    case 2:
      return f(std::uint16_t{});
    case 4:
      return f(std::uint32_t{});
    default:
      break;
  }
  PUP_REQUIRE(width == sizeof(std::int64_t),
              "base-rank width must be 1, 2, 4 or 8 bytes, not " << width);
  return f(std::int64_t{});
}

/// W_0 = 1 initial scan: ps[i] = (mask[i] != 0) for i < n; returns the
/// number of nonzero bytes.  Every output slot in [0, n) is written, so ps
/// needs no clearing first; any nonzero mask byte counts as one.  (A
/// W_0 = 1 slice's count is its mask byte, so no count array is written.)
template <BaseRank U>
std::int64_t mask_flags(const std::uint8_t* mask, std::size_t n, U* ps);

// Both folds cut [0, n) into seg_len-aligned segments, seg_len >= 1; a
// final partial segment (seg_len not dividing n) is handled -- no
// lane-width or divisibility assumption.  Neither writes rs or ps.

/// sums[g] = the sum of rs over segment g, for every g < ceil(n / seg_len).
template <BaseRank U>
void segment_sums(const U* rs, std::size_t n, std::size_t seg_len,
                  std::int64_t* sums);

/// out[e] = ps[e] + exscan_seg(rs)[e] + seg_add[e / seg_len], where
/// exscan_seg(rs)[e] is the sum of rs over the elements of e's segment
/// before e.  seg_add holds ceil(n / seg_len) per-segment addends.  out
/// must not overlap rs, ps or seg_add.
template <BaseRank U>
void segmented_prefix_fold(const U* rs, const U* ps, std::size_t n,
                           std::size_t seg_len, const std::int64_t* seg_add,
                           std::int64_t* out);

/// Entries past the selected count that segmented_prefix_fold_gather may
/// store speculatively: one eight-lane step of the vector paths.
inline constexpr std::size_t kGatherSlack = 8;

/// segmented_prefix_fold fused with a gather under a mask: the folded
/// value of each e < n with mask[e] != 0 is written, in order, to
/// out[0, k); returns k.  out needs room for min(n, k + kGatherSlack)
/// values and must not overlap rs, ps or seg_add.
template <BaseRank U>
std::size_t segmented_prefix_fold_gather(const U* rs, const U* ps,
                                         std::size_t n, std::size_t seg_len,
                                         const std::int64_t* seg_add,
                                         const std::uint8_t* mask,
                                         std::int64_t* out);

// --- packed PRS rounds -------------------------------------------------------
//
// A direct PRS round sends subcube totals, which its schedule bounds more
// tightly than the level: it packs each entry at the round's own width,
// `bits` in {1, 2, 4, 8, 16, 32, 64} and at most 8 sizeof(U).  Entry e
// occupies bits [e bits, (e + 1) bits) of the payload, least significant
// first (a byte entry is its value's low bytes, little-endian); the unused
// bits of a final partial byte are zero.  A width outside the set, or
// wider than U, throws ContractError.

/// Payload bytes of n entries packed at `bits` bits each.
constexpr std::size_t packed_bytes(std::size_t n, unsigned bits) {
  return (n * bits + 7) / 8;
}

/// Packs src[0, n) at `bits` bits into out (packed_bytes(n, bits) bytes,
/// no alignment guarantee).  An entry that does not fit its round -- at or
/// past 2^bits, or negative -- throws ContractError, naming the entry and
/// the width; out's contents are then unspecified.
template <BaseRank U>
void pack_bits(const U* src, std::size_t n, unsigned bits, std::byte* out);

/// out[e] = the e-th `bits`-bit entry of src, for e < n: the first round's
/// copy of a lower partner's payload into the prefix.
template <BaseRank U>
void unpack_bits(const std::byte* src, std::size_t n, unsigned bits, U* out);

/// dst[e] (and dst2[e] when dst2 is not null) += the e-th `bits`-bit entry
/// of src, for e < n: a PRS round folds a received payload where it lies,
/// the round that joins a lower partner's subcube into both the prefix
/// and the total.  At bits = 8 sizeof(U) the payload is U's own bytes, as
/// every PRS but the packed direct rounds sends it.  src carries no
/// alignment guarantee and overlaps neither destination; dst and dst2 do
/// not overlap.  Below int64 the add is checked: a sum that does not fit
/// U (a schedule that misstates the level's width) throws ContractError,
/// naming the width, instead of wrapping; the destinations' contents are
/// then unspecified.  int64 sums are unchecked: counts of elements never
/// approach 2^63.
template <BaseRank U>
void add_packed(U* dst, U* dst2, const std::byte* src, std::size_t n,
                unsigned bits);

// --- narrow wire entries ----------------------------------------------------
//
// UNPACK ships its requests, and the ranking narrows each level's int64
// segment totals into the next level's base ranks, as `width`-byte
// unsigned integers, width in {1, 2, 4}, when the layout proves every
// entry fits, and as int64 otherwise (width 8: signed values pass
// unchanged).  Entries are stored in host byte order.  out carries no
// alignment guarantee (a payload is a byte vector), so every path stores
// unaligned.

/// Writes src[e] + bias as the e-th width-byte entry of out, for e < n.
/// Below width 8, throws ContractError when any src[e] + bias is negative
/// or >= 2^(8 width): a value is never truncated onto the wire (out's
/// contents are then unspecified).  The sum must not overflow int64.
void narrow_to_bytes(const std::int64_t* src, std::size_t n,
                     std::size_t width, std::byte* out,
                     std::int64_t bias = 0);

// --- request runs ---------------------------------------------------------

/// The length of v's longest prefix inside [lo, hi): the first i < n with
/// v[i] < lo or v[i] >= hi, else n.  Requires lo <= hi.
std::size_t prefix_in_range(const std::int64_t* v, std::size_t n,
                            std::int64_t lo, std::int64_t hi);

// --- scalar reference implementations -------------------------------------
//
// Always compiled, never dispatched away: the parity oracle the property
// tests and benches compare against.  Each is its kernel's definition as a
// plain element-by-element loop.
namespace scalar {

std::int64_t mask_count(const std::uint8_t* mask, std::size_t n);
template <BaseRank U>
std::int64_t mask_flags(const std::uint8_t* mask, std::size_t n, U* ps);
template <BaseRank U>
void segment_sums(const U* rs, std::size_t n, std::size_t seg_len,
                  std::int64_t* sums);
template <BaseRank U>
void segmented_prefix_fold(const U* rs, const U* ps, std::size_t n,
                           std::size_t seg_len, const std::int64_t* seg_add,
                           std::int64_t* out);
template <BaseRank U>
std::size_t segmented_prefix_fold_gather(const U* rs, const U* ps,
                                         std::size_t n, std::size_t seg_len,
                                         const std::int64_t* seg_add,
                                         const std::uint8_t* mask,
                                         std::int64_t* out);
void narrow_to_bytes(const std::int64_t* src, std::size_t n,
                     std::size_t width, std::byte* out,
                     std::int64_t bias = 0);
std::size_t prefix_in_range(const std::int64_t* v, std::size_t n,
                            std::int64_t lo, std::int64_t hi);

/// Branchy reference gather over width-w elements; writes only selected
/// slots, returns the count written.
std::size_t gather(const std::uint8_t* mask, const std::byte* values,
                   std::size_t n, std::size_t width, std::byte* out);

/// Reference stop-early gather: scans until `target` selected elements
/// are found or `limit` elements examined, returns the count written.
std::size_t gather_first_n(const std::uint8_t* mask, const std::byte* values,
                           std::size_t limit, std::size_t target,
                           std::size_t width, std::byte* out);

/// Branchy reference merge over width-w elements: out[i] takes the next
/// src element where mask[i] != 0, else field[i]; returns the count
/// consumed.  Throws ContractError before reading src past src_len.
std::size_t merge(const std::uint8_t* mask, const std::byte* src,
                  std::size_t src_len, const std::byte* field, std::size_t n,
                  std::size_t width, std::byte* out);

/// Reference indexed gather over width-w elements: out[i] = base[x_i],
/// x_i the i-th index_width-byte entry of `index`; throws ContractError at
/// the first x_i >= extent, before reading it.
void index_gather(const std::byte* index, std::size_t n,
                  std::size_t index_width, const std::byte* base,
                  std::size_t extent, std::size_t width, std::byte* out);

/// Reference packed-round kernels, entry by entry.
template <BaseRank U>
void pack_bits(const U* src, std::size_t n, unsigned bits, std::byte* out);
template <BaseRank U>
void unpack_bits(const std::byte* src, std::size_t n, unsigned bits, U* out);
template <BaseRank U>
void add_packed(U* dst, U* dst2, const std::byte* src, std::size_t n,
                unsigned bits);

/// Reference run decode: one bounds check + one element copy per element,
/// mirroring the historical per-element ByteReader::get<T> loop (the
/// parity reference of run_decode below).
void run_decode(const std::byte* src, std::size_t count, std::size_t width,
                std::byte* out);

}  // namespace scalar

// --- type-erased entry points of the templates below (kernels.cpp) --------
//
// Each calls the active table's slot for `width` (1, 2, 4, 8 or 16 bytes),
// or the scalar reference for any other width.
namespace detail {

std::size_t gather_bytes(const std::uint8_t* mask, const std::byte* values,
                         std::size_t n, std::size_t width, std::byte* out);
std::size_t gather_first_n_bytes(const std::uint8_t* mask,
                                 const std::byte* values, std::size_t limit,
                                 std::size_t target, std::size_t width,
                                 std::byte* out);
std::size_t merge_bytes(const std::uint8_t* mask, const std::byte* src,
                        std::size_t src_len, const std::byte* field,
                        std::size_t n, std::size_t width, std::byte* out);
void index_gather_bytes(const std::byte* index, std::size_t n,
                        std::size_t index_width, const std::byte* base,
                        std::size_t extent, std::size_t width,
                        std::byte* out);

}  // namespace detail

// --- CMS run-length encode/decode -----------------------------------------

/// Gathers values[i] where mask[i] != 0 into out, preserving order; the
/// compaction at the heart of the CMS/CSS slice scan (the run payload the
/// compose phase emits).  Returns the number of elements written.
///
/// Contract: `out` must have room for `n` elements, not just the selected
/// count -- the branchless vector paths store speculatively and advance
/// conditionally (every pack caller hands a W_0-sized scratch slice, which
/// satisfies this by construction).
template <typename T>
std::size_t mask_gather(const std::uint8_t* mask, const T* values,
                        std::size_t n, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return detail::gather_bytes(mask, reinterpret_cast<const std::byte*>(values),
                              n, sizeof(T), reinterpret_cast<std::byte*>(out));
}

/// Stop-early variant (the paper's scanning method 1): stops once `target`
/// selected elements are collected and returns exactly
/// min(selected-in-range, target).  Same `out` capacity contract as
/// mask_gather (room for `limit` elements); vector paths may scribble up
/// to a block past the target's slot within that capacity.
template <typename T>
std::size_t mask_gather_first_n(const std::uint8_t* mask, const T* values,
                                std::size_t limit, std::size_t target,
                                T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return detail::gather_first_n_bytes(
      mask, reinterpret_cast<const std::byte*>(values), limit, target,
      sizeof(T), reinterpret_cast<std::byte*>(out));
}

/// The inverse of mask_gather, merged with the unselected slots: for each
/// i < n, out[i] takes the next element of src (in order) where
/// mask[i] != 0, else field[i].  Every slot of out is written once, so it
/// needs no clearing first.  Returns the number of src elements consumed
/// (the selected count).  src holds src_len elements and no path reads
/// past them: a mask selecting more throws ContractError first.  That is
/// what lets UNPACK place a scan-ordered value stream straight into the
/// result's fresh local storage.  out must not overlap src or field.
template <typename T>
std::size_t mask_merge(const std::uint8_t* mask, const T* src,
                       std::size_t src_len, const T* field, std::size_t n,
                       T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return detail::merge_bytes(mask, reinterpret_cast<const std::byte*>(src),
                             src_len, reinterpret_cast<const std::byte*>(field),
                             n, sizeof(T), reinterpret_cast<std::byte*>(out));
}

/// UNPACK's reply to a request stream: out[i] = base[x_i] for i < n, where
/// x_i is the i-th index_width-byte unsigned entry of `index` (1, 2, 4 or
/// 8 bytes, host byte order).  Every x_i is checked against `extent`, the
/// length of base: an index at or past it throws ContractError before
/// base is read there (out's contents are then unspecified).  index is a
/// received payload with no alignment guarantee, so every path loads it
/// unaligned; out is written with unaligned stores.
template <typename T>
void index_gather(const std::byte* index, std::size_t n,
                  std::size_t index_width, const T* base, std::size_t extent,
                  std::byte* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::index_gather_bytes(index, n, index_width,
                             reinterpret_cast<const std::byte*>(base), extent,
                             sizeof(T), out);
}

/// Unloads a CMS run payload (count contiguous elements, already validated
/// by the caller's ByteReader) into out: a single bulk copy on every path.
/// scalar::run_decode is its parity reference.
template <typename T>
void run_decode(const std::byte* src, std::size_t count, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count != 0) std::memcpy(out, src, count * sizeof(T));
}

}  // namespace pup::kernels
