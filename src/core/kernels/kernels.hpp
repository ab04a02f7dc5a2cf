// Vectorized local kernels for the hot pack/unpack loops.
//
// The paper's comparative claims rest on *measured local computation*
// (Figs. 3-5), and four loop shapes dominate it: the masked count/scan of
// the initial ranking step, the segmented exclusive prefix sums over the
// PS_i/RS_i base-rank arrays, the CMS run-length encode (gathering a
// slice's selected values into a run payload) / decode (unloading a run
// into the result vector), and UNPACK's masked expand (placing a
// scan-ordered value stream into the selected slots).  This layer provides
// one scalar reference and one vectorized implementation of each, selected
// at runtime:
//
//   * kScalar  -- the reference loops, bit-identical to the historical
//                 code.  Always available; the parity oracle for tests.
//   * kGeneric -- portable SWAR (8-byte word tricks) plus
//                 compiler-vectorized loops under PUP_KERNELS_IVDEP
//                 pragmas.  The fallback when no native ISA path applies.
//   * kNative  -- AVX2 (compiled with -mavx2 into this translation unit
//                 only, runtime-gated on cpuid) or NEON intrinsics.
//
// Selection: the PUP_SIMD knob from the read-once env snapshot
// (support/env.hpp).  "off"/"0"/"scalar" forces kScalar; "on"/"1"/"simd"
// and the default "auto" pick the best vector path.  Every kernel computes
// exact integer (or memcpy'd) results, so the choice can never change a
// payload byte, a modeled charge, or a trace digest -- only the real wall
// clock charged to local computation.  tests/simd_kernels_test.cpp holds
// the bit-identity property; bench/micro_kernels.cpp gates the speedup.
//
// Layering (lint-enforced, "kernels-layering"): this directory may include
// only support/ and its own headers.  Kernels know nothing of machines,
// distributions, or plans -- callers hand them raw spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "support/check.hpp"

namespace pup::kernels {

/// Implementation paths, from reference to most specialized.
enum class Path {
  kScalar,   ///< reference loops (the historical code)
  kGeneric,  ///< portable SWAR + compiler-vectorized loops
  kNative,   ///< AVX2 / NEON intrinsics (when compiled in and cpu-supported)
};

/// Human-readable name ("scalar", "generic", "avx2", "neon").  kNative
/// resolves to the ISA actually compiled in.
const char* path_name(Path p);

/// True when a native ISA path is compiled in and the running CPU
/// supports it.
bool native_available();

/// The path every kernel dispatches through: a test override when forced,
/// else PUP_SIMD from the env snapshot ("off" -> kScalar; "on"/"auto" ->
/// kNative when available, else kGeneric).  Unknown PUP_SIMD values throw
/// ContractError -- an experiment must never silently run the wrong
/// kernels.
Path active_path();

/// True when active_path() is a vector path (callers that keep their
/// scalar loop inline branch on this instead of duplicating dispatch).
inline bool vectorized() { return active_path() != Path::kScalar; }

/// Pins active_path() for in-process tests and benches (nullopt returns
/// to PUP_SIMD resolution, re-reading the env snapshot).  Same
/// thread-safety contract as support::Env::override_for_testing: call only
/// from single-threaded sections.
void force_path_for_testing(std::optional<Path> p);

/// PUP_SIMD value -> "vector paths enabled".  Exposed for unit tests;
/// throws ContractError on unrecognized spellings.
bool parse_simd_flag(const std::optional<std::string>& value);

// --- masked count/scan ----------------------------------------------------

/// Number of nonzero bytes in mask[0, n): the per-slice count of the
/// initial ranking scan and the COUNT reduction.
std::int64_t mask_count(const std::uint8_t* mask, std::size_t n);

// --- segmented exclusive prefix sum ---------------------------------------

/// In-place segmented exclusive prefix sum: within each seg_len-aligned
/// segment, data[e] becomes the sum of the segment's elements before e
/// (ranking substeps 2.2-2.3 over RS_i).  seg_len >= 1; a final partial
/// segment (seg_len not dividing n) is handled -- no lane-width or
/// divisibility assumption.
void segmented_exclusive_prefix(std::int64_t* data, std::size_t n,
                                std::size_t seg_len);

/// Element-wise dst[e] += src[e] (ranking substep 2.4, PS_i += RS_i).
void add_in_place(std::int64_t* dst, const std::int64_t* src, std::size_t n);

// --- scalar reference implementations -------------------------------------
//
// Always compiled, never dispatched away: the parity oracle the property
// tests and benches compare against.  These are the historical loops.
namespace scalar {

std::int64_t mask_count(const std::uint8_t* mask, std::size_t n);
void segmented_exclusive_prefix(std::int64_t* data, std::size_t n,
                                std::size_t seg_len);
void add_in_place(std::int64_t* dst, const std::int64_t* src, std::size_t n);

/// Branchy reference gather over width-w elements; writes only selected
/// slots, returns the count written.
std::size_t gather(const std::uint8_t* mask, const std::byte* values,
                   std::size_t n, std::size_t width, std::byte* out);

/// Reference stop-early gather: scans until `target` selected elements
/// are found or `limit` elements examined, returns the count written.
std::size_t gather_first_n(const std::uint8_t* mask, const std::byte* values,
                           std::size_t limit, std::size_t target,
                           std::size_t width, std::byte* out);

/// Branchy reference expand over width-w elements: for each selected slot
/// i, out[i] takes the next src element; returns the count consumed.
std::size_t expand(const std::uint8_t* mask, const std::byte* src,
                   std::size_t n, std::size_t width, std::byte* out);

/// Reference run decode: one bounds check + one element copy per element,
/// mirroring the historical per-element ByteReader::get<T> loop.
void run_decode(const std::byte* src, std::size_t count, std::size_t width,
                std::byte* out);

}  // namespace scalar

// --- type-erased vector implementations (kernels.cpp) ---------------------
namespace detail {

std::size_t gather_bytes(const std::uint8_t* mask, const std::byte* values,
                         std::size_t n, std::size_t width, std::byte* out);
std::size_t gather_first_n_bytes(const std::uint8_t* mask,
                                 const std::byte* values, std::size_t limit,
                                 std::size_t target, std::size_t width,
                                 std::byte* out);
std::size_t expand_bytes(const std::uint8_t* mask, const std::byte* src,
                         std::size_t n, std::size_t width, std::byte* out);

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
  if (active_path() == Path::kScalar) {
    return scalar::gather(mask, reinterpret_cast<const std::byte*>(values), n,
                          sizeof(T), reinterpret_cast<std::byte*>(out));
  }
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
  if (active_path() == Path::kScalar) {
    return scalar::gather_first_n(mask,
                                  reinterpret_cast<const std::byte*>(values),
                                  limit, target, sizeof(T),
                                  reinterpret_cast<std::byte*>(out));
  }
  return detail::gather_first_n_bytes(
      mask, reinterpret_cast<const std::byte*>(values), limit, target,
      sizeof(T), reinterpret_cast<std::byte*>(out));
}

/// The inverse of mask_gather: for each i < n with mask[i] != 0, out[i]
/// takes the next element of src, in order; unselected slots keep their
/// value.  Returns the number of src elements consumed (the selected
/// count).  src needs room only for that count -- no path reads past it --
/// which is what lets UNPACK place a scan-ordered value stream straight
/// into the result's local storage.
template <typename T>
std::size_t mask_expand(const std::uint8_t* mask, const T* src, std::size_t n,
                        T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (active_path() == Path::kScalar) {
    return scalar::expand(mask, reinterpret_cast<const std::byte*>(src), n,
                          sizeof(T), reinterpret_cast<std::byte*>(out));
  }
  return detail::expand_bytes(mask, reinterpret_cast<const std::byte*>(src),
                              n, sizeof(T), reinterpret_cast<std::byte*>(out));
}

/// Unloads a CMS run payload (count contiguous elements, already validated
/// by the caller's ByteReader) into out: a single bulk copy.  The scalar
/// reference path lives in the callers (per-element ByteReader::get), so
/// this kernel is the vector half only.
template <typename T>
void run_decode(const std::byte* src, std::size_t count, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count != 0) std::memcpy(out, src, count * sizeof(T));
}

}  // namespace pup::kernels
