// Cost-charging and payload-folding helpers shared by the collective
// implementations.
//
// All collectives are round-synchronized: in each round a processor sends at
// most one (coalesced) message and receives at most one.  Under the
// two-level model a full-duplex exchange round costs a processor
// tau + mu * max(bytes_sent, bytes_received); one-way tree steps charge
// tau + mu * m to both endpoints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "sim/machine.hpp"
#include "sim/message.hpp"
#include "support/check.hpp"

namespace pup::coll {

/// Charges a one-way message of `bytes` to both endpoints (sender holds the
/// channel for tau + mu*m; the receiver is blocked for the same interval).
inline void charge_oneway(sim::Machine& m, int src, int dst,
                          std::size_t bytes, sim::Category cat) {
  const double us = m.message_us(src, dst, bytes);
  m.charge(src, cat, us);
  m.charge(dst, cat, us);
}

/// Charges a full-duplex exchange round to one processor: it simultaneously
/// sends `sent` and receives `recv` bytes (either may be zero).
inline void charge_exchange(sim::Machine& m, int rank, int peer_out,
                            int peer_in, std::size_t sent, std::size_t recv,
                            sim::Category cat) {
  if (sent == 0 && recv == 0) return;
  const double out_us = sent > 0 ? m.message_us(rank, peer_out, sent) : 0.0;
  const double in_us = recv > 0 ? m.message_us(peer_in, rank, recv) : 0.0;
  m.charge(rank, cat, out_us > in_us ? out_us : in_us);
}

/// Checks that a collective over T may travel at `wire_bytes` per entry:
/// sizeof(T) always; 1, 2 or 4 only for int64 vectors (the ranking's base
/// ranks, narrowed by kernels::narrow_to_bytes).
template <typename T>
void require_wire(std::size_t wire_bytes) {
  PUP_REQUIRE(wire_bytes == sizeof(T) ||
                  (std::is_same_v<T, std::int64_t> &&
                   (wire_bytes == 1 || wire_bytes == 2 || wire_bytes == 4)),
              "a " << sizeof(T) << "-byte collective vector cannot travel at "
                   << wire_bytes << " bytes per entry");
}

/// Writes `values` onto the wire at `wire_bytes` per entry, into `out`
/// (room for values.size() * wire_bytes bytes): a copy at the element's
/// own width; narrower, the checked narrowing compose, which throws
/// ContractError rather than truncate an entry that does not fit.
template <typename T>
void narrow_into(std::span<const T> values, std::size_t wire_bytes,
                 std::byte* out) {
  if (wire_bytes == sizeof(T)) {
    if (!values.empty()) std::memcpy(out, values.data(), values.size_bytes());
    return;
  }
  if constexpr (std::is_same_v<T, std::int64_t>) {
    kernels::narrow_to_bytes(values.data(), values.size(), wire_bytes, out);
  } else {
    PUP_CHECK(false, "only int64 vectors narrow onto the wire");
  }
}

/// The payload of `values` at `wire_bytes` per entry (sim::to_payload at
/// the element's own width).
template <typename T>
std::vector<std::byte> compose_payload(std::span<const T> values,
                                       std::size_t wire_bytes) {
  if (wire_bytes == sizeof(T)) return sim::to_payload<T>(values);
  std::vector<std::byte> payload(values.size() * wire_bytes);
  narrow_into<T>(values, wire_bytes, payload.data());
  return payload;
}

/// out[j] = the j-th of `n` entries at `wire_bytes` each from `src`: a
/// copy at the element's own width, a widening copy narrower.
template <typename T>
void widen_into(const std::byte* src, std::size_t n, std::size_t wire_bytes,
                T* out) {
  if (wire_bytes == sizeof(T)) {
    if (n != 0) std::memcpy(out, src, n * sizeof(T));
    return;
  }
  if constexpr (std::is_same_v<T, std::int64_t>) {
    kernels::widen_from_bytes(out, src, n, wire_bytes);
  }
}

/// Decodes a received payload of `wire_bytes`-byte entries into `out`,
/// resized to the entry count (sim::read_payload at any wire width).
template <typename T, typename A>
void read_wire_payload(std::span<const std::byte> bytes,
                       std::size_t wire_bytes, std::vector<T, A>& out) {
  PUP_CHECK(bytes.size() % wire_bytes == 0,
            "payload of " << bytes.size() << " bytes is not a multiple of "
                          << wire_bytes);
  out.resize(bytes.size() / wire_bytes);
  widen_into<T>(bytes.data(), out.size(), wire_bytes, out.data());
}

/// Element-wise acc[j] += V[j], where V is the vector of `n` entries of
/// `wire_bytes` each carried by a received payload, read where it lies (no
/// decode copy).  A non-null `acc2` is updated in the same pass.  int64
/// vectors -- every ranking PRS -- go through kernels::add_from_bytes at
/// the wire width; other element types memcpy one element at a time.
template <typename T>
void fold_payload(const std::vector<std::byte>& payload, std::size_t n,
                  T* acc, T* acc2 = nullptr,
                  std::size_t wire_bytes = sizeof(T)) {
  static_assert(std::is_trivially_copyable_v<T>);
  PUP_CHECK(payload.size() == n * wire_bytes,
            "collective payload of " << payload.size() << " bytes, expected "
                                     << n * wire_bytes);
  const std::byte* src = payload.data();
  if constexpr (std::is_same_v<T, std::int64_t>) {
    if (acc2 != nullptr) {
      kernels::add_from_bytes(acc, acc2, src, n, wire_bytes);
    } else {
      kernels::add_from_bytes(acc, src, n, wire_bytes);
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      T v;
      std::memcpy(&v, src + j * sizeof(T), sizeof(T));
      acc[j] += v;
      if (acc2 != nullptr) acc2[j] += v;
    }
  }
}

}  // namespace pup::coll
