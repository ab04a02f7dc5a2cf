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

/// Element-wise acc[j] += V[j], where V is the vector of `n` entries of T
/// at `src`: a received payload read where it lies (no decode copy), or a
/// vector's own bytes.  A non-null `acc2` is updated in the same pass.
/// Base-rank vectors -- every ranking PRS, at its level's width -- go
/// through kernels::add_packed at T's own width, whose add is checked
/// below int64: a sum that outgrows the element throws ContractError
/// instead of wrapping.  Other element types memcpy one element at a time.
template <typename T>
void fold_entries(const std::byte* src, std::size_t n, T* acc,
                  T* acc2 = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (kernels::BaseRank<T>) {
    kernels::add_packed<T>(acc, acc2, src, n, 8 * sizeof(T));
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      T v;
      std::memcpy(&v, src + j * sizeof(T), sizeof(T));
      acc[j] += v;
      if (acc2 != nullptr) acc2[j] += v;
    }
  }
}

/// fold_entries over a received payload, which must hold exactly n entries.
template <typename T>
void fold_payload(const std::vector<std::byte>& payload, std::size_t n,
                  T* acc, T* acc2 = nullptr) {
  PUP_CHECK(payload.size() == n * sizeof(T),
            "collective payload of " << payload.size() << " bytes, expected "
                                     << n * sizeof(T));
  fold_entries<T>(payload.data(), n, acc, acc2);
}

}  // namespace pup::coll
