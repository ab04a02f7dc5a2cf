// Message envelope exchanged between virtual processors.
//
// Payloads are opaque byte vectors; typed helpers (de)serialize spans of
// trivially-copyable element types, which is all the pack/unpack runtime
// ever ships over the wire.  Payload bytes carry no alignment guarantee:
// readers memcpy or load them unaligned, never reinterpret them as T*.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace pup::sim {

/// Reserved tag for the reliable layer's retransmit requests
/// (coll/reliable.hpp).  No collective may declare it; the protocol
/// validator recognizes and exempts it from round-cardinality and
/// tag-discipline checks.
inline constexpr int kReliableNakTag = 0x7e11ab1e;

struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  std::vector<std::byte> payload;

  Message() = default;
  Message(int src_, int dst_, int tag_, std::vector<std::byte> payload_)
      : src(src_), dst(dst_), tag(tag_), payload(std::move(payload_)) {}

  // Zero-copy contract: on a clean network a payload is composed once at
  // the sender (to_payload, or a ByteWriter) and every hand-off after that
  // -- post, mailbox enqueue, epoch bookkeeping, receive -- moves it.  The
  // receiver consumes the bytes where they lie: folds read them in place
  // (kernels::add_packed), and decodes copy each element once, straight
  // into its destination (read_payload, ByteReader).  Copies are legal
  // only at the explicitly intentional sites (fault-injected duplicates,
  // epoch checkpoints, the reliable layer's retained_copies), all of which
  // are off the clean path.  The instrumented copy operations below count
  // every payload-carrying copy so tests/zero_copy_test.cpp can prove the
  // clean path performs none; moves stay defaulted and noexcept so
  // containers never silently fall back to copying.
  Message(const Message& other)
      : src(other.src),
        dst(other.dst),
        tag(other.tag),
        payload(other.payload),
        wire(other.wire) {
    note_payload_copy(other);
  }
  Message& operator=(const Message& other) {
    if (this != &other) {
      src = other.src;
      dst = other.dst;
      tag = other.tag;
      payload = other.payload;
      wire = other.wire;
      note_payload_copy(other);
    }
    return *this;
  }
  Message(Message&&) noexcept = default;
  Message& operator=(Message&&) noexcept = default;

  /// Total payload-carrying Message copies since process start (copies of
  /// empty-payload messages are free and not counted).  Monotonic; tests
  /// take deltas around a region and assert zero on clean networks.
  static std::int64_t payload_copies() {
    return copy_counter().load(std::memory_order_relaxed);
  }

  /// Out-of-band wire metadata carried alongside the payload.  Sequence
  /// number and checksum model the header a reliable transport stamps on
  /// every frame; the flags record what the fault injector did to this
  /// copy.  None of it counts toward size_bytes(), so modeled costs and
  /// trace digests are byte-identical whether or not the reliable layer
  /// is stamping frames.
  struct Wire {
    std::int64_t seq = -1;        ///< per-(src,dst,tag) channel sequence
    std::uint64_t checksum = 0;   ///< payload checksum at send time
    std::size_t orig_bytes = 0;   ///< payload size at send time
    bool retransmit = false;      ///< reposted by the reliable layer
    bool duplicate = false;       ///< extra copy injected by a fault
    bool delayed = false;         ///< held back by a delay fault
    bool truncated = false;       ///< payload cut short by a fault
  };
  Wire wire;

  std::size_t size_bytes() const { return payload.size(); }

 private:
  static std::atomic<std::int64_t>& copy_counter() {
    static std::atomic<std::int64_t> counter{0};
    return counter;
  }
  static void note_payload_copy(const Message& src_msg) {
    if (!src_msg.payload.empty()) {
      copy_counter().fetch_add(1, std::memory_order_relaxed);
    }
  }
};

// The move-only hand-off depends on these: a throwing move constructor
// would make mailbox/channel containers copy during reallocation.
static_assert(std::is_nothrow_move_constructible_v<Message>,
              "Message must be nothrow-move-constructible");
static_assert(std::is_nothrow_move_assignable_v<Message>,
              "Message must be nothrow-move-assignable");

/// FNV-1a over the payload bytes; what the reliable layer stamps into
/// Wire::checksum so truncation/corruption is detectable on receive.
inline std::uint64_t payload_checksum(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Serializes a span of trivially-copyable values into a payload: the
/// vector is built from the source bytes in one pass (no zero-fill first).
template <typename T>
std::vector<std::byte> to_payload(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>,
                "message payloads must be trivially copyable");
  const auto* first = reinterpret_cast<const std::byte*>(values.data());
  return std::vector<std::byte>(first, first + values.size_bytes());
}

/// Copies a payload of whole T elements straight into `out`, resized to
/// the element count: the receive side's one copy, with no intermediate
/// vector.  Collectives that only fold a payload read it where it lies
/// instead (kernels::add_packed).
template <typename T, typename A>
void read_payload(std::span<const std::byte> bytes, std::vector<T, A>& out) {
  static_assert(std::is_trivially_copyable_v<T>,
                "message payloads must be trivially copyable");
  PUP_REQUIRE(bytes.size() % sizeof(T) == 0,
              "payload of " << bytes.size() << " bytes is not a multiple of "
                            << sizeof(T));
  out.resize(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
}

}  // namespace pup::sim
