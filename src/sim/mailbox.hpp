// Per-processor FIFO mailbox with (src, tag) matching.
//
// Delivery order is deterministic: messages from the same sender with the
// same tag are received in send order, which the sequential-SPMD executor
// guarantees globally as well.
#pragma once

#include <deque>
#include <optional>
#include <type_traits>

#include "sim/message.hpp"

namespace pup::sim {

// Every hand-off into and out of a mailbox -- enqueue, container growth,
// receive -- must move the Message, never copy its payload.  Nothrow moves
// are what make that guarantee hold under reallocation (containers fall
// back to copying throwing-move types).
static_assert(std::is_nothrow_move_constructible_v<Message>,
              "mailbox hand-off requires nothrow-movable messages");

/// Wildcard for receive matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class Mailbox {
 public:
  void push(Message m) { queue_.push_back(std::move(m)); }

  /// Removes and returns the first message matching (src, tag); wildcards
  /// accepted.  Returns nullopt when no message matches.
  std::optional<Message> pop(int src = kAnySource, int tag = kAnyTag);

  /// True when a matching message is queued.
  bool has(int src = kAnySource, int tag = kAnyTag) const;

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  void clear() { queue_.clear(); }

 private:
  std::deque<Message> queue_;
};

}  // namespace pup::sim
