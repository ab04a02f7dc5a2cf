// Reliable point-to-point delivery for the collective schedules.
//
// The fault injector (sim/fault.hpp) can drop, duplicate, delay, or
// truncate any message at the transport boundary; without recovery a single
// lost message turns the next required receive into a ContractError.  This
// layer makes every collective survive an arbitrary fault schedule while
// keeping the zero-fault path bit-identical to the raw transport:
//
//   * Sequence numbers.  Each (src, dst, tag) channel carries a
//     monotonically increasing sequence stamped into Message::wire along
//     with a payload checksum -- out-of-band metadata, so payload sizes,
//     modeled costs, and trace digests are unchanged.
//   * Acknowledgement.  Delivery is acknowledged implicitly: the channel's
//     delivered-sequence watermark advances when the receiver accepts a
//     frame, and the sender's retransmit buffer is pruned against it.  This
//     models piggybacked acks riding the round-synchronized schedules --
//     the paper's collectives are globally scheduled, so a standalone ack
//     frame would add a tau startup per message and break the "reliability
//     is free when the network is clean" property that
//     ReliableTransport.ZeroFaultPathIsDigestIdenticalToBaseline
//     (tests/reliable_transport_test.cpp) asserts.
//   * Bounded retry with exponential backoff.  A receiver that cannot
//     produce the next expected frame charges itself a timeout
//     (timeout_factor * tau, doubling per attempt), posts a NAK
//     (sim::kReliableNakTag) back to the sender, and the sender retransmits
//     the requested frame; both the NAK and the retransmission are charged
//     the real tau + mu*m so degradation under faults is measurable.  After
//     max_attempts timeouts the receiver raises TransportError.
//   * Heartbeats.  A fail-stop dead rank (a `kill` fault rule fired) stops
//     sending; a receiver waiting on a frame from a dead sender detects the
//     death through a modeled heartbeat timeout (heartbeat_factor * tau,
//     charged once) and raises RankFailure -- a typed subclass of
//     TransportError -- instead of burning the retry budget NAKing a
//     corpse.  Detection is deterministic from the lowest surviving group
//     position.
//   * Dedup.  Frames below the delivered watermark (fault duplicates, late
//     delayed copies, redundant retransmissions) are discarded on receive;
//     frames whose checksum or length does not match their header
//     (truncation) are discarded and recovered like drops.
//
// Determinism: everything runs on the calling thread in schedule order and
// all randomness lives in the seeded FaultPlan, so retransmission counts
// and even the failing rank of an exhausted retry are reproducible.  The
// collectives' receive loops scan group indices in ascending order, so --
// matching the threaded engine's lowest-rank-wins convention -- the
// TransportError that escapes a run is always the one from the lowest
// failing group position.
//
// Enablement: the layer activates automatically whenever the machine has a
// fault plan installed, and can be forced on or off with
// ReliableTransport::force().  When inactive, rpost/rrecv/rexpect forward
// straight to the raw transport.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "sim/machine.hpp"
#include "sim/message.hpp"
#include "support/check.hpp"

namespace pup::coll {

/// Raised when a receiver exhausts its retransmission budget.  Deterministic
/// for a fixed seed/workload: the same rank gives up on the same channel
/// after the same number of attempts in every run.
class TransportError : public std::runtime_error {
 public:
  TransportError(int rank, int src, int tag, std::int64_t seq, int attempts);

  int rank() const { return rank_; }
  int src() const { return src_; }
  int tag() const { return tag_; }
  std::int64_t seq() const { return seq_; }
  int attempts() const { return attempts_; }

 protected:
  /// For subclasses that supply their own message text.
  TransportError(const std::string& what, int rank, int src, int tag,
                 std::int64_t seq, int attempts);

 private:
  int rank_;
  int src_;
  int tag_;
  std::int64_t seq_;
  int attempts_;
};

/// Raised when a receiver's modeled heartbeat times out because the frame's
/// sender is fail-stop dead (a `kill` rule of the fault plan fired).  A
/// subclass of TransportError so existing retry-budget handling catches it;
/// the extra accessor names the dead rank.  Deterministic: the collectives'
/// receive loops scan group positions in ascending order, so the failure is
/// always detected (and thrown) from the lowest surviving group position
/// waiting on the dead rank.
class RankFailure : public TransportError {
 public:
  RankFailure(int rank, int failed_rank, int tag, std::int64_t seq);

  /// The dead rank (same as src(); named for intent at catch sites).
  int failed_rank() const { return src(); }
  /// The surviving rank whose heartbeat detected the death (same as
  /// rank()).
  int detected_by() const { return rank(); }
};

struct ReliableOptions {
  /// Receive attempts (timeout + NAK cycles) before TransportError.
  int max_attempts = 8;
  /// First timeout, as a multiple of the machine's tau.
  double timeout_factor = 2.0;
  /// Timeout multiplier per further attempt (exponential backoff).
  double backoff = 2.0;
  /// Ceiling on the cumulative backoff multiplier: the modeled timeout for
  /// attempt k is tau * min(timeout_factor * backoff^(k-1),
  /// max_timeout_factor).  Without the clamp the pow() grows without bound
  /// -- at high attempt counts (configurable max_attempts, retry storms) it
  /// overflows to inf and a single modeled timeout swallows the whole run's
  /// time budget.  The default ceiling (1024) is far above what the default
  /// budget can reach (timeout_factor 2 * backoff 2^7 = 256 at the 8th and
  /// last attempt), so existing modeled results are unchanged.
  double max_timeout_factor = 1024.0;
  /// Modeled heartbeat timeout (multiple of tau) charged when a receiver
  /// detects that the sender of the frame it is waiting for is fail-stop
  /// dead; detection raises RankFailure immediately instead of burning the
  /// whole retry budget on a corpse.
  double heartbeat_factor = 2.0;
};

struct ReliableStats {
  std::int64_t data_sent = 0;      ///< frames stamped and posted
  std::int64_t retained_copies = 0;  ///< retransmit copies buffered (faulty
                                     ///< networks only; zero when clean)
  std::int64_t retransmits = 0;    ///< frames reposted after a NAK
  std::int64_t naks = 0;           ///< retransmit requests posted
  std::int64_t dedup_discarded = 0;    ///< late duplicates thrown away
  std::int64_t corrupt_discarded = 0;  ///< checksum/length mismatches
  std::int64_t drained = 0;        ///< stale frames swept at collective end
  std::int64_t heartbeat_timeouts = 0;  ///< dead senders detected
};

class ReliableTransport {
 public:
  /// The per-machine instance, created on first use and stored in the
  /// machine's opaque reliable_state() slot so every collective running on
  /// one machine shares a single sequence-number space.
  static ReliableTransport& of(sim::Machine& m);

  /// True when frames are being stamped and recovered on this machine:
  /// the forced state if set, else "a fault plan is installed".  Decide
  /// before the first post on a machine and leave it alone; toggling
  /// mid-run desynchronizes the sequence space.
  bool active(const sim::Machine& m) const;

  /// Overrides auto-detection (std::nullopt returns to auto).
  void force(std::optional<bool> on) { forced_ = on; }

  ReliableOptions& options() { return opts_; }
  const ReliableStats& stats() const { return stats_; }

  /// The clamped backoff multiplier for receive attempt `attempt` (1-based):
  /// min(timeout_factor * backoff^(attempt-1), max_timeout_factor), with
  /// non-finite intermediates (overflow at extreme attempt counts) also
  /// clamped to the ceiling.  Exposed for the regression tests; recv()'s
  /// modeled timeouts are tau * this.
  static double backoff_factor(const ReliableOptions& opts, int attempt);

  /// Posts a data frame: stamps sequence/checksum into Message::wire and
  /// forwards to Machine::post by move.  A retransmit copy of the payload
  /// is buffered only when the machine has a fault plan installed -- on a
  /// clean network (including force(true) on a fault-free machine) no
  /// frame can be lost, so no NAK can ever request one and the copy would
  /// be pure churn.  The wire header is stamped before the move, so the
  /// checksum always describes the payload as posted; the only later
  /// mutator (fault truncation) runs below this seam and deliberately
  /// leaves the header describing the original bytes, which is what
  /// intact() verifies.  Inactive: a plain post.
  void post(sim::Machine& m, sim::Message msg, sim::Category cat);

  /// Receives the next in-sequence frame on (src -> rank, tag), recovering
  /// from drops/duplicates/delays/truncation via timeout + NAK +
  /// retransmission.  Throws TransportError after max_attempts timeouts.
  /// Inactive: Machine::receive_required.
  sim::Message recv(sim::Machine& m, int rank, int src, int tag,
                    sim::Category cat);

  /// True when (src -> rank, tag) still owes the receiver a frame.  The
  /// raw-transport has_message() cannot distinguish "nothing was sent" from
  /// "the frame was dropped", so data-dependent receive loops consult the
  /// channel watermarks instead.  Inactive: Machine::has_message.
  bool expecting(const sim::Machine& m, int rank, int src, int tag) const;

  /// End-of-collective sweep: releases any still-delayed messages and
  /// discards stale traffic (late duplicates, redundant retransmissions,
  /// unanswered NAKs) so the machine's mailboxes are empty when the
  /// collective's scope closes -- exactly what the protocol validator's
  /// drain checks and Machine::reset_accounting demand.  A swept data
  /// frame above its channel's delivered watermark is a protocol bug and
  /// fails a PUP_CHECK.  Inactive: no-op.
  void drain(sim::Machine& m);

 private:
  /// (src, dst, tag) -> reliable channel state.
  using ChannelKey = std::tuple<int, int, int>;
  struct Channel {
    std::int64_t sent = 0;       ///< highest sequence stamped
    std::int64_t delivered = 0;  ///< highest sequence accepted by receiver
    std::deque<sim::Message> unacked;  ///< retransmit copies, seq ascending
  };

  double timeout_us(const sim::Machine& m, int attempt) const;
  void send_nak(sim::Machine& m, int rank, int src, int tag,
                std::int64_t seq, sim::Category cat);
  /// Processes every queued NAK at `sender`, retransmitting the requested
  /// frames (charged tau + mu*m at both endpoints).
  void service_naks(sim::Machine& m, int sender, sim::Category cat);
  static bool intact(const sim::Message& msg);

  std::optional<bool> forced_;
  ReliableOptions opts_;
  ReliableStats stats_;
  std::map<ChannelKey, Channel> channels_;
  /// Frames that overtook a lost earlier sequence, parked until their turn.
  std::map<std::tuple<int, int, int, std::int64_t>, sim::Message> stash_;
};

// Thin entry points used by the collective implementations; reads as
// "reliable post/recv/expect/drain".

inline void rpost(sim::Machine& m, sim::Message msg, sim::Category cat) {
  ReliableTransport::of(m).post(m, std::move(msg), cat);
}

inline sim::Message rrecv(sim::Machine& m, int rank, int src, int tag,
                          sim::Category cat) {
  return ReliableTransport::of(m).recv(m, rank, src, tag, cat);
}

inline bool rexpect(sim::Machine& m, int rank, int src, int tag) {
  return ReliableTransport::of(m).expecting(m, rank, src, tag);
}

inline void rdrain(sim::Machine& m) { ReliableTransport::of(m).drain(m); }

}  // namespace pup::coll
