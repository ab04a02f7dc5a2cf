#include "coll/reliable.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "sim/fault.hpp"

namespace pup::coll {
namespace {

std::string transport_error_message(int rank, int src, int tag,
                                    std::int64_t seq, int attempts) {
  std::ostringstream os;
  os << "reliable transport: rank " << rank
     << " gave up waiting for frame seq=" << seq << " from src=" << src
     << " tag=" << tag << " after " << attempts << " attempts";
  return os.str();
}

std::string rank_failure_message(int rank, int failed_rank, int tag,
                                 std::int64_t seq) {
  std::ostringstream os;
  os << "rank failure: rank " << rank << " declared rank " << failed_rank
     << " dead (heartbeat timeout waiting for frame seq=" << seq
     << " tag=" << tag << ')';
  return os.str();
}

/// The machine's fault plan, or nullptr -- the only question the reliable
/// layer ever asks it is "is this rank fail-stop dead?".
const sim::FaultPlan* fault_plan(const sim::Machine& m) {
  return m.fault_plan();
}

}  // namespace

TransportError::TransportError(int rank, int src, int tag, std::int64_t seq,
                               int attempts)
    : TransportError(transport_error_message(rank, src, tag, seq, attempts),
                     rank, src, tag, seq, attempts) {}

TransportError::TransportError(const std::string& what, int rank, int src,
                               int tag, std::int64_t seq, int attempts)
    : std::runtime_error(what),
      rank_(rank),
      src_(src),
      tag_(tag),
      seq_(seq),
      attempts_(attempts) {}

RankFailure::RankFailure(int rank, int failed_rank, int tag, std::int64_t seq)
    : TransportError(rank_failure_message(rank, failed_rank, tag, seq), rank,
                     failed_rank, tag, seq, /*attempts=*/1) {}

ReliableTransport& ReliableTransport::of(sim::Machine& m) {
  auto& slot = m.reliable_state();
  if (slot == nullptr) {
    slot = std::static_pointer_cast<void>(
        std::make_shared<ReliableTransport>());
    // Epoch checkpoints need to deep-copy the opaque slot; sim/ cannot
    // know this type, so register the clone function here.
    m.set_reliable_cloner([](const void* p) {
      return std::static_pointer_cast<void>(std::make_shared<ReliableTransport>(
          *static_cast<const ReliableTransport*>(p)));
    });
  }
  return *static_cast<ReliableTransport*>(slot.get());
}

bool ReliableTransport::active(const sim::Machine& m) const {
  return forced_.value_or(m.fault_plan() != nullptr);
}

double ReliableTransport::backoff_factor(const ReliableOptions& opts,
                                         int attempt) {
  const double factor =
      opts.timeout_factor * std::pow(opts.backoff, attempt - 1);
  // pow() overflows to inf (or produces NaN from degenerate option values)
  // long before attempt counts any retry storm can reach; the ceiling keeps
  // one modeled timeout from swallowing the run's entire time budget.
  if (!std::isfinite(factor) || factor > opts.max_timeout_factor) {
    return opts.max_timeout_factor;
  }
  return factor;
}

double ReliableTransport::timeout_us(const sim::Machine& m,
                                     int attempt) const {
  return m.cost().tau_us * backoff_factor(opts_, attempt);
}

bool ReliableTransport::intact(const sim::Message& msg) {
  return msg.payload.size() == msg.wire.orig_bytes &&
         sim::payload_checksum(msg.payload) == msg.wire.checksum;
}

void ReliableTransport::post(sim::Machine& m, sim::Message msg,
                             sim::Category cat) {
  if (!active(m)) {
    m.post(std::move(msg), cat);
    return;
  }
  PUP_REQUIRE(msg.tag != sim::kReliableNakTag,
              "tag 0x" << std::hex << sim::kReliableNakTag
                       << " is reserved for the reliable layer");
  Channel& ch = channels_[{msg.src, msg.dst, msg.tag}];
  msg.wire.seq = ++ch.sent;
  msg.wire.orig_bytes = msg.payload.size();
  msg.wire.checksum = sim::payload_checksum(msg.payload);
  if (m.fault_plan() != nullptr) {
    // Retransmit copy, pruned by the ack watermark.  Only a faulty network
    // can lose a frame and NAK for it; on a clean network the message
    // travels to the mailbox by move with zero payload copies.
    ch.unacked.push_back(msg);
    ++stats_.retained_copies;
  }
  ++stats_.data_sent;
  m.post(std::move(msg), cat);
}

sim::Message ReliableTransport::recv(sim::Machine& m, int rank, int src,
                                     int tag, sim::Category cat) {
  if (!active(m)) return m.receive_required(rank, src, tag);
  PUP_REQUIRE(src != sim::kAnySource && tag != sim::kAnyTag,
              "reliable receive needs a concrete (src, tag) channel");
  Channel& ch = channels_[{src, rank, tag}];
  const std::int64_t want = ch.delivered + 1;
  PUP_CHECK(ch.sent >= want, "rank " << rank << " waits for frame seq="
                                     << want << " from src=" << src
                                     << " tag=" << tag
                                     << " that was never sent");
  int attempts = 0;
  for (;;) {
    while (auto got = m.receive(rank, src, tag)) {
      sim::Message& msg = *got;
      PUP_CHECK(msg.wire.seq >= 1,
                "unsequenced message on reliable channel src="
                    << src << " dst=" << rank << " tag=" << tag);
      if (!intact(msg)) {
        // Truncated/corrupt frame: discard and recover like a drop.
        ++stats_.corrupt_discarded;
        annotate_event(m, "reliable.corrupt");
        continue;
      }
      if (msg.wire.seq < want) {
        // A fault duplicate, late delayed copy, or redundant retransmission
        // of a frame already delivered.
        ++stats_.dedup_discarded;
        annotate_event(m, "reliable.dedup");
        continue;
      }
      if (msg.wire.seq > want) {
        // Overtook a lost earlier frame; park it until its turn.  A copy
        // already parked (duplicated fault on an overtaking frame) is
        // redundant.
        const bool parked =
            stash_
                .emplace(std::make_tuple(src, rank, tag, msg.wire.seq),
                         std::move(msg))
                .second;
        if (!parked) {
          ++stats_.dedup_discarded;
          annotate_event(m, "reliable.dedup");
        }
        continue;
      }
      ch.delivered = want;
      while (!ch.unacked.empty() && ch.unacked.front().wire.seq <= want) {
        ch.unacked.pop_front();
      }
      return std::move(msg);
    }
    if (auto it = stash_.find(std::make_tuple(src, rank, tag, want));
        it != stash_.end()) {
      sim::Message msg = std::move(it->second);
      stash_.erase(it);
      ch.delivered = want;
      while (!ch.unacked.empty() && ch.unacked.front().wire.seq <= want) {
        ch.unacked.pop_front();
      }
      return msg;
    }
    if (const sim::FaultPlan* plan = fault_plan(m);
        plan != nullptr && plan->is_dead(src)) {
      // The frame can never arrive: its sender is fail-stop dead and every
      // retransmission would vanish at the transport boundary.  One
      // modeled heartbeat timeout detects the death; the typed failure
      // lets the operation-level recovery layer roll back and re-execute.
      ++stats_.heartbeat_timeouts;
      annotate_event(m, "reliable.heartbeat");
      m.charge(rank, cat, m.cost().tau_us * opts_.heartbeat_factor);
      throw RankFailure(rank, src, tag, want);
    }
    ++attempts;
    if (attempts >= opts_.max_attempts) {
      throw TransportError(rank, src, tag, want, attempts);
    }
    // Modeled timeout (exponential backoff), then ask for a repeat.
    m.charge(rank, cat, timeout_us(m, attempts));
    send_nak(m, rank, src, tag, want, cat);
    service_naks(m, src, cat);
  }
}

void ReliableTransport::send_nak(sim::Machine& m, int rank, int src, int tag,
                                 std::int64_t seq, sim::Category cat) {
  const std::int64_t body[2] = {static_cast<std::int64_t>(tag), seq};
  sim::Message nak{rank, src, sim::kReliableNakTag,
                   sim::to_payload<std::int64_t>({body, 2})};
  nak.wire.seq = 0;  // NAKs are fire-and-forget, outside the sequence space
  nak.wire.orig_bytes = nak.payload.size();
  nak.wire.checksum = sim::payload_checksum(nak.payload);
  ++stats_.naks;
  annotate_event(m, "reliable.nak");
  // Control traffic pays the same two-level cost as data.
  const double us = m.message_us(rank, src, nak.payload.size());
  m.charge(rank, cat, us);
  m.charge(src, cat, us);
  m.post(std::move(nak), cat);  // itself subject to fault injection
}

void ReliableTransport::service_naks(sim::Machine& m, int sender,
                                     sim::Category cat) {
  // A dead sender services nothing: its retransmissions would be discarded
  // at the transport boundary anyway, and charging tau + mu*m for frames a
  // corpse never sends would distort the modeled cost.  The unanswered
  // NAKs stay queued; the receiver's next cycle detects the death.
  if (const sim::FaultPlan* plan = fault_plan(m);
      plan != nullptr && plan->is_dead(sender)) {
    return;
  }
  while (auto got =
             m.receive(sender, sim::kAnySource, sim::kReliableNakTag)) {
    const sim::Message& nak = *got;
    // A truncated/corrupt NAK is ignored; the receiver's next backoff
    // cycle sends another.
    if (!intact(nak) || nak.payload.size() != 2 * sizeof(std::int64_t)) {
      ++stats_.corrupt_discarded;
      annotate_event(m, "reliable.corrupt");
      continue;
    }
    std::int64_t body[2];
    std::memcpy(body, nak.payload.data(), sizeof(body));
    const int tag = static_cast<int>(body[0]);
    const std::int64_t seq = body[1];
    const auto it = channels_.find({sender, nak.src, tag});
    if (it == channels_.end()) continue;
    Channel& ch = it->second;
    // Stale request (a duplicated or delayed NAK for an already-delivered
    // frame): nothing to do.
    if (seq <= ch.delivered) continue;
    for (const sim::Message& buffered : ch.unacked) {
      if (buffered.wire.seq != seq) continue;
      sim::Message copy = buffered;
      copy.wire.retransmit = true;
      copy.wire.duplicate = false;
      copy.wire.delayed = false;
      copy.wire.truncated = false;
      ++stats_.retransmits;
      annotate_event(m, "reliable.retransmit");
      const double us = m.message_us(sender, nak.src, copy.payload.size());
      m.charge(sender, cat, us);
      m.charge(nak.src, cat, us);
      m.post(std::move(copy), cat);  // may be faulted again; the receiver
                                     // will NAK again if so
      break;
    }
  }
}

bool ReliableTransport::expecting(const sim::Machine& m, int rank, int src,
                                  int tag) const {
  if (!active(m)) return m.has_message(rank, src, tag);
  const auto it = channels_.find({src, rank, tag});
  return it != channels_.end() && it->second.sent > it->second.delivered;
}

void ReliableTransport::drain(sim::Machine& m) {
  if (!active(m)) return;
  // Nothing may stay parked across collectives: a stashed frame that never
  // came up for delivery means a receive loop exited early.
  PUP_CHECK(stash_.empty(),
            "reliable transport: " << stash_.size()
                                   << " out-of-order frame(s) never "
                                      "delivered at collective drain");
  m.flush_delayed();
  for (int rank = 0; rank < m.nprocs(); ++rank) {
    while (auto nak =
               m.receive(rank, sim::kAnySource, sim::kReliableNakTag)) {
      ++stats_.drained;
      annotate_event(m, "reliable.drain");
    }
  }
  for (auto& [key, ch] : channels_) {
    const auto& [src, dst, tag] = key;
    while (m.has_message(dst, src, tag)) {
      const sim::Message msg = m.receive_required(dst, src, tag);
      PUP_CHECK(msg.wire.seq <= ch.delivered,
                "reliable transport: undelivered frame seq="
                    << msg.wire.seq << " (src=" << src << " dst=" << dst
                    << " tag=" << tag
                    << ") swept at collective drain -- protocol bug");
      ++stats_.drained;
      annotate_event(m, "reliable.drain");
    }
  }
}

}  // namespace pup::coll
