// Epoch checkpoints: cheap snapshot/rollback of the machine's modeled state.
//
// An epoch is one attempt at a transformational operation (PACK/UNPACK or a
// collective sequence).  Machine::checkpoint_epoch() captures everything the
// simulator models -- mailboxes, per-processor clocks, the message trace,
// the delayed-fault queue, the reliable transport's per-channel sequence
// state, and the modeled-charge totals -- into an immutable EpochCheckpoint;
// Machine::rollback_epoch() restores it bit for bit.  What is deliberately
// NOT captured:
//
//   * the FaultPlan (RNG stream, kill countdowns, dead-rank set): rolling
//     the injector back would replay the exact faults that aborted the
//     epoch, so recovery could never converge.  The resilient executor
//     (plan/resilient.hpp) swaps the plan out across a retry instead.
//   * real wall-clock buckets are restored along with the modeled ones
//     (they live in the same TimeBreakdown), which is fine: determinism
//     digests exclude them by construction.
//   * the attached observers: validators and digest recorders live
//     outside the epoch and learn about it through the typed
//     MachineObserver::on_checkpoint / on_rollback hooks instead.
//
// Checkpoints are snapshots, not journals: taking one is O(state), rolling
// back is O(state), and one checkpoint survives any number of rollbacks
// (the reliable-transport snapshot is re-cloned on every restore).  The
// mailbox snapshots are intentional Message *copies* -- they register on
// the zero-copy counter (sim/message.hpp) but sit off the clean send/
// receive path.  Per-rank payload arenas are NOT part of the snapshot:
// they hold only value-free buffer capacity, so rollback purges them
// (support/arena.hpp documents why that is always correct).
//
// Layering: this header may be included only by src/sim/, the reliable
// layer (src/coll/reliable.*), and the recovery executor
// (src/plan/resilient.*) -- enforced by tools/lint.py.  Everything else
// observes epochs through the observer hooks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/timing.hpp"
#include "sim/trace.hpp"

namespace pup::sim {

class Machine;

/// Opaque snapshot of one machine's modeled state; produced by
/// Machine::checkpoint_epoch() and consumed by Machine::rollback_epoch().
/// Immutable after capture.
class EpochCheckpoint {
 public:
  /// Monotonic per-machine checkpoint number (1-based).
  std::int64_t sequence() const { return sequence_; }

 private:
  friend class Machine;

  std::int64_t sequence_ = 0;
  std::vector<Mailbox> mailboxes;
  std::vector<TimeBreakdown> times;
  Trace trace{1};
  std::vector<Message> delayed_msgs;
  std::vector<int> delayed_ticks;
  std::vector<std::string> annotation_stack;
  std::vector<double> modeled_us;
  /// Deep copy of the reliable transport's state at capture, made through
  /// the cloner the transport registers on the machine; nullptr when the
  /// reliable layer was never instantiated.
  std::shared_ptr<void> reliable;
};

}  // namespace pup::sim
