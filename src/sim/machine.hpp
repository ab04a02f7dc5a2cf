// The simulated coarse-grained distributed-memory parallel machine.
//
// A Machine owns P virtual processors, each with a private mailbox and a
// per-processor time breakdown.  Algorithms are written in a phased-SPMD
// style: a *local phase* runs a callable once per processor with its real
// wall-clock time charged to that processor's local-computation bucket, and
// *collectives* (see coll/) move real messages through the mailboxes while
// charging communication time from the two-level cost model (tau + mu*m per
// message, round-synchronized schedules).
//
// Local phases execute under one of two policies (sim/exec_policy.hpp):
//
//   * Sequential (the default): bodies run in rank order on the calling
//     thread.  Every execution is bit-for-bit deterministic, including the
//     interleaving of side effects.
//   * Threaded (MachineOptions::exec = ExecPolicy::threaded(n)): bodies
//     run concurrently on a persistent pool of n threads.  Rank bodies must
//     touch only rank-private state (their own slots of pre-sized
//     containers), which every library phase already obeys.  All *modeled*
//     quantities -- message payloads, tau + mu*m charges, trace digests --
//     remain bit-identical to sequential execution because no message
//     traffic happens inside a local phase (the transport is reserved to
//     the collectives layer, enforced by tools/lint.py) and because rank
//     bodies only write rank-indexed data.  Only the *real wall-clock*
//     buckets differ, and those are excluded from determinism digests by
//     construction (analysis/determinism.hpp).
//
// Collectives and the transport (post/receive/charge) always run on the
// calling thread, outside any parallel region.  Observers form one list,
// notified in attach order, and every callback is serialized through an
// internal mutex, so an attached ProtocolValidator or DigestRecorder needs
// no locking of its own under either policy.
//
// The machine owns its data path directly: one deque Mailbox per
// processor, matched by (src, tag) in per-destination arrival order, and
// one work-sharing thread pool for threaded local phases, created on the
// first threaded phase.  Everything modeled -- fault injection, charges,
// tracing, observers, epoch bookkeeping -- happens here too, on the thread
// that drives the schedule (DESIGN.md section 9).
//
// Configuration is explicit: the constructor takes MachineOptions (cost
// model, topology, execution policy) and a fault plan is installed with
// set_fault_plan().  The machine never reads the process environment;
// entry points that honour PUP_THREADS / PUP_FAULTS read them with
// support::Env::read() and pass them on.
#pragma once

#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cancel.hpp"
#include "sim/cost_model.hpp"
#include "sim/exec_policy.hpp"
#include "sim/mailbox.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"
#include "sim/timing.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"

// Compatibility surface for perfbench/, which passes backend::Kind::kSim to
// the five-argument Machine constructor and attaches its span recorder
// through the one-slot observer setter in Machine's instrumentation
// section: the simulator data path is the only one, so the enum has one
// value and the constructor ignores it, and the setter replaces the
// observer list with one entry.  All three go in the next change that may
// edit perfbench/.
namespace pup::backend {
enum class Kind { kSim };
}  // namespace pup::backend

namespace pup::sim {

class FaultPlan;        // sim/fault.hpp
class EpochCheckpoint;  // sim/epoch.hpp

/// Everything a Machine is built from.
struct MachineOptions {
  CostModel cost = CostModel::calibrated_cm5();
  /// Interconnect; the paper's virtual crossbar when unset.
  std::optional<Topology> topology = std::nullopt;
  ExecPolicy exec = ExecPolicy::sequential();
};

class Machine {
 public:
  /// Creates a machine with `nprocs` processors.  Throws ContractError when
  /// nprocs < 1, the topology's size differs from nprocs, or
  /// exec.threads < 1.
  explicit Machine(int nprocs, MachineOptions options = {});
  /// Compatibility overload for perfbench/ (see backend::Kind above).
  Machine(int nprocs, CostModel cost, Topology topology, ExecPolicy exec,
          backend::Kind backend);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int nprocs() const { return nprocs_; }
  const CostModel& cost() const { return cost_; }
  const Topology& topology() const { return topology_; }
  const ExecPolicy& exec() const { return exec_; }

  // --- phased-SPMD execution ------------------------------------------

  /// Runs `body(rank)` for every processor, charging each invocation's real
  /// wall-clock time to that processor's `cat` bucket (local computation by
  /// default).  Sequential policy runs the ranks in rank order on the
  /// calling thread; the threaded policy runs them concurrently, in which
  /// case `body` must only write rank-private state and must not start a
  /// nested local phase.  Exceptions thrown by bodies are rethrown on the
  /// calling thread; under threads, the lowest-rank exception wins, so the
  /// reported failure is deterministic.
  template <typename F>
  void local_phase(F&& body, Category cat = Category::kLocal) {
    annotate_phase_begin("local_phase");
    if (concurrent()) {
      parallel_ranks([&](int rank) {
        ScopedRealTimer timer(times_[static_cast<std::size_t>(rank)][cat]);
        body(rank);
      });
    } else {
      for (int rank = 0; rank < nprocs_; ++rank) {
        ScopedRealTimer timer(times_[static_cast<std::size_t>(rank)][cat]);
        body(rank);
      }
    }
    annotate_phase_end("local_phase");
  }

  /// Runs `body()` once on behalf of `rank`, charging real time to `cat`.
  template <typename F>
  void timed(int rank, Category cat, F&& body) {
    ScopedRealTimer timer(times_[static_cast<std::size_t>(rank)][cat]);
    body();
  }

  // --- messaging (used by coll/) ---------------------------------------

  /// Posts a message.  Messages are visible to the receiver immediately;
  /// round structure (and therefore cost) is imposed by the collective
  /// schedules, not by the transport.  Main-thread only (never call from a
  /// local-phase body; tools/lint.py bans transport above coll/).  When a
  /// fault plan is installed (set_fault_plan), injection
  /// happens here: the message may be dropped, duplicated, delayed, or
  /// truncated, with a fault.* point event for every injected fault.
  void post(Message m, Category cat);

  /// Receives the first queued message matching (src, tag) at `rank`.
  std::optional<Message> receive(int rank, int src = kAnySource,
                                 int tag = kAnyTag);

  /// Like receive(), but a missing message is an invariant violation.
  Message receive_required(int rank, int src = kAnySource, int tag = kAnyTag);

  /// True when `rank` has a matching queued message.
  bool has_message(int rank, int src = kAnySource, int tag = kAnyTag) const;

  // --- fault injection (sim/fault.hpp) ----------------------------------

  /// Installs a fault plan applied by post() to every subsequent message
  /// (nullptr disables injection; a new machine has none).  Swapping
  /// plans mid-collective is
  /// undefined behavior as far as the reliable layer is concerned.
  void set_fault_plan(std::unique_ptr<FaultPlan> plan);
  FaultPlan* fault_plan() const { return faults_.get(); }

  /// Removes and returns the installed fault plan (nullptr when none).
  /// The recovery executor uses this to run a retry fault-free and restore
  /// the plan afterwards; unlike set_fault_plan(nullptr) the plan's RNG
  /// stream and kill state survive the swap.
  std::unique_ptr<FaultPlan> take_fault_plan();

  /// Releases every delay-faulted message into its destination mailbox
  /// immediately, regardless of remaining ticks.  The reliable layer calls
  /// this when draining a collective so no injected delay can outlive the
  /// scope that produced it.
  void flush_delayed();

  /// Delay-faulted messages still held in the network.  Zero at every
  /// cross-phase drain point (the outermost-scope drain below guarantees
  /// it; the protocol validator checks it).
  std::size_t delayed_pending() const { return delayed_.size(); }

  // --- epoch checkpoints (sim/epoch.hpp) --------------------------------

  /// Captures the machine's modeled state (mailboxes, clocks, trace,
  /// delayed queue, reliable-transport channel state, modeled-charge
  /// totals) into an immutable snapshot, then notifies on_checkpoint.  The
  /// fault plan is deliberately NOT captured (see sim/epoch.hpp).
  /// O(state); free of modeled cost.
  std::shared_ptr<const EpochCheckpoint> checkpoint_epoch();

  /// Restores the machine to `cp` bit for bit, then notifies on_rollback
  /// (after the restore, so observers resync against the restored state).
  /// A checkpoint survives any number of rollbacks.
  void rollback_epoch(const EpochCheckpoint& cp);

  /// Marks a PRS-round epoch boundary: a consistent cut where a rolled-
  /// back re-execution may resynchronize.  Emits an "epoch.boundary" point
  /// event and counts it; no modeled cost, no state change.
  void mark_epoch_boundary();

  std::int64_t epochs_checkpointed() const { return epochs_checkpointed_; }
  std::int64_t epochs_rolled_back() const { return epochs_rolled_back_; }
  std::int64_t epoch_boundaries() const { return epoch_boundaries_; }

  // --- cooperative cancellation (sim/cancel.hpp) ------------------------

  /// Installs (nullptr: removes) the cancellation token polled at round
  /// boundaries.  The machine records its modeled clock at installation so
  /// the token's watchdog budget measures this operation only.  The token
  /// must outlive the operation; install/remove from the thread driving
  /// the machine (the poll sites run on it), though request_cancel() on
  /// the installed token is safe from any thread.
  void set_cancel_token(const CancelToken* token) {
    cancel_token_ = token;
    cancel_entry_us_ = token != nullptr ? modeled_total_us() : 0.0;
  }
  const CancelToken* cancel_token() const { return cancel_token_; }

  /// Round-boundary poll: throws CancelError when the installed token has
  /// tripped (no-op without a token).  Called from mark_epoch_boundary()
  /// and from the collectives' round loops as a *plain statement* -- never
  /// from an annotation/RAII destructor, where a throw would terminate.
  /// An untripped poll makes no modeled charges and emits no events, so
  /// armed runs stay bit-identical to unarmed ones.
  void poll_cancellation() {
    if (cancel_token_ == nullptr) return;
    poll_cancellation_slow();
  }

  /// Sum of all modeled charge() calls across ranks since construction or
  /// the last reset/rollback.  Excludes real wall-clock timers, so the
  /// value is deterministic; the recovery executor differences it around
  /// an attempt to measure the modeled time a rollback discards.
  double modeled_total_us() const;

  /// Registers the deep-copy function for the opaque reliable_state()
  /// slot.  The reliable layer installs this when it creates its
  /// per-machine instance; checkpoint/rollback use it to snapshot and
  /// restore channel state without a sim -> coll dependency.
  using ReliableCloner =
      std::function<std::shared_ptr<void>(const void*)>;
  void set_reliable_cloner(ReliableCloner cloner) {
    reliable_cloner_ = std::move(cloner);
  }

  /// Opaque per-machine slot owned by the reliable transport layer
  /// (coll/reliable.hpp); sim/ never interprets it.  Keeping the state on
  /// the machine gives the collectives one shared sequence-number space
  /// per machine without a sim -> coll dependency.
  std::shared_ptr<void>& reliable_state() { return reliable_state_; }

  /// Per-rank recycling arena for message payload buffers (support/
  /// arena.hpp).  Rank-private: a local-phase body may touch only its own
  /// rank's arena, like every other rank-indexed container.  Senders hand
  /// it to ByteWriter so composition reuses retired capacity; receivers
  /// release consumed payloads back after decomposing.  Purged (never
  /// restored) on epoch rollback -- the arena holds no live bytes, so
  /// dropping cached capacity is always correct.
  support::PayloadArena& payload_arena(int rank) {
    return arenas_[static_cast<std::size_t>(rank)];
  }

  /// Charges modeled communication time to one processor.  Safe to call
  /// concurrently for *distinct* ranks (each rank's buckets are private);
  /// observer notification is serialized.
  void charge(int rank, Category cat, double us) {
    times_[static_cast<std::size_t>(rank)][cat] += us;
    modeled_us_[static_cast<std::size_t>(rank)] += us;
    notify(&MachineObserver::on_charge, rank, cat, us);
  }

  /// Modeled time for a message of `bytes` between two ranks under the
  /// machine's topology and cost model.
  double message_us(int src, int dst, std::size_t bytes) const {
    return topology_.message_us(cost_, src, dst, bytes);
  }

  // --- accounting -------------------------------------------------------

  TimeBreakdown& times(int rank) {
    return times_[static_cast<std::size_t>(rank)];
  }
  const TimeBreakdown& times(int rank) const {
    return times_[static_cast<std::size_t>(rank)];
  }

  /// Maximum over processors of a category bucket (what the paper plots).
  double max_us(Category cat) const;
  /// Maximum over processors of the total time.
  double max_total_us() const;

  /// Clears all time buckets and the trace; mailboxes must already be empty
  /// (a non-empty mailbox between operations indicates a protocol bug).
  void reset_accounting();

  /// True when no processor has queued messages and no delay-faulted
  /// message is still held in the network.
  bool mailboxes_empty() const;

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  // --- instrumentation --------------------------------------------------

  /// Appends a non-owning observer to the notification list.  Observers
  /// are notified in attach order: the oldest handles each event first, so
  /// one that throws (a fail-fast validator) never hides an event from an
  /// observer attached before it.  Must not be called while a local phase
  /// is running.
  void add_observer(MachineObserver* obs) { observers_.push_back(obs); }
  /// Detaches `obs`; the others keep their order.  No-op when absent.
  void remove_observer(MachineObserver* obs) { std::erase(observers_, obs); }
  /// perfbench/ compatibility (see backend::Kind above): replaces the list
  /// with {obs}, or empties it for nullptr.
  void set_observer(MachineObserver* obs) {
    observers_.clear();
    if (obs != nullptr) observers_.push_back(obs);
  }

  /// Annotation entry points, forwarded to the observers.  Library code
  /// brackets collectives, rounds and phases through the RAII scopes of
  /// sim/instrumentation.hpp rather than calling the begin/end pairs
  /// directly.  While a fault plan is installed the open collective and
  /// phase names form the stack FaultRule phase scoping matches, and the
  /// close of the outermost scope expires leftover delayed messages.
  void annotate_collective_begin(const char* name,
                                 std::initializer_list<int> tags,
                                 RoundDiscipline discipline) {
    if (faults_ != nullptr) annotation_stack_.emplace_back(name);
    if (!observers_.empty()) {  // build the tag vector only for observers
      notify(&MachineObserver::on_collective_begin,
             CollectiveInfo{name, std::vector<int>(tags), discipline});
    }
  }
  void annotate_collective_end() {
    if (faults_ != nullptr && !annotation_stack_.empty()) {
      annotation_stack_.pop_back();
    }
    notify(&MachineObserver::on_collective_end);
    maybe_expire_delayed();
  }
  void annotate_round_begin() { notify(&MachineObserver::on_round_begin); }
  void annotate_round_end() { notify(&MachineObserver::on_round_end); }
  void annotate_phase_begin(const char* name) {
    if (faults_ != nullptr) annotation_stack_.emplace_back(name);
    notify(&MachineObserver::on_phase_begin, name);
  }
  void annotate_phase_end(const char* name) {
    if (faults_ != nullptr && !annotation_stack_.empty()) {
      annotation_stack_.pop_back();
    }
    notify(&MachineObserver::on_phase_end, name);
    maybe_expire_delayed();
  }
  /// A point event (fault.*, reliable.*, epoch.boundary, cancel.trip,
  /// plan.*, service.*): one on_event call.  It opens no fault scope and
  /// drains nothing, so it may be emitted anywhere, mid-round included.
  /// `name` must outlive the call; string literals are the intended use.
  void annotate_event(const char* name) {
    notify(&MachineObserver::on_event, name);
  }

 private:
  /// A delay-faulted message waiting in the network; released into the
  /// destination mailbox after `ticks` receive calls (or by
  /// flush_delayed()).
  struct DelayedMessage {
    Message m;
    int ticks = 0;
  };

  struct ThreadPool;  // machine.cpp

  /// True when local phases run on the pool rather than in rank order.
  bool concurrent() const { return exec_.is_threaded() && nprocs_ > 1; }

  /// Runs fn(rank) for every rank on the local-phase pool.  Blocks until
  /// all ranks finish; rethrows the lowest-rank body exception, if any.
  void parallel_ranks(const std::function<void(int)>& fn);

  /// Slow path of poll_cancellation(): evaluates the token and throws
  /// CancelError on a trip (after emitting a "cancel.trip" event).
  void poll_cancellation_slow();

  /// Trace + observer + mailbox delivery for one message (the fault-free
  /// tail of post()).
  void deliver(Message m, Category cat);
  /// Appends `m` to its destination's mailbox (arrival order).
  void enqueue(Message m) {
    mailboxes_[static_cast<std::size_t>(m.dst)].push(std::move(m));
  }
  /// Trace + observer only (used when a delayed message is recorded at post
  /// time but enqueued for later delivery).
  void record_post(const Message& m, Category cat);
  /// Advances the delay queue by one receive tick, releasing expired
  /// messages.
  void tick_delayed();
  /// Discards delay-faulted messages still queued when the outermost
  /// annotation scope closes: a delayed message the operation never
  /// received must not leak into the next operation.  Each discarded
  /// message is reported as a "fault.delay.expired" event followed by
  /// MachineObserver::on_expire.
  void maybe_expire_delayed() {
    if (faults_ != nullptr && annotation_stack_.empty() && !delayed_.empty()) {
      expire_delayed();
    }
  }
  void expire_delayed();

  /// Calls `hook` on every attached observer, in attach order, under the
  /// observer mutex.  An empty list costs one check.
  template <typename... Params, typename... Args>
  void notify(void (MachineObserver::*hook)(Params...), Args&&... args) {
    if (observers_.empty()) return;
    const std::lock_guard<std::mutex> lock(observer_mu_);
    for (MachineObserver* obs : observers_) (obs->*hook)(args...);
  }

  int nprocs_;
  CostModel cost_;
  Topology topology_;
  ExecPolicy exec_;
  std::vector<Mailbox> mailboxes_;
  std::unique_ptr<ThreadPool> pool_;  ///< created on the first threaded phase
  std::vector<TimeBreakdown> times_;
  Trace trace_;
  std::vector<MachineObserver*> observers_;  ///< attach order
  std::mutex observer_mu_;
  bool in_parallel_phase_ = false;
  std::unique_ptr<FaultPlan> faults_;
  std::deque<DelayedMessage> delayed_;
  /// Open collective/phase annotation names, maintained only while a fault
  /// plan is installed (FaultRule phase scoping needs it).
  std::vector<std::string> annotation_stack_;
  std::shared_ptr<void> reliable_state_;
  ReliableCloner reliable_cloner_;
  /// Modeled charges per rank (charge() only; no wall-clock), summed by
  /// modeled_total_us().  Rank-private slots, same concurrency contract as
  /// times_.
  std::vector<double> modeled_us_;
  /// Rank-private payload-buffer arenas (payload_arena()).  Not part of
  /// modeled state: checkpoints skip them, rollback purges them, and
  /// reset_accounting leaves them alone so warm capacity carries across
  /// rounds.
  std::vector<support::PayloadArena> arenas_;
  std::int64_t epochs_checkpointed_ = 0;
  std::int64_t epochs_rolled_back_ = 0;
  std::int64_t epoch_boundaries_ = 0;
  /// Cooperative-cancellation token (non-owning; nullptr when unarmed) and
  /// the modeled clock reading at installation (watchdog budgets measure
  /// the current operation, not the machine's lifetime).
  const CancelToken* cancel_token_ = nullptr;
  double cancel_entry_us_ = 0.0;
};

}  // namespace pup::sim
