#include "sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <thread>

#include "sim/epoch.hpp"
#include "sim/fault.hpp"

namespace pup::sim {

// Persistent worker pool for threaded local phases.
//
// Protocol: run() publishes the phase (fn, nranks) under `mu`, bumps
// `generation`, and wakes the workers.  Workers and the calling thread then
// pull rank indices from the shared atomic counter until it runs past
// nranks; each worker reports completion by decrementing `pending` and
// notifying `cv_done` when it hits zero.  The mutex handoffs establish
// happens-before between the phase bodies and the caller's subsequent reads
// of per-rank state (time buckets, result slots).
struct Machine::ThreadPool {
  explicit ThreadPool(int workers) {
    threads.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv_work.notify_all();
    for (auto& t : threads) t.join();
  }

  // Runs fn(rank) for rank in [0, nranks) across the workers plus the
  // calling thread.  fn must capture any exception itself (see
  // Machine::parallel_ranks); the pool only moves indices.
  void run(int nranks, const std::function<void(int)>& fn) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      work = &fn;
      total = nranks;
      next.store(0, std::memory_order_relaxed);
      pending = static_cast<int>(threads.size());
      ++generation;
    }
    cv_work.notify_all();
    drain(fn);
    std::unique_lock<std::mutex> lock(mu);
    cv_done.wait(lock, [this] { return pending == 0; });
    work = nullptr;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_work.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        fn = work;
      }
      if (fn != nullptr) drain(*fn);
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) cv_done.notify_one();
      }
    }
  }

  // Claims rank indices until none are left; the calling thread
  // participates instead of idling.
  void drain(const std::function<void(int)>& fn) {
    for (;;) {
      const int rank = next.fetch_add(1, std::memory_order_relaxed);
      if (rank >= total) return;
      fn(rank);
    }
  }

  std::vector<std::thread> threads;
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(int)>* work = nullptr;
  std::atomic<int> next{0};
  int total = 0;
  int pending = 0;
  std::uint64_t generation = 0;
  bool stop = false;
};

Machine::Machine(int nprocs, CostModel cost, Topology topology,
                 ExecPolicy exec, backend::Kind /*backend*/)
    : Machine(nprocs, MachineOptions{cost, std::move(topology), exec}) {}

Machine::Machine(int nprocs, MachineOptions options)
    : nprocs_(nprocs),
      cost_(options.cost),
      topology_(options.topology ? std::move(*options.topology)
                                 : Topology::crossbar(nprocs)),
      exec_(options.exec),
      mailboxes_(static_cast<std::size_t>(nprocs)),
      times_(static_cast<std::size_t>(nprocs)),
      trace_(nprocs),
      modeled_us_(static_cast<std::size_t>(nprocs), 0.0),
      arenas_(static_cast<std::size_t>(nprocs)) {
  PUP_REQUIRE(nprocs >= 1, "machine needs at least one processor");
  PUP_REQUIRE(topology_.nprocs() == nprocs,
              "topology size " << topology_.nprocs() << " != nprocs "
                               << nprocs);
  PUP_REQUIRE(exec_.threads >= 1,
              "execution policy needs >= 1 thread, got " << exec_.threads);
}

Machine::~Machine() = default;

void Machine::parallel_ranks(const std::function<void(int)>& fn) {
  PUP_CHECK(!in_parallel_phase_,
            "nested local_phase inside a threaded local_phase body");
  in_parallel_phase_ = true;
  // Bodies may throw (contract violations, user errors).  Capture per rank
  // and rethrow the lowest-rank exception so the reported failure does not
  // depend on thread scheduling.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs_));
  if (pool_ == nullptr) {
    // Workers beyond nprocs-1 would never receive a rank; the calling
    // thread itself is the final executor.
    pool_ = std::make_unique<ThreadPool>(std::min(exec_.threads, nprocs_) - 1);
  }
  pool_->run(nprocs_, [&](int rank) {
    try {
      fn(rank);
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
    }
  });
  in_parallel_phase_ = false;
  for (auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
}

void Machine::post(Message m, Category cat) {
  PUP_REQUIRE(m.src >= 0 && m.src < nprocs_, "bad source rank " << m.src);
  PUP_REQUIRE(m.dst >= 0 && m.dst < nprocs_, "bad destination rank " << m.dst);
  if (faults_ != nullptr) {
    const FaultEvent ev = faults_->decide(m, annotation_stack_);
    if (ev.killed_rank >= 0) {
      // A kill rule's countdown expired on this post: the rank is dead
      // from this moment on (fail-stop).  The event is the only
      // externally visible record of the death itself; detection is the
      // reliable layer's heartbeat timeout.
      annotate_event("fault.kill");
    }
    switch (ev.action) {
      case FaultAction::kDeliver:
        break;
      case FaultAction::kDeadSource:
        // The sender is dead: the message never reaches the network.
        // Like a drop it is neither traced nor observed, so peers only
        // notice through missing frames.
        annotate_event("fault.dead");
        return;
      case FaultAction::kDrop:
        // The message vanishes in the network: never traced, never shown
        // to the observer as a post, never delivered.
        annotate_event("fault.drop");
        return;
      case FaultAction::kDuplicate: {
        annotate_event("fault.duplicate");
        Message copy = m;
        copy.wire.duplicate = true;
        deliver(std::move(m), cat);
        deliver(std::move(copy), cat);
        return;
      }
      case FaultAction::kDelay:
        // The post happens now (traced and observed) but the network holds
        // the message for ev.delay_ticks receive calls.
        annotate_event("fault.delay");
        m.wire.delayed = true;
        record_post(m, cat);
        delayed_.push_back(DelayedMessage{std::move(m), ev.delay_ticks});
        return;
      case FaultAction::kTruncate:
        annotate_event("fault.truncate");
        m.wire.truncated = true;
        if (m.wire.orig_bytes == 0) m.wire.orig_bytes = m.payload.size();
        m.payload.resize(ev.truncate_to);
        break;  // the mangled copy is delivered normally
    }
  }
  deliver(std::move(m), cat);
}

void Machine::deliver(Message m, Category cat) {
  record_post(m, cat);
  enqueue(std::move(m));
}

void Machine::record_post(const Message& m, Category cat) {
  trace_.record_message(m.src, m.dst, m.size_bytes(), cat);
  notify(&MachineObserver::on_post, m, cat);
}

void Machine::tick_delayed() {
  if (delayed_.empty()) return;
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (--it->ticks <= 0) {
      enqueue(std::move(it->m));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
}

void Machine::flush_delayed() {
  for (auto& d : delayed_) {
    enqueue(std::move(d.m));
  }
  delayed_.clear();
}

void Machine::set_fault_plan(std::unique_ptr<FaultPlan> plan) {
  faults_ = std::move(plan);
  annotation_stack_.clear();
}

std::unique_ptr<FaultPlan> Machine::take_fault_plan() {
  return std::move(faults_);
}

void Machine::expire_delayed() {
  // Swap the queue out first so observers see an empty queue.
  std::deque<DelayedMessage> expired;
  expired.swap(delayed_);
  if (faults_ != nullptr) {
    faults_->note_expired(static_cast<std::int64_t>(expired.size()));
  }
  for (auto& d : expired) {
    annotate_event("fault.delay.expired");
    notify(&MachineObserver::on_expire, d.m);
  }
}

double Machine::modeled_total_us() const {
  double total = 0.0;
  for (const double us : modeled_us_) total += us;
  return total;
}

std::shared_ptr<const EpochCheckpoint> Machine::checkpoint_epoch() {
  auto cp = std::make_shared<EpochCheckpoint>();
  cp->sequence_ = ++epochs_checkpointed_;
  cp->mailboxes = mailboxes_;
  cp->times = times_;
  cp->trace = trace_;
  cp->delayed_msgs.reserve(delayed_.size());
  cp->delayed_ticks.reserve(delayed_.size());
  for (const auto& d : delayed_) {
    cp->delayed_msgs.push_back(d.m);
    cp->delayed_ticks.push_back(d.ticks);
  }
  cp->annotation_stack = annotation_stack_;
  cp->modeled_us = modeled_us_;
  if (reliable_state_ != nullptr) {
    PUP_CHECK(reliable_cloner_ != nullptr,
              "epoch checkpoint with reliable state but no registered "
              "cloner");
    cp->reliable = reliable_cloner_(reliable_state_.get());
  }
  // Notified after capture so an observer's own snapshot corresponds to
  // the captured machine state.
  notify(&MachineObserver::on_checkpoint);
  return cp;
}

void Machine::rollback_epoch(const EpochCheckpoint& cp) {
  PUP_REQUIRE(cp.times.size() == times_.size(),
              "epoch checkpoint from a machine with "
                  << cp.times.size() << " processors rolled back on one with "
                  << times_.size());
  mailboxes_ = cp.mailboxes;
  times_ = cp.times;
  trace_ = cp.trace;
  delayed_.clear();
  for (std::size_t i = 0; i < cp.delayed_msgs.size(); ++i) {
    delayed_.push_back(
        DelayedMessage{cp.delayed_msgs[i], cp.delayed_ticks[i]});
  }
  annotation_stack_ = cp.annotation_stack;
  modeled_us_ = cp.modeled_us;
  // Arenas are not modeled state (they hold only value-free capacity, never
  // live payload bytes), so rollback purges rather than restores them.
  for (auto& arena : arenas_) arena.purge();
  if (cp.reliable != nullptr) {
    PUP_CHECK(reliable_cloner_ != nullptr,
              "epoch rollback with reliable state but no registered cloner");
    // Clone again (instead of adopting the snapshot) so the checkpoint
    // stays pristine for further rollbacks.
    reliable_state_ = reliable_cloner_(cp.reliable.get());
  } else {
    reliable_state_.reset();
  }
  ++epochs_rolled_back_;
  // Notified after the restore so observers resync against restored state.
  notify(&MachineObserver::on_rollback);
}

void Machine::mark_epoch_boundary() {
  ++epoch_boundaries_;
  annotate_event("epoch.boundary");
  // Boundary = consistent cut = safe throw point.  The poll runs after the
  // boundary's own event, so observers see the boundary before a trip.
  poll_cancellation();
}

void Machine::poll_cancellation_slow() {
  const double elapsed_us = modeled_total_us() - cancel_entry_us_;
  const StopCause cause = cancel_token_->tripped(elapsed_us);
  if (cause == StopCause::kNone) return;
  // The trip event fires before the throw so observers see why the
  // operation is about to unwind; the token is removed so the rollback /
  // drain code the exception runs through cannot re-trip.
  annotate_event("cancel.trip");
  set_cancel_token(nullptr);
  throw CancelError(
      cause, std::string("operation stopped at round boundary: ") +
                 stop_cause_name(cause) + " (modeled " +
                 std::to_string(elapsed_us) + " us into the operation)");
}

std::optional<Message> Machine::receive(int rank, int src, int tag) {
  PUP_REQUIRE(rank >= 0 && rank < nprocs_, "bad rank " << rank);
  tick_delayed();
  auto m = mailboxes_[static_cast<std::size_t>(rank)].pop(src, tag);
  if (m.has_value()) notify(&MachineObserver::on_receive, rank, *m);
  return m;
}

Message Machine::receive_required(int rank, int src, int tag) {
  auto m = receive(rank, src, tag);
  PUP_CHECK(m.has_value(), "rank " << rank << " expected a message from src="
                                   << src << " tag=" << tag);
  return std::move(*m);
}

bool Machine::has_message(int rank, int src, int tag) const {
  PUP_REQUIRE(rank >= 0 && rank < nprocs_, "bad rank " << rank);
  return mailboxes_[static_cast<std::size_t>(rank)].has(src, tag);
}

double Machine::max_us(Category cat) const {
  double best = 0.0;
  for (const auto& t : times_) best = std::max(best, t[cat]);
  return best;
}

double Machine::max_total_us() const {
  double best = 0.0;
  for (const auto& t : times_) best = std::max(best, t.total_us());
  return best;
}

void Machine::reset_accounting() {
  PUP_CHECK(mailboxes_empty(),
            "reset_accounting with undelivered messages in flight");
  notify(&MachineObserver::on_reset);
  for (auto& t : times_) t.reset();
  trace_.reset();
  std::fill(modeled_us_.begin(), modeled_us_.end(), 0.0);
}

bool Machine::mailboxes_empty() const {
  return delayed_.empty() &&
         std::all_of(mailboxes_.begin(), mailboxes_.end(),
                     [](const Mailbox& mb) { return mb.empty(); });
}

}  // namespace pup::sim
