// Long-running multi-tenant pack/unpack server.
//
// A Server owns one simulated machine and serves PACK/UNPACK requests
// submitted concurrently by many client threads against named distributed
// arrays registered per tenant.  The request lifecycle is
//
//   submit() --admission--> queue --batching window--> execute --> Response
//
// with four pieces layered on the existing subsystems:
//
//   * Admission control (submit, caller's thread, under one mutex): a
//     request is admitted only if its tenant exists, the named array
//     exists, the request is well-formed, the tenant has in-flight quota
//     left, and the global byte budget can absorb the payload.  Anything
//     else resolves the caller's future *immediately* with a typed
//     Rejected{reason} response -- over-quota traffic can never crash or
//     wedge the server, only be refused.
//
//   * Batching-window scheduler (one dedicated thread): the scheduler pops
//     the oldest admitted request and -- when Options::window_us > 0 --
//     holds it open for that window, fusing every queued or newly arriving
//     pack request with the same *fuse key* (the compiled-plan key:
//     distribution signature, grid, blocks, element width, scheme and
//     algorithm knobs) into one pack_batch, which pays one tau startup per
//     PRS round instead of one per request (PR 3 measured <= 1/2 the
//     startups for B >= 4).  Requests that fuse with nothing -- unpacks,
//     odd layouts, window_us == 0 -- execute as singletons (a pack
//     singleton is a pack_batch of one).  Fusion
//     reorders only across *incompatible* keys; within a key, arrival
//     order is preserved, and every result is element-identical to a
//     singleton execution (pack_batch's contract).
//
//   * Shared PlanCache: one cache serves all tenants, so tenant B's
//     traffic warms tenant A's plans.  Each lookup is attributed to every
//     request it served (TenantStats::cache_hits/misses) and surfaced to
//     observers as one "service.cache.hit"/"service.cache.miss" point
//     event per request, alongside the cache's own plan.cache.* events.
//     Brown-out transitions and cancellation trips are point events too
//     ("service.brownout.*", "service.watchdog.trip",
//     "service.deadline.miss", "service.cancelled").
//
//   * Resilient execution: every dispatch runs through a
//     plan::ResilientExecutor under Options::recovery, so a fault plan
//     installed on the machine (e.g. a kill= rule striking during one
//     tenant's epoch) rolls back to the entry checkpoint and re-executes
//     -- other tenants' queued requests and already-delivered results are
//     never poisoned, and recovered digests stay bit-identical to
//     fault-free runs.
//
//   * Request robustness (all opt-in, zero overhead when unconfigured):
//     per-request deadlines and Server::cancel(id) thread a
//     sim::CancelToken through the resilient executor into the round
//     loops, resolving futures with typed kDeadlineExceeded/kCancelled
//     after a rollback (already-expired queued requests are shed before
//     any machine time is spent); overload control sheds lowest-priority /
//     nearest-deadline queued work under queue pressure with
//     Rejected{kOverload}; a brown-out collapses the batching window when
//     the queue-wait p95 degrades; and a modeled-time watchdog turns a
//     dispatch stuck past watchdog_factor x its learned cost baseline
//     (delay-fault storms) into typed kWatchdogTimeout instead of a
//     silent wedge.  See DESIGN.md section 12.
//
// Configuration is injected through Options and nothing else -- the server
// never reads the process environment -- so two in-process servers with
// different options coexist without touching global state.
//
// Threading contract: submit(), pause/resume, drain, stats and
// registration are safe from any thread.  The machine itself is driven
// only by the scheduler thread; touch machine() directly (fault plans,
// observers, accounting resets) only while the server is idle or paused,
// mirroring the machine's own single-schedule-thread discipline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/recovery.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "plan/resilient.hpp"
#include "service/service.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"

namespace pup::service {

class Server {
 public:
  struct Options {
    int nprocs = 8;
    sim::CostModel cost = sim::CostModel::calibrated_cm5();

    /// Batching window in real microseconds.  0 disables fusion entirely:
    /// every request executes as a FIFO singleton.
    double window_us = 0.0;
    /// Largest fused batch the scheduler assembles.
    std::size_t max_batch = 8;

    /// Default per-tenant in-flight request quota (register_tenant can
    /// override per tenant).
    std::size_t tenant_inflight_quota = 8;
    /// Global budget for admitted-but-incomplete payload bytes.
    std::size_t byte_budget = std::size_t{1} << 30;

    std::size_t plan_cache_capacity = 64;

    /// Rollback + re-execute policy for the embedded ResilientExecutor
    /// (default: disabled -- transport errors propagate as kFailed).
    RecoveryPolicy recovery{};

    /// Local-phase pool size, >= 1 (1 = sequential local phases).
    int threads = 1;
    /// Compatibility field for perfbench/: only "sim" (or unset) is
    /// accepted, anything else throws ContractError.  Goes in the next
    /// change that may edit perfbench/.
    std::optional<std::string> backend;

    /// Construct with the scheduler gated: admitted requests queue until
    /// resume().  Tests use this to make batching deterministic.
    bool start_paused = false;

    // --- request-robustness knobs.  All default OFF, and the off state is
    // the zero-overhead path: no per-dispatch checkpoint, no token, no
    // extra bookkeeping -- digests, modeled counts, and throughput are
    // bit-identical to a server without these features. ------------------

    /// Overload control: shed queued work when queue depth x queued bytes
    /// exceeds overload_factor x byte_budget, evicting lowest-priority /
    /// nearest-deadline / oldest requests first with Rejected{kOverload}.
    /// 0 disables shedding entirely.
    double overload_factor = 0.0;

    /// Adaptive brown-out: when the p95 of recent queue waits (real wall
    /// clock) exceeds this bound, the batching window collapses to 0 so
    /// the queue drains at full dispatch rate; fusion resumes once the p95
    /// falls below half the bound.  0 disables brown-out.
    double brownout_p95_us = 0.0;

    /// Hang watchdog: a dispatch whose *modeled* time exceeds
    /// watchdog_factor x the learned modeled-cost baseline for its plan
    /// key (x batch size) trips at the next round boundary, rolls back,
    /// and resolves every batch member kWatchdogTimeout instead of
    /// wedging (e.g. under a delay= fault storm, whose injected modeled
    /// delays are exactly what blows the budget).  Baselines are learned
    /// from successful dispatches, so the first dispatch of a key is
    /// never watchdogged.  0 disables the watchdog.
    double watchdog_factor = 0.0;

    /// Arm a cancellation token for every dispatch so Server::cancel(id)
    /// can interrupt *executing* requests at round boundaries.  Costs one
    /// epoch checkpoint per dispatch (the rollback anchor), hence opt-in;
    /// cancel(id) of still-queued requests works regardless.
    bool cancellation = false;
  };

  explicit Server(Options options);
  ~Server();  ///< shutdown(): drains admitted work, then joins

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- tenant registry --------------------------------------------------

  /// Registers a tenant; `quota` overrides Options::tenant_inflight_quota
  /// and `priority` sets its overload-shedding class (service.hpp).
  /// Re-registration updates quota/priority and keeps the arrays.
  void register_tenant(const Tenant& tenant,
                       std::optional<std::size_t> quota = std::nullopt,
                       Priority priority = Priority::kStandard);

  /// Registers (or replaces) a named distributed array under a tenant.
  /// The tenant must already be registered.
  void register_array(const Tenant& tenant, const std::string& name,
                      dist::DistArray<Element> array);

  // --- request path -----------------------------------------------------

  /// A submitted request's handle: the future always resolves with a typed
  /// Response; `id` (0 when rejected at admission -- such futures are
  /// already resolved) addresses Server::cancel.
  struct Submission {
    std::uint64_t id = 0;
    std::future<Response> response;
  };

  /// Submits a PACK request.  The returned future resolves with a typed
  /// Response: immediately on rejection, after execution otherwise.
  std::future<Response> submit(PackRequest request) {
    return submit_tracked(std::move(request)).response;
  }

  /// Submits an UNPACK request (always a singleton execution).
  std::future<Response> submit(UnpackRequest request) {
    return submit_tracked(std::move(request)).response;
  }

  /// submit() variants returning the request id for cancel().
  Submission submit_tracked(PackRequest request);
  Submission submit_tracked(UnpackRequest request);

  /// Requests cancellation of an admitted request.  Still queued: resolved
  /// kCancelled immediately (no machine time is ever spent on it) and this
  /// returns true.  Executing: with a cancel-capable dispatch (any armed
  /// deadline/watchdog, or Options::cancellation) the cancel is delivered
  /// to the running operation's token -- it trips at the next round
  /// boundary, rolls back, and resolves kCancelled -- and this returns
  /// true; completion can still win the race, in which case the future
  /// resolves kOk despite the true.  Returns false when the id is unknown,
  /// already resolved, or executing without a token.
  bool cancel(std::uint64_t id);

  // --- control ----------------------------------------------------------

  /// Gates / releases the scheduler.  Admission keeps running while
  /// paused, so tests can stage a deterministic queue and then resume.
  void pause();
  void resume();

  /// Blocks until every admitted request has completed.  Must not be
  /// called while paused (the queue could never drain).
  void drain();

  /// Stops accepting requests (later submits reject with kShutdown),
  /// deterministically resolves every still-queued future with
  /// Rejected{kShutdown} -- no queued promise is ever executed, blocked
  /// on, or leaked, even while paused -- lets the batch already executing
  /// (if any) finish, and joins the scheduler.  Idempotent; the destructor
  /// calls it.  Callers that want queued work completed call drain()
  /// first.
  void shutdown();

  // --- introspection ----------------------------------------------------

  /// The machine every request executes on.  Scheduler-thread-driven: use
  /// from other threads only while the server is idle or paused.
  sim::Machine& machine() { return machine_; }

  /// The shared cross-tenant plan cache (its Stats now include pressure:
  /// entry count vs. capacity and eviction age).
  plan::PlanCache& plan_cache() { return cache_; }

  /// Recovery accounting from the embedded ResilientExecutor.
  const plan::RecoveryStats& recovery_stats() const { return exec_.stats(); }

  const Options& options() const { return options_; }
  ServerStats stats() const;
  TenantStats tenant_stats(const Tenant& tenant) const;

 private:
  enum class Op { kPack, kUnpack };

  /// One admitted request waiting in (or popped from) the queue.
  struct Pending {
    std::uint64_t id = 0;
    Op op = Op::kPack;
    Tenant tenant;
    Priority priority = Priority::kStandard;
    std::shared_ptr<const dist::DistArray<Element>> array;  ///< pack / field
    dist::DistArray<mask_t> mask;
    dist::DistArray<Element> vector;  ///< unpack only
    PackScheme pack_scheme = PackScheme::kCompactMessage;
    UnpackScheme unpack_scheme = UnpackScheme::kCompactStorage;
    /// Pack: the compiled-plan fuse key.  Unpack: the unpack plan key,
    /// filled only when the watchdog needs a baseline key (never fused).
    plan::PlanKey fuse_key;
    std::size_t admitted_bytes = 0;
    std::chrono::steady_clock::time_point submitted;
    /// Absolute deadline (time_point::max() = none).
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::promise<Response> promise;

    bool has_deadline() const {
      return deadline != std::chrono::steady_clock::time_point::max();
    }
  };

  struct TenantState {
    std::size_t quota = 0;
    Priority priority = Priority::kStandard;
    std::size_t inflight = 0;
    TenantStats stats;
    std::map<std::string, std::shared_ptr<const dist::DistArray<Element>>>
        arrays;
  };

  /// Admission tail shared by both submit overloads.  Caller holds mu_.
  Submission reject_locked(TenantState* tenant, RejectReason r,
                           std::string message,
                           std::promise<Response> promise);
  Submission admit_locked(TenantState& tenant, Pending pending,
                          std::promise<Response> promise);

  /// Terminal resolution of an *admitted but never executed* request:
  /// unwinds quota/byte accounting, buckets the typed outcome (shed /
  /// cancelled / deadline-miss), and fulfills the promise.  Caller holds
  /// mu_; queue_/queued_bytes_ maintenance stays with the caller.
  void resolve_unexecuted_locked(Pending p, Status status, RejectReason r,
                                 std::string message);

  /// Resolves every queued request whose deadline already passed (typed
  /// kDeadlineExceeded, zero machine time).  Caller holds mu_.
  void shed_expired_locked();
  /// Evicts queued work while the overload pressure signal fires.  Caller
  /// holds mu_.
  void shed_overload_locked();
  /// Records one dispatch's queue wait and drives the brown-out state
  /// machine.  Caller holds mu_.
  void note_queue_wait_locked(double wait_us);

  void scheduler_main();
  /// Moves every queued pack request matching batch[0]'s fuse key into the
  /// batch (arrival order preserved), up to max_batch.  Caller holds mu_.
  void collect_fusable_locked(std::vector<Pending>& batch);
  /// Executes one batch (all pack requests sharing a fuse key, or a single
  /// request of either kind) and fulfills its promises.  Runs on the
  /// scheduler thread with mu_ released.  A deadline/cancel trip resolves
  /// only the tripped members and re-executes the remainder; a watchdog
  /// trip resolves the whole batch.
  void execute(std::vector<Pending> batch);

  Options options_;
  sim::Machine machine_;
  plan::PlanCache cache_;
  plan::ResilientExecutor exec_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< scheduler wake-ups
  std::condition_variable idle_cv_;  ///< drain()/shutdown() wake-ups
  std::deque<Pending> queue_;
  std::map<Tenant, TenantState> tenants_;
  ServerStats stats_;
  std::uint64_t next_id_ = 1;
  bool paused_ = false;
  bool stopping_ = false;   ///< no new admissions
  bool stop_ = false;       ///< scheduler exits once the queue drains
  bool executing_ = false;  ///< a batch is out of the queue being served

  /// Payload bytes of *queued* (not yet dispatched) requests; one factor
  /// of the overload pressure signal.  Guarded by mu_.
  std::size_t queued_bytes_ = 0;

  /// Brown-out state: recent dispatch queue waits (bounded ring) and
  /// whether the window is currently collapsed.  Guarded by mu_.
  std::deque<double> wait_samples_;
  bool brownout_ = false;

  /// The executing dispatch's cancellation surface: cancel(id) consults
  /// active_ids_ and trips active_token_; execute() consults
  /// cancel_requested_ to pick which tripped members resolve kCancelled.
  /// All guarded by mu_ (the token itself is internally thread-safe).
  sim::CancelToken* active_token_ = nullptr;
  std::set<std::uint64_t> active_ids_;
  std::set<std::uint64_t> cancel_requested_;

  /// Learned modeled cost per request per plan key (successful dispatches
  /// only); the watchdog budget is watchdog_factor x baseline x batch.
  /// Scheduler-thread only, touched solely when the watchdog is enabled.
  std::map<plan::PlanKey, double> baseline_us_;

  std::thread scheduler_;  ///< last member: joins before the rest dies
};

}  // namespace pup::service
