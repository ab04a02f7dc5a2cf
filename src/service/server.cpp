#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "plan/executor.hpp"
#include "sim/instrumentation.hpp"

namespace pup::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Brown-out queue-wait ring: sample count kept, and the minimum number of
/// samples before the p95 is considered meaningful.
constexpr std::size_t kWaitWindow = 64;
constexpr std::size_t kWaitMinSamples = 4;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::time_point deadline_from(Clock::time_point submitted,
                                double deadline_us) {
  if (deadline_us <= 0.0) return Clock::time_point::max();
  return submitted + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(
                             deadline_us));
}

/// Payload bytes a request pins while in flight: the mask plus one element
/// array the size of its layout (plus the input vector for unpack).
std::size_t pack_bytes(const dist::Distribution& d) {
  const auto n = static_cast<std::size_t>(d.global().size());
  return n * (sizeof(mask_t) + sizeof(Element));
}

std::size_t unpack_bytes(const dist::Distribution& mask_dist,
                         const dist::Distribution& vector_dist) {
  return pack_bytes(mask_dist) +
         static_cast<std::size_t>(vector_dist.global().size()) *
             sizeof(Element);
}

/// The response of an admitted request resolved before dispatch: its whole
/// latency was queue wait.
Response unexecuted(Clock::time_point submitted, Status status,
                    RejectReason reason, std::string message) {
  Response resp;
  resp.status = status;
  resp.reason = reason;
  resp.message = std::move(message);
  resp.queue_us = us_between(submitted, Clock::now());
  resp.latency_us = resp.queue_us;
  return resp;
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      machine_(options_.nprocs,
               {.cost = options_.cost,
                .exec = sim::ExecPolicy::threaded(options_.threads)}),
      cache_(options_.plan_cache_capacity),
      exec_(machine_, options_.recovery),
      paused_(options_.start_paused) {
  // The simulator is the only data path; see Options::backend.
  PUP_REQUIRE(!options_.backend.has_value() || *options_.backend == "sim",
              "Server::Options::backend must be \"sim\", got \""
                  << *options_.backend << "\"");
  PUP_REQUIRE(options_.max_batch >= 1, "max_batch must be >= 1");
  PUP_REQUIRE(options_.window_us >= 0.0, "window_us must be >= 0");
  PUP_REQUIRE(options_.overload_factor >= 0.0,
              "overload_factor must be >= 0");
  PUP_REQUIRE(options_.brownout_p95_us >= 0.0,
              "brownout_p95_us must be >= 0");
  PUP_REQUIRE(options_.watchdog_factor >= 0.0,
              "watchdog_factor must be >= 0");
  scheduler_ = std::thread([this] { scheduler_main(); });
}

Server::~Server() { shutdown(); }

void Server::register_tenant(const Tenant& tenant,
                             std::optional<std::size_t> quota,
                             Priority priority) {
  const std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = tenants_[tenant];
  state.quota = quota.value_or(options_.tenant_inflight_quota);
  state.priority = priority;
}

void Server::register_array(const Tenant& tenant, const std::string& name,
                            dist::DistArray<Element> array) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  PUP_REQUIRE(it != tenants_.end(),
              "register_array: unknown tenant \"" << tenant << "\"");
  it->second.arrays[name] =
      std::make_shared<const dist::DistArray<Element>>(std::move(array));
}

template <typename Step>
Server::Submission Server::admit(const Tenant& name, const std::string& array,
                                 bool auto_scheme, double deadline_us,
                                 Step step) {
  std::promise<Response> promise;
  Submission s;
  s.response = promise.get_future();
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  const auto tit = tenants_.find(name);
  TenantState* tenant = tit == tenants_.end() ? nullptr : &tit->second;
  if (tenant != nullptr) ++tenant->stats.submitted;
  const auto refuse = [&](RejectReason r, std::string message) {
    ++stats_.rejected;
    if (tenant != nullptr) {
      switch (r) {
        case RejectReason::kInFlightQuota:
          ++tenant->stats.rejected_quota;
          break;
        case RejectReason::kByteBudget: ++tenant->stats.rejected_bytes; break;
        default: ++tenant->stats.rejected_other; break;
      }
    }
    Response resp;
    resp.status = Status::kRejected;
    resp.reason = r;
    resp.message = std::move(message);
    promise.set_value(std::move(resp));
    return std::move(s);
  };
  if (stopping_) {
    return refuse(RejectReason::kShutdown, "server is shutting down");
  }
  if (tenant == nullptr) {
    return refuse(RejectReason::kUnknownTenant,
                  "unknown tenant \"" + name + "\"");
  }
  const auto ait = tenant->arrays.find(array);
  if (ait == tenant->arrays.end()) {
    return refuse(RejectReason::kUnknownArray, "tenant \"" + name +
                                                   "\" has no array \"" +
                                                   array + "\"");
  }
  if (auto_scheme) {
    return refuse(RejectReason::kBadRequest,
                  "service requests require a concrete scheme");
  }
  if (deadline_us < 0.0) {
    return refuse(RejectReason::kBadRequest, "deadline_us must be >= 0");
  }
  Pending p;
  p.array = ait->second;
  if (std::string bad = step(p); !bad.empty()) {
    return refuse(RejectReason::kBadRequest, std::move(bad));
  }
  if (tenant->inflight >= tenant->quota) {
    return refuse(RejectReason::kInFlightQuota,
                  "tenant \"" + name + "\" has " +
                      std::to_string(tenant->inflight) +
                      " requests in flight (quota " +
                      std::to_string(tenant->quota) + ")");
  }
  if (stats_.bytes_in_flight + p.admitted_bytes > options_.byte_budget) {
    return refuse(RejectReason::kByteBudget,
                  "admitting " + std::to_string(p.admitted_bytes) +
                      " bytes would exceed the byte budget");
  }

  ++stats_.admitted;
  ++tenant->stats.admitted;
  ++tenant->inflight;
  stats_.bytes_in_flight += p.admitted_bytes;
  stats_.peak_bytes_in_flight =
      std::max(stats_.peak_bytes_in_flight, stats_.bytes_in_flight);
  p.id = next_id_++;
  s.id = p.id;
  p.tenant = name;
  p.priority = tenant->priority;
  p.submitted = Clock::now();
  p.deadline = deadline_from(p.submitted, deadline_us);
  p.promise = std::move(promise);
  queued_bytes_ += p.admitted_bytes;
  queue_.push_back(std::move(p));
  // The arrival may push the pressure signal over the line; the newcomer
  // competes on the same priority/deadline/age terms as everything queued
  // and may itself be the victim (its future then resolves kOverload).
  shed_overload_locked();
  work_cv_.notify_all();
  return s;
}

Server::Submission Server::submit_tracked(PackRequest request) {
  return admit(request.tenant, request.array,
               request.scheme == PackScheme::kAuto, request.deadline_us,
               [&](Pending& p) -> std::string {
                 const dist::Distribution& d = p.array->dist();
                 if (!(request.mask.dist() == d)) {
                   return "mask layout does not match array \"" +
                          request.array + "\"";
                 }
                 p.op = Op::kPack;
                 p.mask = std::move(request.mask);
                 p.pack_scheme = request.scheme;
                 PackOptions opt;
                 opt.scheme = request.scheme;
                 p.fuse_key = plan::pack_plan_key(d, sizeof(Element), opt,
                                                  std::nullopt,
                                                  machine_.cost());
                 p.admitted_bytes = pack_bytes(d);
                 return {};
               });
}

Server::Submission Server::submit_tracked(UnpackRequest request) {
  return admit(
      request.tenant, request.field, request.scheme == UnpackScheme::kAuto,
      request.deadline_us, [&](Pending& p) -> std::string {
        const dist::Distribution& d = p.array->dist();
        if (!(request.mask.dist() == d) ||
            request.vector.dist().global().rank() != 1) {
          return "mask must match field \"" + request.field +
                 "\" and the vector must be rank-one";
        }
        p.op = Op::kUnpack;
        p.mask = std::move(request.mask);
        p.vector = std::move(request.vector);
        p.unpack_scheme = request.scheme;
        if (options_.watchdog_factor > 0.0) {
          // Unpacks never fuse, but the watchdog baseline is keyed by plan.
          UnpackOptions opt;
          opt.scheme = request.scheme;
          p.fuse_key = plan::unpack_plan_key(d, p.vector.dist(),
                                             sizeof(Element), opt,
                                             machine_.cost());
        }
        p.admitted_bytes = unpack_bytes(d, p.vector.dist());
        return {};
      });
}

Server::Pending Server::take_locked(std::deque<Pending>::iterator& it) {
  Pending p = std::move(*it);
  queued_bytes_ -= p.admitted_bytes;
  it = queue_.erase(it);
  return p;
}

void Server::resolve_locked(Pending& p, Response resp) {
  TenantState& tenant = tenants_.at(p.tenant);
  --tenant.inflight;
  stats_.bytes_in_flight -= p.admitted_bytes;
  cancel_requested_.erase(p.id);
  const auto count = [&](std::int64_t TenantStats::*t,
                         std::int64_t ServerStats::*g) {
    ++(tenant.stats.*t);
    ++(stats_.*g);
  };
  switch (resp.status) {
    case Status::kOk:
      count(&TenantStats::completed, &ServerStats::completed);
      ++(resp.cache_hit ? tenant.stats.cache_hits
                        : tenant.stats.cache_misses);
      if (resp.fused) {
        count(&TenantStats::fused, &ServerStats::fused_requests);
      } else {
        ++tenant.stats.singleton;
      }
      break;
    case Status::kFailed:
      count(&TenantStats::failed, &ServerStats::failed);
      break;
    case Status::kRejected:  // shed: overload eviction or queued at shutdown
      count(&TenantStats::shed, &ServerStats::shed);
      break;
    case Status::kCancelled:
      count(&TenantStats::cancelled, &ServerStats::cancelled);
      break;
    case Status::kDeadlineExceeded:
      count(&TenantStats::deadline_misses, &ServerStats::deadline_misses);
      break;
    case Status::kWatchdogTimeout:
      count(&TenantStats::watchdog_trips, &ServerStats::watchdog_trips);
      break;
  }
  p.promise.set_value(std::move(resp));
}

void Server::shed_expired_locked() {
  const auto now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->has_deadline() && now >= it->deadline) {
      Pending p = take_locked(it);
      resolve_locked(p, unexecuted(p.submitted, Status::kDeadlineExceeded,
                                   RejectReason::kShutdown,
                                   "deadline expired before dispatch"));
    } else {
      ++it;
    }
  }
}

void Server::shed_overload_locked() {
  if (options_.overload_factor <= 0.0) return;
  const double limit =
      options_.overload_factor * static_cast<double>(options_.byte_budget);
  // Victim order: lowest priority class first; within a class the request
  // nearest its deadline (most likely a lost cause anyway; no deadline
  // sorts last), then the oldest.
  const auto worse = [](const Pending& a, const Pending& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.id < b.id;
  };
  while (!queue_.empty() &&
         static_cast<double>(queue_.size()) *
                 static_cast<double>(queued_bytes_) >
             limit) {
    auto victim = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      if (worse(*it, *victim)) victim = it;
    }
    Pending p = take_locked(victim);
    resolve_locked(
        p, unexecuted(p.submitted, Status::kRejected, RejectReason::kOverload,
                      "shed by overload control (queue pressure over budget)"));
  }
  if (queue_.empty() && !executing_) idle_cv_.notify_all();
}

void Server::note_queue_wait_locked(double wait_us) {
  if (options_.brownout_p95_us <= 0.0) return;
  wait_samples_.push_back(wait_us);
  if (wait_samples_.size() > kWaitWindow) wait_samples_.pop_front();
  if (wait_samples_.size() < kWaitMinSamples) return;
  std::vector<double> sorted(wait_samples_.begin(), wait_samples_.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx =
      std::min(sorted.size() - 1, (sorted.size() * 95 + 99) / 100 - 1);
  const double p95 = sorted[idx];
  if (!brownout_ && p95 > options_.brownout_p95_us) {
    brownout_ = true;
    ++stats_.brownouts;
    machine_.annotate_event("service.brownout.enter");
  } else if (brownout_ && p95 < options_.brownout_p95_us / 2.0) {
    // Hysteresis: fusion resumes only once the p95 has clearly recovered,
    // so the window does not flap around the bound.
    brownout_ = false;
    machine_.annotate_event("service.brownout.exit");
  }
}

bool Server::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    Pending p = take_locked(it);
    resolve_locked(p, unexecuted(p.submitted, Status::kCancelled,
                                 RejectReason::kShutdown,
                                 "cancelled while queued"));
    if (queue_.empty() && !executing_) idle_cv_.notify_all();
    return true;
  }
  if (active_token_ != nullptr && active_ids_.count(id) > 0) {
    // Executing: deliver to the dispatch's token; the round-boundary poll
    // trips, the executor rolls back, and execute() resolves this id
    // kCancelled (unless completion wins the race).
    cancel_requested_.insert(id);
    active_token_->request_cancel();
    return true;
  }
  return false;
}

void Server::pause() {
  const std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Server::resume() {
  const std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  PUP_REQUIRE(!paused_, "drain() while paused would never finish");
  idle_cv_.wait(lock, [this] { return queue_.empty() && !executing_; });
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    stop_ = true;
    // Deterministic queue disposal: every still-queued future resolves
    // Rejected{kShutdown} right here -- even while paused -- so no promise
    // can block or leak.  The batch already executing (if any) finishes on
    // the scheduler thread before it observes stop_.
    for (auto it = queue_.begin(); it != queue_.end();) {
      Pending p = take_locked(it);
      resolve_locked(
          p, unexecuted(p.submitted, Status::kRejected, RejectReason::kShutdown,
                        "server shut down before the request was dispatched"));
    }
    idle_cv_.notify_all();
    work_cv_.notify_all();
  }
  if (scheduler_.joinable()) scheduler_.join();
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

TenantStats Server::tenant_stats(const Tenant& tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  PUP_REQUIRE(it != tenants_.end(),
              "tenant_stats: unknown tenant \"" << tenant << "\"");
  return it->second.stats;
}

void Server::collect_fusable_locked(std::vector<Pending>& batch) {
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.max_batch;) {
    if (it->op == Op::kPack && it->fuse_key == batch.front().fuse_key) {
      batch.push_back(take_locked(it));
    } else {
      ++it;
    }
  }
}

void Server::scheduler_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_ || (!paused_ && !queue_.empty());
    });
    // Shed already-expired requests *before* spending machine time: their
    // futures resolve kDeadlineExceeded without ever being dispatched.
    if (!queue_.empty() && !paused_) shed_expired_locked();
    if (queue_.empty()) {
      if (stop_) break;
      idle_cv_.notify_all();
      continue;
    }
    executing_ = true;
    std::vector<Pending> batch;
    auto front = queue_.begin();
    note_queue_wait_locked(us_between(front->submitted, Clock::now()));
    batch.push_back(take_locked(front));
    // Brown-out collapses the window: under sustained queue-wait pressure,
    // draining FIFO beats waiting to fuse.
    const double window_us = brownout_ ? 0.0 : options_.window_us;
    if (batch.front().op == Op::kPack && window_us > 0.0 &&
        options_.max_batch > 1) {
      // Hold the window open: fuse everything already queued, then keep
      // absorbing arrivals until the deadline, a full batch, or shutdown.
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 window_us));
      for (;;) {
        collect_fusable_locked(batch);
        if (batch.size() >= options_.max_batch || stop_) break;
        if (work_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          collect_fusable_locked(batch);
          break;
        }
      }
    }
    lock.unlock();
    execute(std::move(batch));
    lock.lock();
    executing_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
  executing_ = false;
  idle_cv_.notify_all();
}

void Server::execute(std::vector<Pending> batch) {
  const auto dispatch = Clock::now();
  // The dispatch loop: a deadline/cancel trip resolves only the tripped
  // members (typed, rolled back, no partial state) and re-executes the
  // survivors as a smaller batch; a watchdog trip resolves everyone.  The
  // batch strictly shrinks on every trip, so the loop terminates.
  while (!batch.empty()) {
    const std::size_t n = batch.size();
    std::vector<std::uint64_t> digests(n, 0);
    std::vector<std::int64_t> selected(n, 0);
    bool cache_hit = false;
    bool failed = false;
    std::string error;
    sim::StopCause trip = sim::StopCause::kNone;

    // Arm this dispatch's cancellation surface.  No deadline, no watchdog
    // baseline, no Options::cancellation -> no token, no checkpoint: the
    // zero-overhead path is byte-for-byte the pre-robustness execution.
    sim::CancelToken token;
    bool use_token = options_.cancellation;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      auto min_deadline = Clock::time_point::max();
      for (const Pending& p : batch) {
        min_deadline = std::min(min_deadline, p.deadline);
      }
      if (min_deadline != Clock::time_point::max()) {
        token.set_deadline(min_deadline);
        use_token = true;
      }
      if (options_.watchdog_factor > 0.0) {
        const auto bit = baseline_us_.find(batch.front().fuse_key);
        if (bit != baseline_us_.end()) {
          token.set_watchdog_budget_us(options_.watchdog_factor *
                                       bit->second *
                                       static_cast<double>(n));
          use_token = true;
        }
      }
      if (use_token) {
        active_token_ = &token;
        for (const Pending& p : batch) active_ids_.insert(p.id);
      }
    }
    exec_.set_cancel_token(use_token ? &token : nullptr);
    const double modeled_entry = machine_.modeled_total_us();

    try {
      if (batch.front().op == Op::kPack) {
        PackOptions opt;
        opt.scheme = batch.front().pack_scheme;
        const auto before = cache_.stats();
        auto plan = cache_.pack_plan(machine_, batch.front().array->dist(),
                                     sizeof(Element), opt);
        cache_hit = cache_.stats().hits > before.hits;
        // Per-request cache attribution, observer-visible alongside the
        // cache's own plan.cache.* events.
        const char* cache_event =
            cache_hit ? "service.cache.hit" : "service.cache.miss";
        for (std::size_t i = 0; i < n; ++i) {
          machine_.annotate_event(cache_event);
        }
        sim::PhaseScope phase(machine_, "service.execute");
        std::vector<const dist::DistArray<mask_t>*> masks;
        std::vector<const dist::DistArray<Element>*> arrays;
        masks.reserve(n);
        arrays.reserve(n);
        for (const Pending& p : batch) {
          masks.push_back(&p.mask);
          arrays.push_back(p.array.get());
        }
        auto results = exec_.pack_batch<Element>(*plan, masks, arrays);
        for (std::size_t i = 0; i < n; ++i) {
          digests[i] = result_digest(results[i].vector, results[i].size);
          selected[i] = results[i].size;
        }
      } else {
        UnpackOptions opt;
        opt.scheme = batch.front().unpack_scheme;
        const auto before = cache_.stats();
        auto plan = cache_.unpack_plan(machine_, batch.front().array->dist(),
                                       batch.front().vector.dist(),
                                       sizeof(Element), opt);
        cache_hit = cache_.stats().hits > before.hits;
        const char* cache_event =
            cache_hit ? "service.cache.hit" : "service.cache.miss";
        machine_.annotate_event(cache_event);
        sim::PhaseScope phase(machine_, "service.execute");
        auto result = exec_.unpack<Element>(*plan, batch[0].vector,
                                            batch[0].mask, *batch[0].array);
        digests[0] = result_digest(result.result, result.size);
        selected[0] = result.size;
      }
    } catch (const sim::CancelError& e) {
      trip = e.cause();
      error = e.what();
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    exec_.set_cancel_token(nullptr);
    const double modeled_exit = machine_.modeled_total_us();
    const auto done = Clock::now();

    if (trip != sim::StopCause::kNone) {
      // Observer-visible trip marker (the machine has been rolled back to
      // the dispatch entry, so the event sits at a consistent cut).
      const char* event =
          trip == sim::StopCause::kWatchdog    ? "service.watchdog.trip"
          : trip == sim::StopCause::kDeadline  ? "service.deadline.miss"
                                               : "service.cancelled";
      machine_.annotate_event(event);
    }

    const std::lock_guard<std::mutex> lock(mu_);
    active_token_ = nullptr;
    active_ids_.clear();
    const auto finish = [&](Pending& p, Response resp) {
      resp.queue_us = us_between(p.submitted, dispatch);
      resp.exec_us = us_between(dispatch, done);
      resp.latency_us = us_between(p.submitted, done);
      resolve_locked(p, std::move(resp));
    };

    if (trip != sim::StopCause::kNone) {
      const auto now = Clock::now();
      const auto hit = [&](const Pending& p) {
        switch (trip) {
          case sim::StopCause::kCancelled:
            return cancel_requested_.count(p.id) > 0;
          case sim::StopCause::kDeadline:
            return p.has_deadline() && now >= p.deadline;
          default:
            return true;  // watchdog: the whole dispatch is the victim
        }
      };
      // A trip that hits no member cannot happen for deadline (monotonic
      // clock) or cancel (the requested id is a batch member); if one did,
      // resolving the whole batch keeps the loop terminating.
      const bool any_hit = std::any_of(batch.begin(), batch.end(), hit);
      Response resp;
      resp.status =
          trip == sim::StopCause::kDeadline   ? Status::kDeadlineExceeded
          : trip == sim::StopCause::kWatchdog ? Status::kWatchdogTimeout
                                              : Status::kCancelled;
      resp.message = error;
      std::vector<Pending> keep;
      for (Pending& p : batch) {
        if (any_hit && !hit(p)) keep.push_back(std::move(p));
        else finish(p, resp);
      }
      batch = std::move(keep);
      continue;
    }

    ++stats_.batches;
    if (!failed && options_.watchdog_factor > 0.0) {
      // Learn the modeled cost per request for this plan key; the next
      // dispatch of the key gets a watchdog budget from it.
      baseline_us_[batch.front().fuse_key] =
          (modeled_exit - modeled_entry) / static_cast<double>(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Response resp;
      if (failed) {
        resp.status = Status::kFailed;
        resp.message = error;
      } else {
        resp.status = Status::kOk;
        resp.digest = digests[i];
        resp.selected = selected[i];
        resp.fused = n > 1;
        resp.batch_size = n;
        resp.cache_hit = cache_hit;
      }
      finish(batch[i], std::move(resp));
    }
    break;
  }
}

}  // namespace pup::service
