// Request/response vocabulary for the multi-tenant pack/unpack service.
//
// The service layer (service/server.hpp) turns the PACK/UNPACK library
// primitives into a long-running server: tenants register *named
// distributed arrays* once and then stream pack/unpack requests against
// them from concurrent client threads.  This header defines the wire-level
// vocabulary -- requests, typed rejections, responses, and per-tenant
// accounting -- with no server machinery, so clients and tools can speak
// the protocol without pulling in the scheduler.
//
// Design points mirrored from the library underneath:
//
//   * Requests carry a *concrete* scheme (kAuto is a per-call density
//     inspection and would defeat request fusion by key; the admission
//     layer rejects it as kBadRequest rather than silently resolving it).
//   * Responses identify results by an FNV-1a digest of the gathered data
//     plus the selected count instead of shipping arrays back -- the tests
//     compare digests for bit-identity across fusion, faults, and
//     thread counts, exactly like the library's own determinism suites.
//   * All latency fields are real wall-clock microseconds (queue wait,
//     execution, end to end); modeled tau + mu*m time stays on the
//     server's machine where every bench already reads it.
#pragma once

#include <cstdint>
#include <string>

#include "core/schemes.hpp"
#include "dist/dist_array.hpp"
#include "support/check.hpp"

namespace pup::service {

/// Tenants are named; names are the unit of quota accounting.
using Tenant = std::string;

/// Why admission refused a request.  Rejections are typed responses, never
/// exceptions: an over-quota tenant must not be able to crash or stall the
/// server, only to receive Rejected{reason}.
enum class RejectReason {
  kUnknownTenant,   ///< tenant was never registered
  kUnknownArray,    ///< tenant has no array of that name
  kBadRequest,      ///< malformed request (kAuto scheme, layout mismatch,
                    ///< negative deadline)
  kInFlightQuota,   ///< tenant's in-flight request quota is exhausted
  kByteBudget,      ///< admitting the payload would exceed the global budget
  kShutdown,        ///< server is draining; no new work accepted.  Also the
                    ///< reason a request *admitted* but still queued at
                    ///< shutdown() resolves with: the queue is dropped, never
                    ///< executed, and every promise resolves deterministically
                    ///< (counted as shed, not rejected, in the stats)
  kOverload,        ///< shed by overload control: the queue-pressure signal
                    ///< (depth x queued bytes vs. Options::overload_factor x
                    ///< byte budget) evicted this request as the lowest-
                    ///< priority / nearest-deadline / oldest victim
};

inline const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kUnknownTenant: return "unknown-tenant";
    case RejectReason::kUnknownArray: return "unknown-array";
    case RejectReason::kBadRequest: return "bad-request";
    case RejectReason::kInFlightQuota: return "inflight-quota";
    case RejectReason::kByteBudget: return "byte-budget";
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kOverload: return "overload";
  }
  return "?";
}

enum class Status {
  kOk,        ///< executed; digest/selected describe the result
  kRejected,  ///< refused at admission or shed before execution (overload,
              ///< shutdown); reason says why
  kFailed,    ///< admitted but execution raised (message carries what())
  kDeadlineExceeded,  ///< the request's deadline_us passed: either shed from
                      ///< the queue before any machine time was spent, or
                      ///< tripped cooperatively at a round boundary
                      ///< mid-execution and rolled back
  kCancelled,         ///< Server::cancel(id) resolved it: immediately while
                      ///< queued, or via a round-boundary trip + rollback
                      ///< while executing
  kWatchdogTimeout,   ///< the hang watchdog tripped: the dispatch exceeded
                      ///< Options::watchdog_factor x its modeled-cost
                      ///< baseline (e.g. a delay-fault storm), was rolled
                      ///< back, and surfaced typed instead of wedging
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kFailed: return "failed";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kCancelled: return "cancelled";
    case Status::kWatchdogTimeout: return "watchdog-timeout";
  }
  return "?";
}

/// Per-tenant priority class for overload shedding: when the queue-pressure
/// signal fires, kBestEffort work is evicted before kStandard before
/// kCritical.  Priorities only matter under overload (Options::
/// overload_factor > 0); otherwise they cost nothing and change nothing.
enum class Priority {
  kBestEffort = 0,
  kStandard = 1,
  kCritical = 2,
};

inline const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kBestEffort: return "best-effort";
    case Priority::kStandard: return "standard";
    case Priority::kCritical: return "critical";
  }
  return "?";
}

/// The service's element type.  The serving path is deliberately
/// monomorphic (8-byte elements, like the benches): plans are keyed by
/// element *width*, so one width serves the whole fleet and fusion never
/// has to consider heterogeneous element sizes.
using Element = std::int64_t;

/// V = PACK(array, mask): select from the tenant's registered array under
/// a caller-supplied mask laid out identically to it.
struct PackRequest {
  Tenant tenant;
  std::string array;             ///< registered array name
  dist::DistArray<mask_t> mask;  ///< same layout as the array
  PackScheme scheme = PackScheme::kCompactMessage;  ///< must be concrete
  /// Optional relative deadline in real wall-clock microseconds from
  /// submission; 0 means none (the default costs nothing).  An expired
  /// request is shed from the queue before any machine time is spent on
  /// it, or tripped at the next round boundary if already executing;
  /// either way the future resolves Status::kDeadlineExceeded.  Negative
  /// values reject as kBadRequest.
  double deadline_us = 0.0;
};

/// A = UNPACK(vector, mask, field): scatter a caller-supplied vector into
/// a copy of the tenant's registered field array.
struct UnpackRequest {
  Tenant tenant;
  std::string field;             ///< registered array name (field + layout)
  dist::DistArray<mask_t> mask;  ///< same layout as the field
  dist::DistArray<Element> vector;  ///< rank-one input vector
  UnpackScheme scheme = UnpackScheme::kCompactStorage;  ///< must be concrete
  double deadline_us = 0.0;  ///< as PackRequest::deadline_us
};

struct Response {
  Status status = Status::kRejected;
  RejectReason reason = RejectReason::kShutdown;  ///< valid when kRejected
  std::string message;        ///< rejection detail / execution error
  std::uint64_t digest = 0;   ///< FNV-1a of the gathered result + count
  std::int64_t selected = 0;  ///< selected (pack) / consumed (unpack) count
  bool fused = false;         ///< served inside a fused pack_batch
  std::size_t batch_size = 0; ///< requests in the executed batch
  bool cache_hit = false;     ///< plan came from the shared PlanCache
  double queue_us = 0.0;      ///< submit -> dispatch (real wall clock)
  double exec_us = 0.0;       ///< dispatch -> completion
  double latency_us = 0.0;    ///< submit -> completion
};

/// Per-tenant accounting, readable at any time via Server::tenant_stats;
/// ServerStats below mirrors it for the whole server.  Every admitted
/// request resolves into exactly one terminal bucket, so at quiescence the
/// balance holds exactly:
///
///   admitted == completed + failed + shed + cancelled
///               + deadline_misses + watchdog_trips
///
/// and the byte budget unwinds to bytes_in_flight == 0 -- the invariants
/// the accounting test and the chaos-soak harness assert.  `rejected_*`
/// counts never-admitted submissions (admission refused the request before
/// it touched the queue); `shed` counts admitted requests terminated
/// *without execution* by overload eviction or shutdown.  The cache and
/// fusion counts cover completed requests only; a fused batch's single
/// shared PlanCache lookup counts once for every request it served.
struct TenantStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_quota = 0;  ///< kInFlightQuota
  std::int64_t rejected_bytes = 0;  ///< kByteBudget
  std::int64_t rejected_other = 0;  ///< everything else
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;            ///< evicted while queued (kOverload or
                                    ///< queued-at-shutdown kShutdown)
  std::int64_t cancelled = 0;       ///< resolved kCancelled
  std::int64_t deadline_misses = 0; ///< resolved kDeadlineExceeded
  std::int64_t watchdog_trips = 0;  ///< resolved kWatchdogTimeout
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t fused = 0;      ///< requests served inside a fused batch
  std::int64_t singleton = 0;  ///< requests served alone
};

/// Whole-server accounting; same balance invariant as TenantStats.
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;            ///< overload evictions + queue dropped
                                    ///< at shutdown
  std::int64_t cancelled = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t watchdog_trips = 0;
  std::int64_t brownouts = 0;        ///< brown-out engagements (window
                                     ///< collapsed under queue-wait p95)
  std::int64_t batches = 0;          ///< execution dispatches
  std::int64_t fused_requests = 0;   ///< completed requests served in
                                     ///< batches >= 2
  std::size_t bytes_in_flight = 0;   ///< admitted-but-incomplete payload
  std::size_t peak_bytes_in_flight = 0;
};

/// FNV-1a's 64-bit offset basis: the hash of zero bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over a byte range; the service's result-identity hash.  Passing
/// the previous hash as `h` continues the same byte stream.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of a gathered result vector plus its logical count.
inline std::uint64_t result_digest(const std::vector<Element>& data,
                                   std::int64_t count) {
  std::uint64_t h = fnv1a(data.data(), data.size() * sizeof(Element));
  return fnv1a(&count, sizeof(count), h);
}

/// The same digest streamed over a distributed result's runs in global
/// order: equal to result_digest(data.gather(), count) without building
/// the gathered vector.
inline std::uint64_t result_digest(const dist::DistArray<Element>& data,
                                   std::int64_t count) {
  std::uint64_t h = kFnv1aBasis;
  data.for_each_run([&](dist::index_t, int owner, dist::index_t l,
                        dist::index_t n) {
    h = fnv1a(data.local(owner).data() + l,
              static_cast<std::size_t>(n) * sizeof(Element), h);
  });
  return fnv1a(&count, sizeof(count), h);
}

}  // namespace pup::service
