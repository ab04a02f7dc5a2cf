// Observer interface for machine instrumentation.
//
// Split from sim/instrumentation.hpp (which provides the RAII annotation
// scopes) so that Machine can depend on the observer type without a header
// cycle.  Every hook has an empty default body: observers override only what
// they need.  A machine holds a list of observers (Machine::add_observer)
// and notifies them in attach order, so the oldest observer handles each
// event first; with none attached it forwards nothing.
//
// Events come in three shapes: scoped annotations (collective, round and
// phase begin/end pairs), point events (on_event: one call per injected
// fault, reliable-transport action, cache lookup, service trip, ...), and
// the typed epoch hooks (on_checkpoint / on_rollback), which fire after the
// machine has captured or restored its state so an observer can snapshot
// or restore its own.
//
// Thread-safety contract: the Machine serializes all observer notification
// through one internal mutex, so hook implementations never run
// concurrently with each other and need no locking of their own -- this
// holds under both the sequential and the threaded execution policy
// (sim/exec_policy.hpp).  Transport events additionally only originate on
// the machine's calling thread, never from inside local-phase bodies.
#pragma once

#include <vector>

#include "sim/timing.hpp"

namespace pup::sim {

struct Message;

/// How a collective uses the transport within its annotated rounds.
enum class RoundDiscipline {
  /// Round-synchronized: every processor sends at most one message and
  /// receives at most one message per round, and a round fully drains
  /// (the linear-permutation / tree-schedule contract).
  kMaxOneExchange,
  /// No round structure (e.g. the naive many-to-many ablation schedule);
  /// only tag discipline and full drain at collective end apply.
  kUnordered,
};

/// Static description of one collective operation, declared on entry.
struct CollectiveInfo {
  const char* name = "";
  std::vector<int> tags;  ///< tags the collective may post/receive
  RoundDiscipline discipline = RoundDiscipline::kMaxOneExchange;
};

class MachineObserver {
 public:
  virtual ~MachineObserver() = default;

  // --- transport events ------------------------------------------------
  virtual void on_post(const Message& /*m*/, Category /*cat*/) {}
  virtual void on_receive(int /*rank*/, const Message& /*m*/) {}
  /// A delay-faulted message the network discarded unreceived when the
  /// outermost annotation scope closed (see Machine::flush_delayed and the
  /// end-of-operation drain).  The post was observed and traced; this hook
  /// closes its lifecycle so validators can retire the matching record.
  virtual void on_expire(const Message& /*m*/) {}
  /// Modeled (analytical) communication time charged to a processor.  Real
  /// wall-clock time measured by ScopedRealTimer is *not* reported here,
  /// which keeps observer-derived digests deterministic.
  virtual void on_charge(int /*rank*/, Category /*cat*/, double /*us*/) {}

  // --- annotations ------------------------------------------------------
  virtual void on_collective_begin(const CollectiveInfo& /*info*/) {}
  virtual void on_round_begin() {}
  virtual void on_round_end() {}
  virtual void on_collective_end() {}
  virtual void on_phase_begin(const char* /*name*/) {}
  virtual void on_phase_end(const char* /*name*/) {}
  /// A named point event with no extent (e.g. "fault.drop",
  /// "reliable.nak", "plan.cache.hit", "service.deadline.miss").  Never a
  /// phase boundary: it may arrive mid-round with messages in flight.
  virtual void on_event(const char* /*name*/) {}
  virtual void on_reset() {}

  // --- epochs (sim/epoch.hpp) -------------------------------------------
  /// The machine captured an epoch checkpoint.
  virtual void on_checkpoint() {}
  /// The machine restored an epoch checkpoint; observer state kept outside
  /// the machine should return to what it was at the last on_checkpoint.
  virtual void on_rollback() {}
};

}  // namespace pup::sim
