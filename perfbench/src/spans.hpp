// Span recorder for the traced run.
//
// Attached to a Machine as its observer, it turns the annotations the
// library already emits (local_phase, ranking.*, pack.*, unpack.*, plan.*,
// service.*, every collective and every round) into spans: name, start,
// end, parent.  The benchmark opens a root span around each call it makes
// into the library (begin_op/end_op), and every span under that root shares
// its operation id.  Annotations that arrive with no root open -- a service
// dispatch running on the server's scheduler thread -- start a root of
// their own.  Spans stay in memory until the run ends.
//
// The machine serializes observer callbacks, so the hooks need no lock;
// begin_op/end_op must come from the thread that drives the machine.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/observer.hpp"

namespace perfbench {

class SpanRecorder final : public pup::sim::MachineObserver {
 public:
  enum class Kind : std::uint8_t { kOp, kPhase, kCollective, kRound };

  struct Span {
    std::string name;
    Kind kind = Kind::kOp;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int32_t parent = -1;  ///< index into spans(); -1 for a root
    std::int64_t op = 0;       ///< shared by every span of one operation
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens the root span of one benchmark-issued operation.
  void begin_op(const char* name) { open(name, Kind::kOp); }
  /// Closes the root opened by begin_op, and anything left open under it.
  void end_op();

  const std::vector<Span>& spans() const { return spans_; }

  void on_collective_begin(const pup::sim::CollectiveInfo& info) override {
    open(info.name, Kind::kCollective);
  }
  void on_collective_end() override { close(); }
  void on_round_begin() override { open("round", Kind::kRound); }
  void on_round_end() override { close(); }
  void on_phase_begin(const char* name) override { open(name, Kind::kPhase); }
  void on_phase_end(const char* /*name*/) override { close(); }

 private:
  void open(const char* name, Kind kind);
  void close();

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int64_t next_op_ = 0;
};

/// One operation's spans, rolled up.
struct OpRollup {
  std::string root;            ///< name of the root span
  double wall_us = 0.0;        ///< root span duration
  double local_phase_us = 0.0; ///< time inside local_phase spans
  int local_phases = 0;
  double prs_us = 0.0;         ///< time inside prs.* collectives
  double m2m_us = 0.0;         ///< time inside alltoallv.* collectives
  /// Per named phase: its duration minus the named phases and collectives
  /// nested in it (its own local phases stay in).  pack.compose, for
  /// instance, encloses the exchange and pack.decompose; what remains is
  /// the composition work.
  std::map<std::string, double> stage_us;
};

std::vector<OpRollup> rollup(const std::vector<SpanRecorder::Span>& spans);

/// Sets the span-derived per-layer metrics: the stage times (core.*),
/// coll.prs_us / coll.m2m_us, and sim.*.  Each is the median over the
/// operations whose root is `main_root` (the timed loop's operations) that
/// contain the span; a stage the timed loop never enters falls back to the
/// probe operations that do.
void put_span_metrics(Sheet& sheet, const std::vector<OpRollup>& ops,
                      const std::string& main_root);

}  // namespace perfbench
