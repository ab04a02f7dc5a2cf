// Communication IR: the symbolic schedule a compiled plan will execute.
//
// The paper's cost model (tau + mu*m per message, round-synchronized
// schedules) makes a compiled RankingSchedule / PackPlan / UnpackPlan fully
// analyzable without running the machine: everything about the message
// protocol -- who posts to whom in which round, under which tag, how many
// bytes, and what each endpoint must be charged -- is a pure function of
// the plan.  expand.hpp lowers a plan into this IR; verifier.hpp proves
// properties over it; mutate.hpp seeds defects into it so tests can show
// the verifier has no escapes; trace_check.hpp replays a real execution
// against it.
//
// Two size regimes coexist in one schedule:
//
//   * exact transfers -- the ranking stage's PRS payloads are the base-rank
//     arrays PS_i/RS_i, whose length is mask-independent (level_size * B
//     int64 words).  Bytes are known exactly and cost conformance is an
//     equality.
//   * bounded transfers -- the redistribution stage's payloads depend on
//     the mask values, but every (src, dst) pair has a static upper bound
//     (sender capacity x per-element wire cost, clipped by the receiver's
//     capacity when the result layout is pinned).  Such transfers are
//     `optional` (the implementation skips empty messages) and cost
//     conformance is an upper bound.
//
// The IR is deliberately plain data: the mutation harness edits it freely,
// and the verifier never needs the plan back.
// lint: allow-no-preconditions -- plain data carriers, validated by the
// verifier rather than at construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pup::analysis::statics {

/// One side of a transfer inside a round.  The expansion emits every
/// transfer twice -- once in RoundIR::posts (the sender's view) and once in
/// RoundIR::recvs (the blocking receive that must drain it) -- so that
/// communication matching is a real proof obligation: the verifier shows the
/// two multisets are equal, and a dropped post / orphaned receive is
/// representable (and detectable) in the IR.
struct Xfer {
  int src = -1;
  int dst = -1;
  int tag = 0;
  /// Exact payload bytes, or the upper bound when `bounded`.
  std::size_t bytes = 0;
  /// True for mask-dependent transfers: the message may be skipped when
  /// empty at run time and `bytes` is an upper bound, not an equality.
  bool bounded = false;
};

/// Modeled communication time one rank must be charged for a round.  For
/// exact rounds this is an equality against tau + mu*m bookkeeping; for
/// bounded rounds it is an upper bound.
struct RankCharge {
  int rank = -1;
  double us = 0.0;
};

/// One synchronized round: all posts happen before any receive blocks, the
/// round drains fully, and under kMaxOneExchange each rank sends at most
/// one and receives at most one message.
struct RoundIR {
  std::vector<Xfer> posts;
  std::vector<Xfer> recvs;
  std::vector<RankCharge> charges;
  /// Indices (within the owning block) of rounds that must complete before
  /// this one starts.  The expansion emits the natural chain r-1 -> r;
  /// dependency-driven schedules (and seeded mutations) may emit anything,
  /// which is exactly why the verifier topologically sorts instead of
  /// assuming the chain.
  std::vector<int> deps;
};

/// Round discipline, mirroring sim::RoundDiscipline without a sim include
/// so the IR stays dependency-free.
enum class Discipline {
  kMaxOneExchange,
  kUnordered,  ///< tag discipline + full drain only (naive M2M)
};

/// One collective block: a named scope with declared tags, a discipline,
/// and its rounds.  Blocks execute in sequence; rounds within a block obey
/// the block's dependency edges.
struct BlockIR {
  std::string name;          ///< e.g. "prs.direct", "alltoallv.linear"
  std::vector<int> tags;     ///< tags the block may put on the wire
  Discipline discipline = Discipline::kMaxOneExchange;
  std::vector<RoundIR> rounds;
  /// Direct modeled charges with no message attached (the control-network
  /// PRS streams the vector through combine hardware: tau + mu*M per
  /// member, zero point-to-point messages).
  std::vector<RankCharge> direct_charges;
  /// Ranks participating in this block (used for cost aggregation).
  std::vector<int> ranks;
  /// Bounded (many-to-many) blocks: the wire bytes each element's bound
  /// prices, and how many of them are index fields.  Power-of-two direct
  /// PRS blocks: the vector's entries and their level width in
  /// elem_bytes.  0 elsewhere.  The verifier never reads them;
  /// the mutation harness re-prices transfers with them.
  std::size_t elem_bytes = 0;
  std::size_t index_bytes = 0;
  std::size_t entries = 0;
};

/// The full symbolic schedule of one plan execution.
struct CommSchedule {
  int nprocs = 0;
  std::vector<BlockIR> blocks;
  /// Human-readable provenance ("pack plan, CMS, B=2, grid 4x4, ...").
  std::string origin;
};

}  // namespace pup::analysis::statics
