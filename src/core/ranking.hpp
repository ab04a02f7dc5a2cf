// Parallel ranking algorithm (paper, Section 5).
//
// Given a distributed mask array M (block-cyclic over a d-dimensional
// processor grid), computes, for every true element, its *rank*: the number
// of true elements preceding it in array element order.  No mask or array
// data moves between processors; only the small per-dimension base-rank
// arrays PS_i / RS_i are combined with the vector prefix-reduction-sum.
//
// Structure (Figures 1-2 of the paper):
//   Initial step   -- local scan over *slices* (runs of W_0 contiguous local
//                     elements along dimension 0): PS_0[s] = RS_0[s] = number
//                     of selected elements in slice s.
//   Intermediate i -- (1) vector prefix-reduction-sum on PS_i/RS_i across the
//                     P_i processors of grid dimension i; (2) a segmented
//                     local exclusive prefix over RS_i (segments of
//                     W_{i+1} x T_i entries) folded into PS_i; (3) seeding of
//                     PS_{i+1}/RS_{i+1} with per-block totals.
//   Final step     -- fold the d base-rank arrays into PS_f (one entry per
//                     slice); the rank of a selected element is its initial
//                     in-slice rank plus PS_f[slice].  (A W_0 = 1 counting
//                     scan keeps only the selected slices' entries.)
//
// The ranking output is scheme-agnostic: SSS consumers iterate the recorded
// per-element infos; CSS/CMS consumers re-derive everything from the slice
// counter array PS_c and PS_f (Section 6.1).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "coll/group.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "core/mask.hpp"
#include "dist/dist_array.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "support/uninit.hpp"

namespace pup {

struct RankingOptions {
  coll::PrsAlgorithm prs = coll::PrsAlgorithm::kAuto;
  /// Wire width of the PRS payloads: the narrowest each level proves
  /// (kAuto), or int64 throughout as in the paper (k64).
  coll::WireWidth wire_width = coll::WireWidth::kAuto;
  /// Record per-element info during the initial scan (the simple storage
  /// scheme).  The compact schemes leave this off and pay a second scan.
  bool record_infos = false;
};

/// Mask-independent schedule for one intermediate step of the ranking
/// algorithm (one array dimension).
struct RankingStep {
  /// Size of the base-rank arrays PS_i / RS_i: T_i * prod_{k>i} L_k.
  dist::index_t level_size = 0;
  /// Segment length of the segmented exclusive prefix over RS_i
  /// (W_{i+1} x T_i entries; level_size on the last step).
  dist::index_t seg_len = 0;
  /// PRS groups: one per line of the processor grid along dimension i,
  /// ordered by the coordinate along i.
  std::vector<coll::Group> groups;
  /// The PRS algorithm, resolved at compile time from the group size P_i,
  /// level_size and wire_bytes (never kAuto or kPaperRule), so every
  /// execution and every batched request runs the same schedule.
  coll::PrsAlgorithm prs = coll::PrsAlgorithm::kDirect;
  /// Bytes per PS_i/RS_i entry on the wire: 1, 2, 4 or 8, resolved at
  /// compile time.  Every entry, prefix and total of the level's PRS
  /// counts elements of one sub-block and is at most
  /// level_bound(dist, i); kAuto picks the narrowest unsigned width that
  /// holds it, k64 always 8.
  std::size_t wire_bytes = sizeof(std::int64_t);
};

/// Everything about the ranking algorithm that depends only on the mask's
/// *distribution* (geometry, segment boundaries, PRS round schedule) and
/// not on the mask values.  Compiled once by compile_ranking_schedule() and
/// reusable across any number of rank_masks() executions; immutable after
/// compilation.
struct RankingSchedule {
  dist::Distribution dist;
  int d = 0;
  std::vector<dist::index_t> L;  ///< local extent per dimension (-1: ragged)
  std::vector<dist::index_t> W;  ///< block size per dimension
  std::vector<dist::index_t> T;  ///< tiles per dimension
  std::int64_t slices = 0;       ///< C = T_0 * prod_{k>=1} L_k
  std::int64_t slice_width = 0;  ///< W_0
  int info_stride = 0;           ///< sss_info_stride(d)
  std::vector<RankingStep> steps;  ///< one per dimension
};

/// Validates the distribution's divisibility/int32 contracts and hoists all
/// mask-independent ranking state.  This is the *only* place geometry is
/// (re)computed; ranking_schedules_compiled() counts its invocations so
/// tests can assert that a plan-cache hit recompiles nothing.  Each step's
/// PRS algorithm is resolved under `cost`, the cost model of the machine
/// that will run the schedule (coll::resolve_prs).
RankingSchedule compile_ranking_schedule(
    const dist::Distribution& dist, int nprocs,
    coll::PrsAlgorithm prs = coll::PrsAlgorithm::kAuto,
    coll::WireWidth width = coll::WireWidth::kAuto,
    const sim::CostModel& cost = sim::CostModel::cm5());

/// The bound B_i on every entry of level i's PRS (its input counts, the
/// prefixes and the totals): P_i * W_i * prod_{k<i} N_k elements, the size
/// of the sub-block one total summarizes (saturating at INT64_MAX).  For a
/// ragged 1-D array it is P_0 * W_0.
std::int64_t level_bound(const dist::Distribution& dist, int level);

/// The narrowest unsigned wire width, in bytes (1, 2, 4 or 8), that holds
/// every value in [0, bound].
std::size_t wire_bytes_for(std::int64_t bound);

/// Bytes per index field in the redistribution stage: every index sent is
/// a local index into the receiver's share of the rank-one vector laid out
/// by `vdim`, and a CMS run's count is at most that share's length.  kAuto
/// gives the narrowest width holding [0, largest local extent] -- processor
/// 0's, which never owns fewer elements than another -- so every rank
/// derives the same width from the layout alone; k64 gives 8.
std::size_t index_wire_bytes(const dist::BlockCyclicDim& vdim,
                             coll::WireWidth width);

/// The same rule given the largest local extent itself, for a layout not
/// yet built (the static verifier's bound on an unpinned PACK result).
std::size_t index_wire_bytes(std::int64_t largest_extent,
                             coll::WireWidth width);

/// Process-wide count of compile_ranking_schedule() invocations.
std::int64_t ranking_schedules_compiled();

/// Width in 32-bit words of one simple-storage-scheme record for a rank-d
/// array: the paper's d+3 items are a local index on each dimension, the
/// tile number on dimension 0, the initial in-slice rank, and (added during
/// the final step) the destination processor.  We store the first d+2
/// during the initial scan, laid out as [l_0, ..., l_{d-1}, tile_0, rank];
/// the destination is recomputed rather than stored, as allowed by the
/// paper's footnote.
constexpr int sss_info_stride(int rank) { return rank + 2; }

struct ProcRanking {
  /// Final base-rank array PS_f: for slice s, the global rank of the first
  /// selected element of that slice.  Size C -- except in the counting
  /// scan (record_infos off) with W_0 = 1, where every slice is one local
  /// element and PS_f comes back gathered under the mask: entry k is the
  /// global rank of the k-th selected local element in scan order, and
  /// the size is `packed`.  The simple storage scheme keeps all C entries.
  support::UninitVector<std::int64_t> ps_f;
  /// Slice counter array PS_c: selected elements per slice.  Size C when
  /// W_0 > 1.  Empty when W_0 = 1, in both scans: slice s is local element
  /// s, so its count is its mask byte (mask.local(rank)[s] != 0, and zero
  /// for a ragged 1-D slice past the local extent).
  support::UninitVector<std::int32_t> counts;
  /// Simple-storage-scheme records (empty unless record_infos): packed
  /// (d+2)-word records, sss_info_stride(d) words each, in scan order.
  std::vector<std::int32_t> info_words;
  /// E_i: number of locally selected elements.
  std::int64_t packed = 0;
};

/// Narrows a per-slice population (or in-slice rank) to the int32 storage
/// used by `ProcRanking::counts` and the packed SSS records.  Global ranks
/// are int64, but anything accumulated *within one slice* is bounded by the
/// slice width; this guard makes that assumption explicit instead of
/// silently truncating when W_0 exceeds 2^31 - 1 elements.
inline std::int32_t checked_slice_count(std::int64_t count) {
  PUP_REQUIRE(count >= 0 &&
                  count <= std::numeric_limits<std::int32_t>::max(),
              "per-slice count " << count
                                 << " does not fit the int32 slice-record "
                                    "storage (slice width too large)");
  return static_cast<std::int32_t>(count);
}

/// A decoded simple-storage-scheme record.
struct SssRecord {
  dist::index_t slice;
  dist::index_t local_linear;
  std::int32_t init_rank;
};

/// Decodes one (d+2)-word record given the processor's local shape and the
/// dimension-0 block size.  Every word is read, matching the memory-access
/// profile the paper attributes to the simple storage scheme.
inline SssRecord decode_sss_record(const std::int32_t* rec,
                                   const dist::Shape& lshape,
                                   dist::index_t w0) {
  const int d = lshape.rank();
  const dist::index_t t0_count = lshape.extent(0) / w0;
  dist::index_t slice = 0;
  dist::index_t local_linear = 0;
  for (int k = d - 1; k >= 1; --k) {
    slice = slice * lshape.extent(k) + rec[k];
    local_linear = local_linear * lshape.extent(k) + rec[k];
  }
  slice = slice * t0_count + rec[d];  // tile number on dimension 0
  local_linear = local_linear * lshape.extent(0) + rec[0];
  return SssRecord{slice, local_linear, rec[d + 1]};
}

struct RankingResult {
  /// Total number of selected elements (identical on all processors).
  std::int64_t size = 0;
  /// Number of slices per processor, C = (prod_{k>=1} L_k) * T_0.
  std::int64_t slices = 0;
  /// Slice width W_0.
  std::int64_t slice_width = 0;
  std::vector<ProcRanking> procs;  // indexed by machine rank
};

/// Runs the parallel ranking algorithm on `mask`.  The mask's distribution
/// must satisfy the paper's divisibility assumptions (P_k*W_k | N_k) and its
/// grid must have exactly machine.nprocs() processors.
RankingResult rank_mask(sim::Machine& machine,
                        const dist::DistArray<mask_t>& mask,
                        const RankingOptions& options = {});

/// Batched ranking: ranks B masks that all share `schedule`'s distribution,
/// fusing the d PRS rounds of the B requests into one widened vector
/// prefix-reduction-sum per dimension (the B per-rank PS_i payloads are
/// concatenated, so each round pays one tau startup instead of B).  The
/// int64 element-wise sums commute with concatenation, so results[b] is
/// element-identical to rank_mask(masks[b]).  With B == 1 the emitted
/// messages, phases, and charges are bit-identical to rank_mask.
std::vector<RankingResult> rank_masks(
    sim::Machine& machine, const RankingSchedule& schedule,
    std::span<const dist::DistArray<mask_t>* const> masks,
    bool record_infos = false);

}  // namespace pup
