// Scheme selectors and option structs for the PACK/UNPACK runtime.
// lint: allow-no-preconditions -- enums and plain option/counter structs.
#pragma once

#include <optional>

#include "coll/alltoallv.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "dist/layout.hpp"

namespace pup {

/// Storage / message-composition schemes for PACK (paper, Section 6).
enum class PackScheme {
  kSimpleStorage,    ///< SSS: per-element info saved during the initial scan
  kCompactStorage,   ///< CSS: re-derive from PS_c vs PS_f; second local scan
  kCompactMessage,   ///< CMS: CSS storage + run-length (segment) messages
  kAuto,             ///< choose via the Section 6.4 analytical model
};

/// Storage schemes for UNPACK (the paper evaluates SSS and CSS).
enum class UnpackScheme {
  kSimpleStorage,
  kCompactStorage,
  kAuto,  ///< choose via the Section 6.4 analytical model
};

/// Slice-scanning policy of the compact schemes' composition scan
/// (paper, Section 6.1): stop as soon as the slice's counted elements have
/// been collected (method 1, the paper's choice, kept for the ablation the
/// paper reports) or always scan the whole slice (method 2, the default:
/// its branch-free kernel measured 1.4-1.8x faster in every cell of
/// bench/ablation_schedules).  Modeled time does not depend on it.
enum class SliceScan {
  kStopEarly,
  kFullSlice,
};

struct PackOptions {
  PackScheme scheme = PackScheme::kCompactMessage;
  coll::PrsAlgorithm prs = coll::PrsAlgorithm::kAuto;
  coll::M2MSchedule schedule = coll::M2MSchedule::kLinearPermutation;
  SliceScan slice_scan = SliceScan::kFullSlice;
  /// Wire width of the ranking's PRS entries and of the redistribution
  /// stage's index fields (index_wire_bytes of the result layout).
  coll::WireWidth wire_width = coll::WireWidth::kAuto;
};

struct UnpackOptions {
  UnpackScheme scheme = UnpackScheme::kCompactStorage;
  coll::PrsAlgorithm prs = coll::PrsAlgorithm::kAuto;
  coll::M2MSchedule schedule = coll::M2MSchedule::kLinearPermutation;
  /// Wire width of the ranking's PRS entries and of the requests' index
  /// fields (index_wire_bytes of the vector's layout).
  coll::WireWidth wire_width = coll::WireWidth::kAuto;
};

/// Preliminary redistribution schemes for cyclically distributed inputs
/// (paper, Section 6.3).
enum class RedistributionScheme {
  kSelectedData,  ///< Red1: ship only selected elements (with global index)
  kWholeArrays,   ///< Red2: redistribute the input and mask arrays entirely
};

/// Per-processor counters matching the quantities of the Section 6.4 model.
struct ProcCounters {
  dist::index_t local_elems = 0;    ///< L  (local array size)
  dist::index_t slices = 0;         ///< C  (slices per processor)
  dist::index_t packed = 0;         ///< E_i (local selected elements)
  dist::index_t recv_elems = 0;     ///< elements received (<= E_a)
  dist::index_t segments_sent = 0;  ///< Gs_i (compact message scheme)
  dist::index_t segments_recv = 0;  ///< Gr_i
  dist::index_t bytes_sent = 0;     ///< redistribution payload shipped
  dist::index_t bytes_recv = 0;
};

}  // namespace pup
