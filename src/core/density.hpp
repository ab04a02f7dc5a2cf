// Global mask-density estimate for the kAuto scheme selectors (paper,
// Section 6.4), shared by PACK and UNPACK.
#pragma once

#include <cstdint>
#include <vector>

#include "coll/group.hpp"
#include "coll/reduce.hpp"
#include "core/kernels/kernels.hpp"
#include "core/mask.hpp"
#include "dist/dist_array.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace pup::detail {

/// Strided density sampling per rank (about 4096 probes each), then a
/// 2-element all-reduce of (sampled, true) so every rank holds the same
/// totals.  The stride spans the *full* local extent, never a prefix: a
/// dense-prefix/sparse-suffix mask would make a prefix sample report
/// density ~1.0 and pick a compact scheme when SSS is optimal.  Each rank
/// writes only its own `stats` slot, so the phase is safe under the
/// threaded execution policy.  Each rank derives the density from its own
/// copy, as an SPMD implementation would; the agreement check documents
/// and enforces that the resulting scheme decision is global.
inline double sample_density(sim::Machine& machine,
                             const dist::DistArray<mask_t>& mask) {
  const int P = machine.nprocs();
  PUP_REQUIRE(mask.dist().nprocs() == P,
              "mask grid size " << mask.dist().nprocs()
                                << " != machine size " << P);
  std::vector<std::vector<std::int64_t>> stats(static_cast<std::size_t>(P));
  machine.local_phase([&](int rank) {
    const auto local = mask.local(rank);
    constexpr std::size_t kTargetSamples = 4096;
    const std::size_t stride =
        local.size() <= kTargetSamples ? 1 : local.size() / kTargetSamples;
    std::int64_t sampled = 0;
    std::int64_t trues = 0;
    if (stride == 1) {
      sampled = static_cast<std::int64_t>(local.size());
      trues = kernels::mask_count(local.data(), local.size());
    } else {
      for (std::size_t i = 0; i < local.size(); i += stride) {
        trues += (local[i] != 0);
        ++sampled;
      }
    }
    stats[static_cast<std::size_t>(rank)] = {sampled, trues};
  });
  coll::allreduce_sum(machine, coll::Group::world(P), stats,
                      sim::Category::kPrs);
  double density = 0.0;
  for (int rank = 0; rank < P; ++rank) {
    const auto& s = stats[static_cast<std::size_t>(rank)];
    const double mine =
        s[0] > 0 ? static_cast<double>(s[1]) / static_cast<double>(s[0]) : 0.0;
    if (rank == 0) {
      density = mine;
    } else {
      PUP_CHECK(mine == density,
                "rank " << rank << " sampled a different density than rank "
                        << "0 after the density all-reduce");
    }
  }
  return density;
}

}  // namespace pup::detail
