// High-level runtime facade -- the entry points an HPF/F90 compiler's
// generated code would call.
//
// A Runtime owns the simulated machine and provides array construction from
// host data plus the transformational intrinsics with automatic scheme
// selection (PackScheme::kAuto / the Section 6.4 model) as the default.
// The lower-level API (core/pack.hpp etc.) stays available for callers that
// want explicit control; everything here is a thin, documented veneer.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/array_reductions.hpp"
#include "core/mask_reductions.hpp"
#include "core/merge.hpp"
#include "core/pack.hpp"
#include "core/pack_redistribute.hpp"
#include "core/recovery.hpp"
#include "core/shift.hpp"
#include "core/transpose.hpp"
#include "core/unpack.hpp"
#include "dist/dist_array.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace pup {

class Runtime {
 public:
  /// A runtime over `nprocs` simulated processors configured by `options`
  /// (by default the CM-5 cost model CostModel::cm5(), a crossbar, and
  /// sequential local phases).
  explicit Runtime(int nprocs, sim::MachineOptions options = {})
      : machine_(nprocs, std::move(options)) {}

  sim::Machine& machine() { return machine_; }
  int nprocs() const { return machine_.nprocs(); }

  /// Operation-level recovery policy (disabled by default); consumed by
  /// plan::ResilientExecutor, which takes a Runtime directly.  Mutable so a
  /// caller can tighten or disable recovery between operations.
  RecoveryPolicy& recovery() { return recovery_; }
  const RecoveryPolicy& recovery() const { return recovery_; }

  /// Distributes host data block-cyclically: `procs[k]` processors and
  /// block size `blocks[k]` along dimension k.
  template <typename T>
  dist::DistArray<T> distribute(std::span<const T> host,
                                std::vector<dist::index_t> extents,
                                std::vector<int> procs,
                                std::vector<dist::index_t> blocks) {
    auto d = dist::Distribution(dist::Shape(std::move(extents)),
                                dist::ProcessGrid(std::move(procs)),
                                std::move(blocks));
    PUP_REQUIRE(static_cast<dist::index_t>(host.size()) == d.global().size(),
                "distribute: host data has " << host.size()
                                             << " elements, shape needs "
                                             << d.global().size());
    return dist::DistArray<T>::scatter(std::move(d), host);
  }

  /// V = PACK(A, M) with automatic scheme selection.
  template <typename T>
  PackResult<T> pack(const dist::DistArray<T>& array,
                     const dist::DistArray<mask_t>& mask) {
    PackOptions opt;
    opt.scheme = PackScheme::kAuto;
    return ::pup::pack(machine_, array, mask, opt);
  }

  /// V = PACK(A, M, VECTOR) -- F90 padding semantics.
  template <typename T>
  PackResult<T> pack(const dist::DistArray<T>& array,
                     const dist::DistArray<mask_t>& mask,
                     const dist::DistArray<T>& vector) {
    PackOptions opt;
    opt.scheme = PackScheme::kAuto;
    return ::pup::pack(machine_, array, mask, vector, opt);
  }

  /// A = UNPACK(V, M, F).
  template <typename T>
  UnpackResult<T> unpack(const dist::DistArray<T>& v,
                         const dist::DistArray<mask_t>& mask,
                         const dist::DistArray<T>& field) {
    return ::pup::unpack(machine_, v, mask, field);
  }

  /// PACK with a preliminary cyclic-to-block redistribution (Section 6.3).
  template <typename T>
  PackResult<T> pack_via_redistribution(const dist::DistArray<T>& array,
                                        const dist::DistArray<mask_t>& mask,
                                        RedistributionScheme scheme) {
    return ::pup::pack_with_redistribution(machine_, array, mask, scheme);
  }

  /// COUNT / ANY / ALL over a distributed mask.
  std::int64_t count(const dist::DistArray<mask_t>& mask) {
    return ::pup::count(machine_, mask);
  }
  bool any(const dist::DistArray<mask_t>& mask) {
    return ::pup::any(machine_, mask);
  }
  bool all(const dist::DistArray<mask_t>& mask) {
    return ::pup::all(machine_, mask);
  }

  /// MERGE / CSHIFT / EOSHIFT / TRANSPOSE.
  template <typename T>
  dist::DistArray<T> merge(const dist::DistArray<T>& tsource,
                           const dist::DistArray<T>& fsource,
                           const dist::DistArray<mask_t>& mask) {
    return ::pup::merge(machine_, tsource, fsource, mask);
  }
  template <typename T>
  dist::DistArray<T> cshift(const dist::DistArray<T>& array, int dim,
                            dist::index_t shift) {
    return ::pup::cshift(machine_, array, dim, shift);
  }
  template <typename T>
  dist::DistArray<T> eoshift(const dist::DistArray<T>& array, int dim,
                             dist::index_t shift, const T& boundary) {
    return ::pup::eoshift(machine_, array, dim, shift, boundary);
  }
  template <typename T>
  dist::DistArray<T> transpose(const dist::DistArray<T>& matrix) {
    return ::pup::transpose(machine_, matrix);
  }

  /// SUM / MAXVAL / MINVAL with optional masks.
  template <typename T>
  T sum(const dist::DistArray<T>& array,
        const dist::DistArray<mask_t>* mask = nullptr) {
    return ::pup::sum(machine_, array, mask);
  }
  template <typename T>
  T maxval(const dist::DistArray<T>& array,
           const dist::DistArray<mask_t>* mask = nullptr) {
    return ::pup::maxval(machine_, array, mask);
  }
  template <typename T>
  T minval(const dist::DistArray<T>& array,
           const dist::DistArray<mask_t>* mask = nullptr) {
    return ::pup::minval(machine_, array, mask);
  }

  /// Time accounting for the busiest processor, by category.
  double max_us(sim::Category c) const { return machine_.max_us(c); }
  double max_total_us() const { return machine_.max_total_us(); }
  void reset_accounting() { machine_.reset_accounting(); }

 private:
  sim::Machine machine_;
  RecoveryPolicy recovery_;
};

}  // namespace pup
