// Table-driven communication detection (ref [7] of the paper).
//
// Redistribution needs, for every local element, the destination processor
// and destination local index under another distribution.  Doing that with
// per-element div/mod chains and temporary index vectors dominates the
// redistribution cost, so -- like the FALLS-style detection algorithms the
// paper cites -- we precompute small per-dimension lookup tables once:
//
//   owner_coord[k][g]  destination grid coordinate of global index g on dim k
//   local_idx[k][g]    destination local index of g on dim k
//
// A destination rank is then a dot product of coordinates with grid strides
// and a destination local linear index a dot product with the destination's
// local strides.  Table memory is sum_k N_k entries, negligible next to the
// arrays themselves.
#pragma once

#include <vector>

#include "dist/distribution.hpp"
#include "support/check.hpp"

namespace pup::dist {

class PlacementMap {
 public:
  explicit PlacementMap(const Distribution& dst) {
    const int d = dst.rank();
    owner_coord_.resize(static_cast<std::size_t>(d));
    local_idx_.resize(static_cast<std::size_t>(d));
    grid_stride_.resize(static_cast<std::size_t>(d));
    index_t gs = 1;
    for (int k = 0; k < d; ++k) {
      const auto& dim = dst.dim(k);
      auto& oc = owner_coord_[static_cast<std::size_t>(k)];
      auto& li = local_idx_[static_cast<std::size_t>(k)];
      oc.resize(static_cast<std::size_t>(dim.extent()));
      li.resize(static_cast<std::size_t>(dim.extent()));
      for (index_t g = 0; g < dim.extent(); ++g) {
        oc[static_cast<std::size_t>(g)] = dim.owner(g);
        li[static_cast<std::size_t>(g)] = dim.local_index(g);
      }
      grid_stride_[static_cast<std::size_t>(k)] = gs;
      gs *= dst.grid().extent(k);
    }
    // Per-destination local strides (row-major over that rank's local
    // shape); distributions may be ragged, so strides differ per rank.
    local_strides_.resize(static_cast<std::size_t>(dst.nprocs()));
    for (int r = 0; r < dst.nprocs(); ++r) {
      const Shape ls = dst.local_shape(r);
      auto& s = local_strides_[static_cast<std::size_t>(r)];
      s.resize(static_cast<std::size_t>(d));
      for (int k = 0; k < d; ++k) s[static_cast<std::size_t>(k)] = ls.stride(k);
    }
  }

  /// Destination rank of a global multi-index.
  int owner(std::span<const index_t> gidx) const {
    index_t r = 0;
    for (std::size_t k = 0; k < owner_coord_.size(); ++k) {
      r += static_cast<index_t>(
               owner_coord_[k][static_cast<std::size_t>(gidx[k])]) *
           grid_stride_[k];
    }
    return static_cast<int>(r);
  }

  /// Destination local linear index of a global multi-index (must be
  /// evaluated on its owner).
  index_t local_linear(std::span<const index_t> gidx, int owner_rank) const {
    const auto& strides = local_strides_[static_cast<std::size_t>(owner_rank)];
    index_t l = 0;
    for (std::size_t k = 0; k < local_idx_.size(); ++k) {
      l += local_idx_[k][static_cast<std::size_t>(gidx[k])] * strides[k];
    }
    return l;
  }

 private:
  std::vector<std::vector<int>> owner_coord_;
  std::vector<std::vector<index_t>> local_idx_;
  std::vector<index_t> grid_stride_;
  std::vector<std::vector<index_t>> local_strides_;
};

/// Iterates the local elements of `rank` under `src` in local-linear order,
/// with no per-element allocation.  fn(src_local_linear, gidx) where gidx is
/// the global multi-index (valid only during the call).
template <typename F>
void for_each_local_fast(const Distribution& src, int rank, F&& fn) {
  const Shape local = src.local_shape(rank);
  const int d = src.rank();
  // Per-dimension local->global maps for this rank.
  std::vector<std::vector<index_t>> g_of_l(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    const int coord = static_cast<int>(src.grid().coord_of(rank, k));
    auto& v = g_of_l[static_cast<std::size_t>(k)];
    v.resize(static_cast<std::size_t>(local.extent(k)));
    for (index_t l = 0; l < local.extent(k); ++l) {
      v[static_cast<std::size_t>(l)] = src.dim(k).global_index(coord, l);
    }
  }
  std::vector<index_t> lidx(static_cast<std::size_t>(d), 0);
  std::vector<index_t> gidx(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    gidx[static_cast<std::size_t>(k)] =
        g_of_l[static_cast<std::size_t>(k)].empty()
            ? 0
            : g_of_l[static_cast<std::size_t>(k)][0];
  }
  const index_t n = local.size();
  for (index_t l = 0; l < n; ++l) {
    fn(l, std::span<const index_t>(gidx));
    // Increment the multi-index (dimension 0 fastest) and refresh gidx.
    for (int k = 0; k < d; ++k) {
      auto& v = lidx[static_cast<std::size_t>(k)];
      if (++v < local.extent(k)) {
        gidx[static_cast<std::size_t>(k)] =
            g_of_l[static_cast<std::size_t>(k)][static_cast<std::size_t>(v)];
        break;
      }
      v = 0;
      gidx[static_cast<std::size_t>(k)] =
          g_of_l[static_cast<std::size_t>(k)][0];
    }
  }
}

}  // namespace pup::dist
