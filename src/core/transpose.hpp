// TRANSPOSE and general axis permutation of distributed arrays.
//
// result(i_{perm[d-1]}, ..., i_{perm[0]}) = array(i_{d-1}, ..., i_0): the
// element at source multi-index g lands at destination multi-index
// g' with g'[k] = g[perm[k]].  The destination distribution defaults to the
// source distribution with its per-dimension maps permuted the same way, so
// TRANSPOSE of a (BLOCK, CYCLIC) matrix is (CYCLIC, BLOCK) on the
// transposed grid -- the HPF rule.  Data movement is one dist::route_elements
// exchange, like the shift intrinsics.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dist/dist_array.hpp"
#include "dist/redistribute.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace pup {

/// Permutes array dimensions: result dimension k takes its index from
/// source dimension perm[k].  perm must be a permutation of 0..d-1.
template <typename T>
dist::DistArray<T> permute_dims(
    sim::Machine& machine, const dist::DistArray<T>& array,
    std::span<const int> perm,
    std::optional<dist::Distribution> result_dist = std::nullopt) {
  const dist::Distribution& d = array.dist();
  const int rank = d.rank();
  PUP_REQUIRE(static_cast<int>(perm.size()) == rank,
              "permute_dims: permutation rank mismatch");
  {
    std::vector<bool> seen(static_cast<std::size_t>(rank), false);
    for (int v : perm) {
      PUP_REQUIRE(v >= 0 && v < rank && !seen[static_cast<std::size_t>(v)],
                  "permute_dims: perm must be a permutation of 0..d-1");
      seen[static_cast<std::size_t>(v)] = true;
    }
  }

  if (!result_dist.has_value()) {
    // Permute the source mapping dimension-wise.
    std::vector<dist::index_t> ext(static_cast<std::size_t>(rank));
    std::vector<int> procs(static_cast<std::size_t>(rank));
    std::vector<dist::index_t> blocks(static_cast<std::size_t>(rank));
    for (int k = 0; k < rank; ++k) {
      const int src = perm[static_cast<std::size_t>(k)];
      ext[static_cast<std::size_t>(k)] = d.global().extent(src);
      procs[static_cast<std::size_t>(k)] = d.grid().extent(src);
      blocks[static_cast<std::size_t>(k)] = d.dim(src).block();
    }
    result_dist = dist::Distribution(dist::Shape(std::move(ext)),
                                     dist::ProcessGrid(std::move(procs)),
                                     std::move(blocks));
  } else {
    PUP_REQUIRE(result_dist->rank() == rank,
                "permute_dims: result layout has rank "
                    << result_dist->rank() << ", the source has rank "
                    << rank);
    for (int k = 0; k < rank; ++k) {
      PUP_REQUIRE(result_dist->global().extent(k) ==
                      d.global().extent(perm[static_cast<std::size_t>(k)]),
                  "permute_dims: result shape does not match permuted "
                  "source shape on dimension "
                      << k);
    }
  }

  dist::DistArray<T> out(*result_dist);
  dist::route_elements(
      machine, array, *result_dist,
      [&](int, dist::index_t, std::span<const dist::index_t> gidx,
          std::span<dist::index_t> dst_idx) {
        for (int k = 0; k < rank; ++k) {
          dst_idx[static_cast<std::size_t>(k)] =
              gidx[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])];
        }
        return true;
      },
      [&](int rnk, dist::index_t l, const T& v) {
        out.local(rnk)[static_cast<std::size_t>(l)] = v;
      });
  return out;
}

/// TRANSPOSE(MATRIX): rank-2 dimension swap.
template <typename T>
dist::DistArray<T> transpose(
    sim::Machine& machine, const dist::DistArray<T>& matrix,
    std::optional<dist::Distribution> result_dist = std::nullopt) {
  PUP_REQUIRE(matrix.dist().rank() == 2, "TRANSPOSE requires a rank-2 array");
  const int perm[] = {1, 0};
  return permute_dims(machine, matrix, perm, std::move(result_dist));
}

}  // namespace pup
