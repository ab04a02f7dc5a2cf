// A distributed dense array: a Distribution plus per-processor local
// storage.
//
// Local storage is row-major over the processor's local shape, tile-major
// within each dimension (see BlockCyclicDim).  scatter()/gather() move data
// between a global host buffer and the distributed representation as bulk
// copies over for_each_run()'s runs; they charge no simulated time and sit
// on the service's result-digest path.  at() keeps the per-element path.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "support/check.hpp"
#include "support/uninit.hpp"

namespace pup::dist {

template <typename T>
class DistArray {
 public:
  DistArray() = default;

  /// One processor's local storage.  Its resize() does not zero-fill, so
  /// storage a kernel writes in full is written once.
  using Local = support::UninitVector<T>;

  /// Allocates zero-initialized local storage for every processor.  (The
  /// zeros are explicit: Local's resize() would leave them indeterminate.)
  explicit DistArray(Distribution dist) : dist_(std::move(dist)) {
    locals_.resize(static_cast<std::size_t>(dist_.nprocs()));
    for (int r = 0; r < dist_.nprocs(); ++r) {
      locals_[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(dist_.local_size(r)), T{});
    }
  }

  /// Copies are bulk copies of each processor's storage (see
  /// support::bulk_copy); moves take the storage.
  DistArray(const DistArray& other) : dist_(other.dist_) {
    copy_locals(other);
  }
  DistArray& operator=(const DistArray& other) {
    if (this != &other) {
      dist_ = other.dist_;
      copy_locals(other);
    }
    return *this;
  }
  DistArray(DistArray&&) = default;
  DistArray& operator=(DistArray&&) = default;

  /// Adopts per-processor local storage built by the caller (moved in, so
  /// storage written once by a kernel is never zero-filled first).
  /// locals[r] must hold exactly dist.local_size(r) elements.
  static DistArray from_locals(Distribution dist, std::vector<Local> locals) {
    PUP_REQUIRE(static_cast<int>(locals.size()) == dist.nprocs(),
                locals.size() << " local buffers for " << dist.nprocs()
                              << " processors");
    for (int r = 0; r < dist.nprocs(); ++r) {
      const std::size_t n = locals[static_cast<std::size_t>(r)].size();
      PUP_REQUIRE(static_cast<index_t>(n) == dist.local_size(r),
                  "local buffer of processor " << r << " holds " << n
                                               << " elements, expected "
                                               << dist.local_size(r));
    }
    DistArray arr;
    arr.dist_ = std::move(dist);
    arr.locals_ = std::move(locals);
    return arr;
  }

  /// Builds a distributed array from a global row-major buffer.
  static DistArray scatter(Distribution dist, std::span<const T> global) {
    PUP_REQUIRE(static_cast<index_t>(global.size()) == dist.global().size(),
                "global buffer size " << global.size()
                                      << " != array size "
                                      << dist.global().size());
    DistArray arr(std::move(dist));
    arr.for_each_run([&](index_t g, int owner, index_t l, index_t n) {
      std::copy_n(global.begin() + g, n,
                  arr.locals_[static_cast<std::size_t>(owner)].begin() + l);
    });
    return arr;
  }

  /// Collects the distributed data back into a global row-major buffer.
  std::vector<T> gather() const {
    std::vector<T> global(static_cast<std::size_t>(dist_.global().size()));
    for_each_run([&](index_t g, int owner, index_t l, index_t n) {
      std::copy_n(locals_[static_cast<std::size_t>(owner)].begin() + l, n,
                  global.begin() + g);
    });
    return global;
  }

  /// Visits every element once, in global row-major order, as runs
  /// f(global_start, owner, local_start, count): global linear indices
  /// [global_start, global_start + count) live on `owner` at local indices
  /// [local_start, local_start + count).  Runs never span a dimension-0
  /// block; each costs O(1) after O(P_0 * rank) work per row.
  template <typename F>
  void for_each_run(F&& f) const {
    const Shape& shape = dist_.global();
    if (shape.size() == 0) return;
    const int d = dist_.rank();
    const int np = dist_.nprocs();
    const auto ud = static_cast<std::size_t>(d);
    // Each rank's local row-major strides, once.
    std::vector<index_t> lstride;
    lstride.reserve(static_cast<std::size_t>(np) * ud);
    for (int r = 0; r < np; ++r) {
      index_t acc = 1;
      for (int k = 0; k < d; ++k) {
        lstride.push_back(acc);
        acc *= dist_.dim(k).local_extent_on(
            static_cast<int>(dist_.grid().coord_of(r, k)));
      }
    }
    // Dimension 0's blocks are the same in every row.
    const BlockCyclicDim& d0 = dist_.dim(0);
    const index_t n0 = shape.extent(0);
    std::vector<BlockCyclicDim::Block> blocks;
    for (index_t g = 0; g < n0; g = blocks.back().end) {
      blocks.push_back(d0.block_of(g));
    }
    std::vector<index_t> outer(ud, 0);  // outer[0] stays 0
    std::vector<index_t> row_off(static_cast<std::size_t>(d0.nprocs()));
    for (index_t row = 0; row < shape.size(); row += n0) {
      // Outer dimensions fix the owner's grid coordinates 1..d-1 and their
      // share of the local offset for the whole row.
      int base = 0;
      index_t grid_stride = d0.nprocs();
      for (int k = 1; k < d; ++k) {
        const index_t i = outer[static_cast<std::size_t>(k)];
        base += static_cast<int>(dist_.dim(k).owner(i) * grid_stride);
        grid_stride *= dist_.grid().extent(k);
      }
      for (std::size_t c = 0; c < row_off.size(); ++c) {
        const std::size_t r = (static_cast<std::size_t>(base) + c) * ud;
        index_t off = 0;
        for (int k = 1; k < d; ++k) {
          const auto uk = static_cast<std::size_t>(k);
          off += dist_.dim(k).local_index(outer[uk]) * lstride[r + uk];
        }
        row_off[c] = off;
      }
      for (const BlockCyclicDim::Block& blk : blocks) {
        f(row + blk.start, base + blk.owner,
          row_off[static_cast<std::size_t>(blk.owner)] + blk.local_base,
          blk.end - blk.start);
      }
      for (int k = 1; k < d; ++k) {
        auto& i = outer[static_cast<std::size_t>(k)];
        if (++i < shape.extent(k)) break;
        i = 0;
      }
    }
  }

  const Distribution& dist() const { return dist_; }

  std::span<T> local(int rank) {
    PUP_REQUIRE(rank >= 0 && rank < dist_.nprocs(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }
  std::span<const T> local(int rank) const {
    PUP_REQUIRE(rank >= 0 && rank < dist_.nprocs(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }

  /// Element access by global multi-index (test utility).
  T& at(std::span<const index_t> gidx) {
    const int owner = dist_.owner(gidx);
    return locals_[static_cast<std::size_t>(owner)]
                  [static_cast<std::size_t>(dist_.local_linear(gidx))];
  }
  const T& at(std::span<const index_t> gidx) const {
    const int owner = dist_.owner(gidx);
    return locals_[static_cast<std::size_t>(owner)]
                  [static_cast<std::size_t>(dist_.local_linear(gidx))];
  }

 private:
  void copy_locals(const DistArray& other) {
    locals_.clear();
    locals_.reserve(other.locals_.size());
    for (const Local& l : other.locals_) {
      locals_.push_back(support::bulk_copy<T>(l));
    }
  }

  Distribution dist_;
  std::vector<Local> locals_;
};

}  // namespace pup::dist
