// One-dimensional block-cyclic distribution math (paper, Section 3).
//
// A dimension of global extent N is distributed over P processors in blocks
// of W consecutive elements: global index g lives in block g/W, owned by
// processor (g/W) mod P, and the block lands at tile t = g/(P*W) of that
// processor's local storage.  A *tile* is a run of P consecutive blocks
// (size S = P*W), so each processor owns exactly one block per tile.  Local
// storage is tile-major: local index l = t*W + (g mod W).
//
// W = 1 is the cyclic distribution and W = N/P the block distribution.  The
// math here supports ragged extents (N not divisible by P*W); the ranking
// algorithm itself enforces the paper's divisibility assumption at a higher
// level.
#pragma once

#include "dist/layout.hpp"
#include "support/check.hpp"

namespace pup::dist {

class BlockCyclicDim {
 public:
  BlockCyclicDim() = default;

  /// Distribution of `extent` elements over `nprocs` processors with block
  /// size `block`.
  BlockCyclicDim(index_t extent, int nprocs, index_t block)
      : n_(extent), p_(nprocs), w_(block) {
    PUP_REQUIRE(extent >= 0, "extent must be non-negative, got " << extent);
    PUP_REQUIRE(nprocs >= 1, "need at least one processor, got " << nprocs);
    PUP_REQUIRE(block >= 1, "block size must be positive, got " << block);
  }

  index_t extent() const { return n_; }
  int nprocs() const { return p_; }
  index_t block() const { return w_; }        // W
  index_t tile_size() const { return w_ * p_; }  // S = P*W

  /// Number of tiles T = ceil(N / (P*W)); equals N/(P*W) when divisible.
  index_t tiles() const { return (n_ + tile_size() - 1) / tile_size(); }

  /// True when P | N, W | N and P*W | N (the paper's assumption).
  bool divisible() const { return n_ % tile_size() == 0; }

  /// Local extent on every processor when divisible: L = N/P = T*W.
  index_t local_extent() const {
    PUP_REQUIRE(divisible(), "local_extent() requires P*W | N (N=" << n_
                                                                   << ", P=" << p_
                                                                   << ", W=" << w_ << ")");
    return n_ / p_;
  }

  /// Number of global indices owned by processor `proc` (ragged-aware).
  index_t local_extent_on(int proc) const;

  /// Owner of global index g.
  int owner(index_t g) const {
    PUP_DCHECK(g >= 0 && g < n_, "global index out of range");
    return static_cast<int>((g / w_) % p_);
  }

  /// Tile number of global index g (block index within the owner).
  index_t tile_of(index_t g) const { return g / tile_size(); }

  /// Local index of global index g on its owner (tile-major storage).
  index_t local_index(index_t g) const {
    return tile_of(g) * w_ + g % w_;
  }

  /// One block: global indices [start, end), stored on `owner` at local
  /// indices [local_base, local_base + end - start).
  struct Block {
    index_t start = 0;
    index_t end = 0;
    index_t local_base = 0;
    int owner = 0;

    bool contains(index_t g) const { return g >= start && g < end; }
    index_t local_index(index_t g) const { return local_base + (g - start); }
  };

  /// The block holding global index g.  Callers that walk runs of indices
  /// pay its division once per block instead of owner()/local_index() per
  /// element, so the range check here is always on.
  Block block_of(index_t g) const {
    PUP_REQUIRE(g >= 0 && g < n_,
                "global index " << g << " outside the extent " << n_);
    const index_t b = g / w_;
    Block blk;
    blk.start = b * w_;
    blk.end = blk.start + w_ < n_ ? blk.start + w_ : n_;
    blk.local_base = (b / p_) * w_;
    blk.owner = static_cast<int>(b % p_);
    return blk;
  }

  /// Global index of local index l on processor `proc`.
  index_t global_index(int proc, index_t l) const {
    PUP_DCHECK(proc >= 0 && proc < p_, "processor out of range");
    PUP_DCHECK(l >= 0, "local index out of range");
    const index_t tile = l / w_;
    const index_t g = tile * tile_size() + static_cast<index_t>(proc) * w_ + l % w_;
    PUP_DCHECK(g < n_, "local index " << l << " maps past extent on proc "
                                      << proc);
    return g;
  }

  bool operator==(const BlockCyclicDim& o) const {
    return n_ == o.n_ && p_ == o.p_ && w_ == o.w_;
  }

 private:
  index_t n_ = 1;
  int p_ = 1;
  index_t w_ = 1;
};

inline index_t BlockCyclicDim::local_extent_on(int proc) const {
  PUP_REQUIRE(proc >= 0 && proc < p_, "processor out of range");
  // Full tiles contribute W each; the trailing partial tile contributes the
  // clipped remainder of this processor's block.
  const index_t full_tiles = n_ / tile_size();
  index_t local = full_tiles * w_;
  const index_t rem = n_ - full_tiles * tile_size();
  const index_t block_start = static_cast<index_t>(proc) * w_;
  if (rem > block_start) {
    local += (rem - block_start < w_) ? (rem - block_start) : w_;
  }
  return local;
}

}  // namespace pup::dist
