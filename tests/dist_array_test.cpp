// Unit tests for DistArray scatter/gather and local storage.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>

#include "dist/dist_array.hpp"
#include "support/check.hpp"

namespace pup::dist {
namespace {

TEST(DistArray, ScatterGatherRoundTrip1D) {
  auto d = Distribution::block_cyclic(Shape({24}), ProcessGrid({4}), 3);
  std::vector<int> data(24);
  std::iota(data.begin(), data.end(), 0);
  auto arr = DistArray<int>::scatter(d, data);
  EXPECT_EQ(arr.gather(), data);
}

TEST(DistArray, ScatterGatherRoundTrip3D) {
  auto d = Distribution(Shape({4, 6, 4}), ProcessGrid({2, 3, 1}), {1, 2, 2});
  std::vector<double> data(static_cast<std::size_t>(4 * 6 * 4));
  std::iota(data.begin(), data.end(), 0.5);
  auto arr = DistArray<double>::scatter(d, data);
  EXPECT_EQ(arr.gather(), data);
}

TEST(DistArray, LocalStorageIsTileMajor) {
  // N=8, P=2, W=2: proc 0 owns globals {0,1,4,5} at locals {0,1,2,3}.
  auto d = Distribution::block_cyclic(Shape({8}), ProcessGrid({2}), 2);
  std::vector<int> data = {10, 11, 12, 13, 14, 15, 16, 17};
  auto arr = DistArray<int>::scatter(d, data);
  auto l0 = arr.local(0);
  ASSERT_EQ(l0.size(), 4u);
  EXPECT_EQ(l0[0], 10);
  EXPECT_EQ(l0[1], 11);
  EXPECT_EQ(l0[2], 14);
  EXPECT_EQ(l0[3], 15);
}

TEST(DistArray, AtAccessesByGlobalIndex) {
  auto d = Distribution::block_cyclic(Shape({4, 4}), ProcessGrid({2, 2}), 1);
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 0);
  auto arr = DistArray<int>::scatter(d, data);
  const index_t idx[] = {3, 2};  // linear = 3 + 2*4 = 11
  EXPECT_EQ(arr.at(idx), 11);
  arr.at(idx) = 99;
  EXPECT_EQ(arr.gather()[11], 99);
}

TEST(DistArray, ZeroInitialized) {
  auto d = Distribution::block1d(10, 3);
  DistArray<int> arr(d);
  for (int v : arr.gather()) EXPECT_EQ(v, 0);
}

TEST(DistArray, ZeroInitializedOverDirtyMemory) {
  // Local storage skips the zero-fill on resize(), so the public
  // constructor must write its zeros explicitly.  Each round first dirties
  // the allocator with freed blocks of exactly the local size holding
  // 0xAB bytes; storage that skipped the fill would reuse one and show
  // the pattern.
  constexpr int kProcs = 4;
  constexpr std::size_t kLocal = 64;
  const auto d = Distribution::block1d(kProcs * kLocal, kProcs);
  for (int round = 0; round < 8; ++round) {
    {
      std::array<std::unique_ptr<std::int64_t[]>, kProcs> dirty;
      for (auto& block : dirty) {
        block = std::make_unique_for_overwrite<std::int64_t[]>(kLocal);
        // Volatile stores: a plain fill of memory about to be freed may be
        // optimized away.
        volatile auto* bytes = reinterpret_cast<unsigned char*>(block.get());
        for (std::size_t i = 0; i < kLocal * sizeof(std::int64_t); ++i) {
          bytes[i] = 0xAB;
        }
      }
    }
    const DistArray<std::int64_t> arr(d);
    for (int r = 0; r < kProcs; ++r) {
      for (const std::int64_t v : arr.local(r)) {
        ASSERT_EQ(v, 0) << "round " << round << " rank " << r;
      }
    }
  }
}

TEST(DistArray, CopiesAreDeep) {
  // Copy construction and copy assignment bulk-copy every processor's
  // storage; the copy shares nothing with its source.
  auto d = Distribution::block_cyclic(Shape({20}), ProcessGrid({3}), 2);
  std::vector<std::uint8_t> data(20);
  std::iota(data.begin(), data.end(), std::uint8_t{1});
  const auto src = DistArray<std::uint8_t>::scatter(d, data);
  DistArray<std::uint8_t> copy(src);
  DistArray<std::uint8_t> assigned(Distribution::block1d(4, 2));
  assigned = src;
  for (auto* c : {&copy, &assigned}) {
    EXPECT_TRUE(c->dist() == d);
    EXPECT_EQ(c->gather(), data);
    c->local(1)[0] = 99;
  }
  EXPECT_EQ(src.gather(), data);
}

TEST(DistArray, ScatterSizeMismatchThrows) {
  auto d = Distribution::block1d(10, 2);
  std::vector<int> wrong(9);
  EXPECT_THROW(DistArray<int>::scatter(d, wrong), pup::ContractError);
}

// Checks every run of for_each_run against the per-element reference
// Distribution::place(): runs tile global order exactly once, and each
// element of a run sits where place() says.  Then checks that scatter
// stores each element where place() says and that gather inverts it.
void expect_runs_match_place(const Distribution& d, std::uint64_t seed) {
  const index_t size = d.global().size();
  std::vector<std::vector<char>> seen(static_cast<std::size_t>(d.nprocs()));
  for (int r = 0; r < d.nprocs(); ++r) {
    seen[static_cast<std::size_t>(r)].resize(
        static_cast<std::size_t>(d.local_size(r)));
  }
  DistArray<int> probe(d);
  index_t next = 0;
  probe.for_each_run([&](index_t g, int owner, index_t l, index_t n) {
    ASSERT_EQ(g, next) << "runs must follow global order";
    ASSERT_GT(n, 0);
    for (index_t i = 0; i < n; ++i) {
      const auto ref = d.place(g + i);
      ASSERT_EQ(ref.owner, owner) << "global " << g + i;
      ASSERT_EQ(ref.local, l + i) << "global " << g + i;
      char& slot = seen[static_cast<std::size_t>(owner)]
                       [static_cast<std::size_t>(l + i)];
      ASSERT_FALSE(slot) << "local slot visited twice";
      slot = true;
    }
    next = g + n;
  });
  EXPECT_EQ(next, size);
  for (const auto& s : seen) {
    for (char v : s) EXPECT_TRUE(v) << "local slot never visited";
  }

  std::mt19937_64 rng(seed);
  std::vector<std::int64_t> data(static_cast<std::size_t>(size));
  for (auto& v : data) v = static_cast<std::int64_t>(rng());
  const auto arr = DistArray<std::int64_t>::scatter(d, data);
  for (index_t g = 0; g < size; ++g) {
    const auto ref = d.place(g);
    ASSERT_EQ(arr.local(ref.owner)[static_cast<std::size_t>(ref.local)],
              data[static_cast<std::size_t>(g)])
        << "global " << g;
  }
  EXPECT_EQ(arr.gather(), data);
}

TEST(DistArray, ForEachRunMatchesPerElementPlacement) {
  // Seeded sweep over rank 1-3, P_k in {1, 2, 3, 5, 7} (primes included),
  // W_k in {1, 3, block}, and extents that mostly leave a ragged last tile.
  std::mt19937_64 rng(20240613);
  const int procs[] = {1, 2, 3, 5, 7};
  int ragged = 0;
  for (int c = 0; c < 90; ++c) {
    const int rank = 1 + c % 3;
    const int wmode = (c / 3) % 3;
    std::vector<index_t> ext;
    std::vector<int> grid;
    std::vector<index_t> blocks;
    for (int k = 0; k < rank; ++k) {
      const int p = procs[rng() % 5];
      const index_t n = 1 + static_cast<index_t>(rng() % (7 * p + 4));
      ext.push_back(n);
      grid.push_back(p);
      blocks.push_back(wmode == 0 ? 1 : wmode == 1 ? 3 : (n + p - 1) / p);
    }
    const Distribution d(Shape(ext), ProcessGrid(grid), blocks);
    if (!d.divisible()) ++ragged;
    SCOPED_TRACE("config " + std::to_string(c));
    expect_runs_match_place(d, static_cast<std::uint64_t>(c));
  }
  EXPECT_GT(ragged, 45) << "the sweep must mostly cover ragged last tiles";
}

TEST(DistArray, ForEachRunOnZeroExtentArrays) {
  // A density-0 PACK result is block1d(0, P); a zero outer extent empties
  // a 2-D array the same way.
  for (const Distribution& d :
       {Distribution::block1d(0, 4),
        Distribution::block(Shape({5, 0}), ProcessGrid({2, 3}))}) {
    int runs = 0;
    DistArray<int>(d).for_each_run(
        [&](index_t, int, index_t, index_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    expect_runs_match_place(d, 7);
  }
}

TEST(DistArray, RaggedBlockGather) {
  auto d = Distribution::block1d(10, 4);
  std::vector<int> data(10);
  std::iota(data.begin(), data.end(), 100);
  auto arr = DistArray<int>::scatter(d, data);
  EXPECT_EQ(arr.gather(), data);
  EXPECT_EQ(arr.local(3).size(), 1u);
}

}  // namespace
}  // namespace pup::dist
