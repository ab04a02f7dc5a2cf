// Tests for the parallel ranking algorithm against a serial rank oracle.
//
// The oracle: for every true element at global linear index g, its rank is
// the number of true elements with smaller linear index.  The distributed
// ranking must agree for every element, for arbitrary rank/block-size/grid
// combinations, and Size must equal the global true count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>

#include "core/api.hpp"
#include "core/kernels/kernels.hpp"
#include "core/ranking.hpp"
#include "core/mask.hpp"
#include "dist/dist_array.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "support/uninit.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

/// PS_f of a full (SSS-style) ranking gathered under a W_0 = 1 local mask:
/// what the counting scan hands back.
support::UninitVector<std::int64_t> gather_w1(
    const support::UninitVector<std::int64_t>& ps_f,
    std::span<const mask_t> local) {
  support::UninitVector<std::int64_t> out;
  for (std::size_t s = 0; s < local.size(); ++s) {
    if (local[s] != 0) out.push_back(ps_f[s]);
  }
  return out;
}

/// Reconstructs every selected element's global rank from a counting-scan
/// RankingResult by replaying the slice structure, and compares with the
/// serial oracle.  At W_0 = 1 PS_f is compact: its k-th entry is the rank
/// of the k-th selected local element.
void check_ranking(const dist::DistArray<mask_t>& mask,
                   const RankingResult& ranking,
                   const std::vector<mask_t>& global_mask) {
  const auto& dist = mask.dist();
  // Serial oracle: rank by global linear order.
  std::vector<std::int64_t> oracle(global_mask.size(), -1);
  std::int64_t next = 0;
  for (std::size_t g = 0; g < global_mask.size(); ++g) {
    if (global_mask[g]) oracle[g] = next++;
  }
  ASSERT_EQ(ranking.size, next);

  const dist::index_t W0 = ranking.slice_width;
  for (int rank = 0; rank < dist.nprocs(); ++rank) {
    const auto& pr = ranking.procs[static_cast<std::size_t>(rank)];
    const auto local = mask.local(rank);
    ASSERT_EQ(static_cast<dist::index_t>(pr.ps_f.size()),
              W0 == 1 ? pr.packed : ranking.slices);
    std::int64_t packed_seen = 0;
    for (dist::index_t s = 0; s < ranking.slices; ++s) {
      std::int32_t found = 0;
      for (dist::index_t off = 0; off < W0; ++off) {
        const dist::index_t l = s * W0 + off;
        // A ragged 1-D array's last slices may lie past the local extent.
        if (static_cast<std::size_t>(l) >= local.size() ||
            !local[static_cast<std::size_t>(l)]) {
          continue;
        }
        const std::int64_t r =
            W0 == 1 ? pr.ps_f[static_cast<std::size_t>(packed_seen)]
                    : pr.ps_f[static_cast<std::size_t>(s)] + found;
        ++found;
        ++packed_seen;
        // Map the local element back to its global linear index.
        const auto gidx = dist.global_of_local(rank, l);
        const auto g = dist.global().linear(gidx);
        EXPECT_EQ(r, oracle[static_cast<std::size_t>(g)])
            << "proc " << rank << " local " << l << " global " << g;
      }
      // A W_0 = 1 slice's count is its mask byte: no count array is kept.
      if (W0 != 1) {
        EXPECT_EQ(found, pr.counts[static_cast<std::size_t>(s)]);
      }
    }
    if (W0 == 1) {
      EXPECT_TRUE(pr.counts.empty()) << "proc " << rank;
    }
    EXPECT_EQ(packed_seen, pr.packed);
  }
}

struct Case {
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  std::vector<dist::index_t> blocks;
  double density;
};

class RankingSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RankingSweep, MatchesSerialOracle) {
  const Case& c = GetParam();
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = make_machine(p);
  auto d = dist::Distribution(dist::Shape(c.extents),
                              dist::ProcessGrid(c.procs), c.blocks);
  auto global_mask = random_mask(d.global().size(), c.density, 0xabcdef);
  auto mask = dist::DistArray<mask_t>::scatter(d, global_mask);
  for (auto prs : {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit}) {
    RankingOptions opt;
    opt.prs = prs;
    auto ranking = rank_mask(machine, mask, opt);
    check_ranking(mask, ranking, global_mask);
    EXPECT_TRUE(machine.mailboxes_empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RankingSweep,
    ::testing::Values(
        // 1-D: cyclic, block-cyclic, block; pow2 and non-pow2 P.
        Case{{16}, {4}, {1}, 0.5},
        Case{{16}, {4}, {2}, 0.5},
        Case{{16}, {4}, {4}, 0.5},
        Case{{64}, {4}, {8}, 0.3},
        Case{{60}, {3}, {5}, 0.7},
        Case{{60}, {5}, {2}, 0.4},
        Case{{128}, {8}, {4}, 0.9},
        Case{{128}, {1}, {16}, 0.5},
        // 2-D: mixed block sizes per dimension.
        Case{{8, 8}, {2, 2}, {2, 2}, 0.5},
        Case{{8, 8}, {2, 2}, {1, 4}, 0.5},
        Case{{16, 8}, {4, 2}, {2, 1}, 0.3},
        Case{{12, 18}, {3, 3}, {2, 3}, 0.6},
        Case{{32, 16}, {4, 4}, {4, 2}, 0.1},
        Case{{16, 16}, {2, 4}, {8, 2}, 0.95},
        // 3-D.
        Case{{8, 6, 4}, {2, 3, 2}, {2, 1, 2}, 0.5},
        Case{{4, 4, 4}, {2, 2, 1}, {1, 1, 4}, 0.4},
        Case{{8, 8, 8}, {2, 2, 2}, {2, 2, 2}, 0.2},
        // 4-D, exercising deep recursion of the intermediate steps.
        Case{{4, 4, 4, 4}, {2, 2, 1, 2}, {1, 2, 4, 1}, 0.5}));

TEST(Ranking, AllTrueGivesLinearRanks) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 4}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<mask_t> all_true(32, 1);
  auto mask = dist::DistArray<mask_t>::scatter(d, all_true);
  auto ranking = rank_mask(machine, mask);
  EXPECT_EQ(ranking.size, 32);
  check_ranking(mask, ranking, all_true);
}

TEST(Ranking, AllFalseGivesSizeZero) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<mask_t> none(16, 0);
  auto mask = dist::DistArray<mask_t>::scatter(d, none);
  auto ranking = rank_mask(machine, mask);
  EXPECT_EQ(ranking.size, 0);
  for (const auto& pr : ranking.procs) EXPECT_EQ(pr.packed, 0);
}

TEST(Ranking, SingleTrueElementEverywhere) {
  // Sweep the position of a single true element across the whole array.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({4, 4}),
                                            dist::ProcessGrid({2, 2}), 1);
  for (dist::index_t g = 0; g < 16; ++g) {
    std::vector<mask_t> one(16, 0);
    one[static_cast<std::size_t>(g)] = 1;
    auto mask = dist::DistArray<mask_t>::scatter(d, one);
    auto ranking = rank_mask(machine, mask);
    EXPECT_EQ(ranking.size, 1) << "g=" << g;
    check_ranking(mask, ranking, one);
  }
}

TEST(Ranking, InfosRecordedOnlyWhenRequested) {
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  auto gm = random_mask(8, 0.5, 1);
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  RankingOptions with, without;
  with.record_infos = true;
  without.record_infos = false;
  auto r1 = rank_mask(machine, mask, with);
  auto r2 = rank_mask(machine, mask, without);
  const int stride = sss_info_stride(1);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(static_cast<std::int64_t>(
                  r1.procs[static_cast<std::size_t>(rank)].info_words.size()),
              r1.procs[static_cast<std::size_t>(rank)].packed * stride);
    EXPECT_TRUE(r2.procs[static_cast<std::size_t>(rank)].info_words.empty());
  }
}

TEST(Ranking, LtMask2D) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  auto gm = lt_mask(d.global());
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  auto ranking = rank_mask(machine, mask);
  // Strictly-above-diagonal count for an 8x8: 8*7/2.
  EXPECT_EQ(ranking.size, 28);
  check_ranking(mask, ranking, gm);
}

TEST(Ranking, Ragged1DIsSupported) {
  // The paper assumes divisibility; the 1-D case is supported as an
  // extension (see ragged_1d_test.cpp for the full sweep).
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({10}),
                                            dist::ProcessGrid({4}), 2);
  auto gm = random_mask(10, 0.5, 3);
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  auto ranking = rank_mask(machine, mask);
  EXPECT_EQ(ranking.size, count_true(gm));
}

TEST(Ranking, RejectsNonDivisibleMultiDimensional) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({10, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  dist::DistArray<mask_t> mask(d);
  EXPECT_THROW(rank_mask(machine, mask), ContractError);
}

TEST(Ranking, RejectsGridMachineMismatch) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  dist::DistArray<mask_t> mask(d);
  EXPECT_THROW(rank_mask(machine, mask), ContractError);
}

TEST(Ranking, CheckedSliceCountGuardsInt32Boundary) {
  // Slice populations and SSS init ranks are stored as int32 while global
  // ranks are int64; the narrowing helper must pass everything up to
  // INT32_MAX and reject the first value beyond it (and negatives), so an
  // oversized slice fails loudly instead of truncating.
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(checked_slice_count(0), 0);
  EXPECT_EQ(checked_slice_count(kMax), std::numeric_limits<std::int32_t>::max());
  EXPECT_THROW(checked_slice_count(kMax + 1), ContractError);
  EXPECT_THROW(checked_slice_count(std::int64_t{1} << 40), ContractError);
  EXPECT_THROW(checked_slice_count(-1), ContractError);
}

TEST(Ranking, RejectsLocalExtentBeyondInt32) {
  // The up-front geometry guard rejects a distribution whose per-processor
  // bound T_0 * W_0 cannot be indexed by the int32 record fields.  A ragged
  // 1-D layout keeps the test cheap: extent 100 with a 2^31 + 2 block gives
  // one (mostly-missing) tile whose bound overflows int32, while the actual
  // local allocations stay tiny -- rank_mask must throw on geometry before
  // touching any mask data.
  const std::int64_t big = (std::int64_t{1} << 31) + 2;
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({100}),
                                            dist::ProcessGrid({2}), big);
  dist::DistArray<mask_t> mask(d);
  EXPECT_THROW(rank_mask(machine, mask), ContractError);
}

TEST(Ranking, SizeAgreesWithMaskCount) {
  auto machine = make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16, 16}),
                                            dist::ProcessGrid({4, 2}), 2);
  for (double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    auto gm = random_mask(256, density, 77);
    auto mask = dist::DistArray<mask_t>::scatter(d, gm);
    auto ranking = rank_mask(machine, mask);
    EXPECT_EQ(ranking.size, count_true(gm));
  }
}

TEST(Ranking, NarrowSliceScanMatchesKernelCount) {
  // The counting-only initial scan counts slices narrower than the widest
  // kernel block inline and hands wider ones to kernels::mask_count; both
  // must report the kernel's per-slice count, including the short and
  // empty slices of a ragged last tile.  With W_0 = 1 neither scan keeps
  // counts: each slice's count is its mask byte.
  struct Layout {
    std::vector<dist::index_t> extents;
    std::vector<int> procs;
    std::vector<dist::index_t> blocks;
  };
  for (const dist::index_t w0 : {1, 2, 7, 33}) {
    const std::vector<Layout> layouts = {
        {{4 * w0 * 5}, {4}, {w0}},
        {{2 * w0 * 3, 6}, {2, 2}, {w0, 3}},
        {{4 * w0 * 5 + w0 + 1}, {4}, {w0}},  // ragged: procs 2, 3 short
    };
    for (const Layout& l : layouts) {
      int p = 1;
      for (const int x : l.procs) p *= x;
      auto machine = make_machine(p);
      const dist::Distribution d(dist::Shape(l.extents),
                                 dist::ProcessGrid(l.procs), l.blocks);
      const auto gm = random_mask(d.global().size(), 0.5, 1234);
      const auto mask = dist::DistArray<mask_t>::scatter(d, gm);
      std::vector<std::int64_t> oracle(gm.size(), -1);
      std::int64_t next = 0;
      for (std::size_t g = 0; g < gm.size(); ++g) {
        if (gm[g] != 0) oracle[g] = next++;
      }
      const RankingResult counted = rank_mask(machine, mask);
      RankingOptions infos;
      infos.record_infos = true;
      const RankingResult recorded = rank_mask(machine, mask, infos);
      EXPECT_EQ(counted.size, count_true(gm));
      for (int rank = 0; rank < p; ++rank) {
        const auto local = mask.local(rank);
        const auto& pr = counted.procs[static_cast<std::size_t>(rank)];
        std::int64_t packed = 0;
        for (dist::index_t s = 0; s < counted.slices; ++s) {
          const auto base = static_cast<std::size_t>(s * w0);
          const std::size_t width =
              base >= local.size()
                  ? 0
                  : std::min(static_cast<std::size_t>(w0),
                             local.size() - base);
          const std::int64_t expect =
              width == 0 ? 0 : kernels::mask_count(local.data() + base, width);
          if (w0 == 1) {
            EXPECT_EQ(width != 0 && local[base] != 0 ? 1 : 0, expect)
                << "d=" << l.extents.size() << " rank " << rank << " slice "
                << s;
          } else {
            EXPECT_EQ(pr.counts[static_cast<std::size_t>(s)], expect)
                << "W0=" << w0 << " d=" << l.extents.size() << " rank "
                << rank << " slice " << s;
          }
          packed += expect;
        }
        EXPECT_EQ(pr.packed, packed);
        const auto& rec = recorded.procs[static_cast<std::size_t>(rank)];
        if (w0 == 1) {
          EXPECT_TRUE(pr.counts.empty()) << "rank " << rank;
          EXPECT_TRUE(rec.counts.empty()) << "rank " << rank;
          // The counting scan's PS_f is the record scan's, gathered under
          // the mask: the rank of each selected element, in scan order.
          EXPECT_EQ(pr.ps_f, gather_w1(rec.ps_f, local)) << "rank " << rank;
          ASSERT_EQ(static_cast<std::int64_t>(pr.ps_f.size()), pr.packed);
          std::size_t k = 0;
          for (std::size_t s = 0; s < local.size(); ++s) {
            if (local[s] == 0) continue;
            const auto g = d.global().linear(
                d.global_of_local(rank, static_cast<dist::index_t>(s)));
            EXPECT_EQ(pr.ps_f[k++], oracle[static_cast<std::size_t>(g)])
                << "d=" << l.extents.size() << " rank " << rank << " slice "
                << s;
          }
        } else {
          EXPECT_EQ(pr.counts, rec.counts);
          EXPECT_EQ(pr.ps_f, rec.ps_f);
        }
      }
    }
  }
}

TEST(Ranking, WriteOnceW1MatchesReference) {
  // With W_0 = 1 the counting scan writes PS_0 in one widening pass, with
  // no zero-fill before it, and neither scan keeps counts (a slice's count
  // is its mask byte).  Two traps: under the
  // ragged 1-D extension a processor can have fewer local elements than
  // slices (those slices must still count zero), and a mask byte may be
  // any nonzero value (it must count one, not its value).  Each layout is
  // checked, on every kernel path, against the pre-change scan (the
  // record_infos path, which never takes the W_0 = 1 shortcut), the serial
  // rank oracle, and end to end against serial_pack / serial_unpack.
  struct Layout {
    std::vector<dist::index_t> extents;
    std::vector<int> procs;
    std::vector<dist::index_t> blocks;
  };
  const std::vector<Layout> layouts = {
      {{37}, {4}, {1}},         // ragged: ranks 1-3 are one element short
      {{5}, {8}, {1}},          // ragged: ranks 5-7 hold nothing at all
      {{1001}, {6}, {1}},       // ragged
      {{64}, {4}, {1}},         // divisible
      {{24, 20}, {4, 2}, {1, 1}},  // 2-D cyclic
      {{16, 12}, {2, 3}, {1, 2}},  // 2-D, cyclic on dimension 0 only
  };
  const mask_t kTrue[] = {1, 2, 255};
  std::vector<kernels::Path> paths = {kernels::Path::kScalar,
                                      kernels::Path::kGeneric};
  if (kernels::native_available()) paths.push_back(kernels::Path::kNative);
  struct PathGuard {
    ~PathGuard() { kernels::set_path(std::nullopt); }
  } restore;

  for (const Layout& l : layouts) {
    int p = 1;
    for (const int x : l.procs) p *= x;
    const dist::Distribution d(dist::Shape(l.extents),
                               dist::ProcessGrid(l.procs), l.blocks);
    const auto n = static_cast<std::size_t>(d.global().size());
    for (const double density : {0.0, 0.3, 0.5, 1.0}) {
      // Selected bytes cycle through 1, 2 and 255.
      std::vector<mask_t> gm = random_mask(d.global().size(), density, 2024);
      for (std::size_t g = 0; g < n; ++g) {
        if (gm[g] != 0) gm[g] = kTrue[g % 3];
      }
      std::vector<std::int64_t> oracle(n, -1);
      std::int64_t selected = 0;
      for (std::size_t g = 0; g < n; ++g) {
        if (gm[g] != 0) oracle[g] = selected++;
      }
      const auto mask = dist::DistArray<mask_t>::scatter(d, gm);
      std::vector<std::int64_t> data(n);
      for (std::size_t g = 0; g < n; ++g) {
        data[g] = static_cast<std::int64_t>(g) * 3 + 1;
      }
      const auto array = dist::DistArray<std::int64_t>::scatter(d, data);
      std::vector<std::int64_t> field(n, -5);
      const auto field_arr = dist::DistArray<std::int64_t>::scatter(d, field);
      std::vector<std::int64_t> vhost(static_cast<std::size_t>(selected) + 3);
      std::iota(vhost.begin(), vhost.end(), 1000);
      const auto v = dist::DistArray<std::int64_t>::scatter(
          dist::Distribution::block1d(
              static_cast<dist::index_t>(vhost.size()), p),
          vhost);

      for (const kernels::Path path : paths) {
        kernels::set_path(path);
        const std::string what =
            "extents[0]=" + std::to_string(l.extents[0]) + " d=" +
            std::to_string(l.extents.size()) + " density=" +
            std::to_string(density) + " path=" + kernels::path_name(path);
        auto machine = make_machine(p);
        const RankingResult counted = rank_mask(machine, mask);
        RankingOptions infos;
        infos.record_infos = true;
        const RankingResult recorded = rank_mask(machine, mask, infos);
        ASSERT_EQ(counted.size, selected) << what;
        for (int rank = 0; rank < p; ++rank) {
          const auto local = mask.local(rank);
          const auto& pr = counted.procs[static_cast<std::size_t>(rank)];
          const auto& rec = recorded.procs[static_cast<std::size_t>(rank)];
          ASSERT_TRUE(pr.counts.empty()) << what;
          ASSERT_TRUE(rec.counts.empty()) << what;
          ASSERT_EQ(static_cast<std::int64_t>(pr.ps_f.size()), pr.packed)
              << what << " rank " << rank;
          std::int64_t packed = 0;
          for (dist::index_t s = 0; s < counted.slices; ++s) {
            const auto us = static_cast<std::size_t>(s);
            const bool sel = us < local.size() && local[us] != 0;
            if (sel) {
              const auto g = d.global().linear(d.global_of_local(rank, s));
              EXPECT_EQ(pr.ps_f[static_cast<std::size_t>(packed)],
                        oracle[static_cast<std::size_t>(g)])
                  << what << " rank " << rank << " slice " << s;
            }
            packed += sel ? 1 : 0;
          }
          ASSERT_EQ(pr.packed, packed) << what << " rank " << rank;
          ASSERT_EQ(pr.ps_f, gather_w1(rec.ps_f, local))
              << what << " rank " << rank;
        }

        PackOptions popt;
        popt.scheme = PackScheme::kCompactStorage;
        const auto packed = pack(machine, array, mask, popt);
        EXPECT_EQ(packed.vector.gather(),
                  serial_pack<std::int64_t>(data, gm))
            << what;
        UnpackOptions uopt;
        uopt.scheme = UnpackScheme::kCompactStorage;
        const auto unpacked = unpack(machine, v, mask, field_arr, uopt);
        EXPECT_EQ(unpacked.result.gather(),
                  serial_unpack<std::int64_t>(vhost, gm, field))
            << what;
      }
    }
  }
}

TEST(Ranking, DeferredSubstepsMatchSerialRanks) {
  // Intermediate steps keep only RS_i's segment totals; the final step
  // folds each level's segmented prefix and its segment's level-(i+1) rank
  // in one pass.  A segment spans W_{i+1} columns, so W_{i+1} = 3 puts
  // several columns in one segment and W_{i+1} = 1 gives one column each.
  // Each layout is checked on every kernel path against the serial rank
  // oracle, and batched (B = 3) against three independent rankings.
  struct Layout {
    std::vector<dist::index_t> extents;
    std::vector<int> procs;
    std::vector<dist::index_t> blocks;
  };
  const std::vector<Layout> layouts = {
      {{12, 18}, {2, 3}, {2, 3}},      // d = 2, W_1 = 3
      {{12, 12}, {3, 2}, {1, 1}},      // d = 2, W_1 = 1
      {{8, 12, 9}, {2, 2, 3}, {1, 3, 3}},  // d = 3, W_1 = W_2 = 3
      {{8, 6, 12}, {2, 3, 2}, {2, 1, 3}},  // d = 3, W_1 = 1, W_2 = 3
      {{6, 12, 4}, {3, 2, 2}, {2, 3, 1}},  // d = 3, W_1 = 3, W_2 = 1
  };
  std::vector<kernels::Path> paths = {kernels::Path::kScalar,
                                      kernels::Path::kGeneric};
  if (kernels::native_available()) paths.push_back(kernels::Path::kNative);
  struct PathGuard {
    ~PathGuard() { kernels::set_path(std::nullopt); }
  } restore;

  for (const Layout& l : layouts) {
    int p = 1;
    for (const int x : l.procs) p *= x;
    const dist::Distribution d(dist::Shape(l.extents),
                               dist::ProcessGrid(l.procs), l.blocks);
    std::vector<std::vector<mask_t>> gms;
    std::vector<dist::DistArray<mask_t>> masks;
    for (const double density : {0.2, 0.5, 0.9}) {
      gms.push_back(random_mask(d.global().size(), density,
                                static_cast<std::uint64_t>(gms.size()) + 31));
      masks.push_back(dist::DistArray<mask_t>::scatter(d, gms.back()));
    }
    const std::vector<const dist::DistArray<mask_t>*> batch = {
        &masks[0], &masks[1], &masks[2]};
    for (const kernels::Path path : paths) {
      kernels::set_path(path);
      SCOPED_TRACE(std::string("d=") + std::to_string(l.extents.size()) +
                   " blocks[1]=" + std::to_string(l.blocks[1]) +
                   " path=" + kernels::path_name(path));
      auto machine = make_machine(p);
      const RankingSchedule sched = compile_ranking_schedule(d, p);
      const std::vector<RankingResult> batched = rank_masks(
          machine, sched,
          std::span<const dist::DistArray<mask_t>* const>(batch));
      ASSERT_EQ(batched.size(), 3U);
      for (std::size_t b = 0; b < 3; ++b) {
        const RankingResult one = rank_mask(machine, masks[b]);
        check_ranking(masks[b], one, gms[b]);
        check_ranking(masks[b], batched[b], gms[b]);
        ASSERT_EQ(batched[b].size, one.size);
        for (int rank = 0; rank < p; ++rank) {
          const auto& got = batched[b].procs[static_cast<std::size_t>(rank)];
          const auto& want = one.procs[static_cast<std::size_t>(rank)];
          EXPECT_EQ(got.ps_f, want.ps_f) << "b=" << b << " rank " << rank;
          EXPECT_EQ(got.counts, want.counts) << "b=" << b << " rank " << rank;
          EXPECT_EQ(got.packed, want.packed) << "b=" << b << " rank " << rank;
        }
      }
      EXPECT_TRUE(machine.mailboxes_empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Narrow PRS wire widths: each level ships its base ranks at the narrowest
// width its bound B_i = P_i * W_i * prod_{k<i} N_k proves.  The layouts
// sit on both sides of the u8/u16 and u16/u32 boundaries, at level 0 (1-D)
// and at a level >= 1 (d = 2, 3); all-true masks make the bound tight.

struct WidthLayout {
  std::string name;
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  std::vector<dist::index_t> blocks;
  std::vector<std::size_t> widths;  ///< expected wire_bytes per level
};

std::vector<WidthLayout> width_layouts() {
  return {
      {"1d P0W0=255", {510}, {3}, {85}, {1}},
      {"1d P0W0=256", {512}, {4}, {64}, {2}},
      {"1d P0W0=65535", {65535}, {3}, {21845}, {2}},
      {"1d P0W0=65536", {65536}, {4}, {16384}, {4}},
      // W_0 = 1 on both sides of the u8/u16 boundary: the compact W_0 = 1
      // gather at level-0 widths 1 and 2 (N = 512 is ragged on 255).
      {"1d W0=1 P0=255", {512}, {255}, {1}, {1}},
      {"1d W0=1 P0=256", {512}, {256}, {1}, {2}},
      // B_1 = P_1 W_1 N_0 = 3 * 17 * 5 = 255 and 4 * 8 * 8 = 256.
      {"2d B1=255", {5, 102}, {5, 3}, {1, 17}, {1, 1}},
      {"2d B1=256", {8, 64}, {2, 4}, {4, 8}, {1, 2}},
      // B_1 = 2 * 8 * 16 = 256, B_2 = 2 * 128 * 16 * 16 = 65536.
      {"3d B2=65536", {16, 16, 256}, {2, 2, 2}, {8, 8, 128}, {1, 2, 4}},
  };
}

TEST(RankingWireWidth, BoundsResolveTheNarrowestWidth) {
  EXPECT_EQ(wire_bytes_for(0), 1U);
  EXPECT_EQ(wire_bytes_for(255), 1U);
  EXPECT_EQ(wire_bytes_for(256), 2U);
  EXPECT_EQ(wire_bytes_for(65535), 2U);
  EXPECT_EQ(wire_bytes_for(65536), 4U);
  EXPECT_EQ(wire_bytes_for(std::numeric_limits<std::uint32_t>::max()), 4U);
  EXPECT_EQ(wire_bytes_for(std::int64_t{1} << 32), 8U);
  EXPECT_THROW(wire_bytes_for(-1), ContractError);
  // The bound saturates instead of overflowing.
  const dist::Distribution huge(dist::Shape({std::int64_t{1} << 40, 2}),
                                dist::ProcessGrid({1, 2}), {1, 1});
  EXPECT_EQ(level_bound(huge, 1), std::int64_t{1} << 41);
  for (const WidthLayout& l : width_layouts()) {
    const dist::Distribution d(dist::Shape(l.extents),
                               dist::ProcessGrid(l.procs), l.blocks);
    int p = 1;
    for (const int x : l.procs) p *= x;
    const RankingSchedule narrow = compile_ranking_schedule(d, p);
    const RankingSchedule wide = compile_ranking_schedule(
        d, p, coll::PrsAlgorithm::kAuto, coll::WireWidth::k64);
    ASSERT_EQ(narrow.steps.size(), l.widths.size()) << l.name;
    for (std::size_t i = 0; i < l.widths.size(); ++i) {
      EXPECT_EQ(narrow.steps[i].wire_bytes, l.widths[i])
          << l.name << " level " << i;
      EXPECT_EQ(wide.steps[i].wire_bytes, 8U) << l.name << " level " << i;
    }
  }
}

TEST(RankingWireWidth, NarrowWireMatchesInt64WireAndOracle) {
  const coll::PrsAlgorithm algs[] = {coll::PrsAlgorithm::kDirect,
                                     coll::PrsAlgorithm::kSplit,
                                     coll::PrsAlgorithm::kControlNetwork};
  for (const WidthLayout& l : width_layouts()) {
    int p = 1;
    for (const int x : l.procs) p *= x;
    const dist::Distribution d(dist::Shape(l.extents),
                               dist::ProcessGrid(l.procs), l.blocks);
    const dist::index_t n = d.global().size();
    std::vector<std::vector<mask_t>> gms = {
        std::vector<mask_t>(static_cast<std::size_t>(n), 1),
        random_mask(n, 0.5, 0x77 + static_cast<std::uint64_t>(n))};
    std::vector<dist::DistArray<mask_t>> masks;
    for (const auto& gm : gms) {
      masks.push_back(dist::DistArray<mask_t>::scatter(d, gm));
    }
    const std::vector<const dist::DistArray<mask_t>*> both = {&masks[0],
                                                              &masks[1]};
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    std::iota(data.begin(), data.end(), -5);
    const auto array = dist::DistArray<std::int64_t>::scatter(d, data);

    for (const coll::PrsAlgorithm alg : algs) {
      SCOPED_TRACE(l.name + " prs=" + std::to_string(static_cast<int>(alg)));
      auto machine = make_machine(p);
      const RankingSchedule narrow =
          compile_ranking_schedule(d, p, alg, coll::WireWidth::kAuto);
      const RankingSchedule wide =
          compile_ranking_schedule(d, p, alg, coll::WireWidth::k64);
      for (std::size_t i = 0; i < l.widths.size(); ++i) {
        ASSERT_EQ(narrow.steps[i].wire_bytes, l.widths[i]) << "level " << i;
      }
      for (const bool infos : {false, true}) {
        // B = 1 per mask, then both masks fused into one PRS per level.
        std::vector<std::vector<RankingResult>> got(2), want(2);
        for (std::size_t b = 0; b < masks.size(); ++b) {
          const dist::DistArray<mask_t>* one = &masks[b];
          got[0].push_back(
              std::move(rank_masks(machine, narrow, {&one, 1}, infos)[0]));
          want[0].push_back(
              std::move(rank_masks(machine, wide, {&one, 1}, infos)[0]));
        }
        got[1] = rank_masks(machine, narrow, both, infos);
        want[1] = rank_masks(machine, wide, both, infos);
        for (std::size_t f = 0; f < 2; ++f) {
          for (std::size_t b = 0; b < masks.size(); ++b) {
            const RankingResult& g = got[f][b];
            const RankingResult& w = want[f][b];
            if (!infos) check_ranking(masks[b], g, gms[b]);
            ASSERT_EQ(g.size, w.size);
            for (int rank = 0; rank < p; ++rank) {
              const auto& gp = g.procs[static_cast<std::size_t>(rank)];
              const auto& wp = w.procs[static_cast<std::size_t>(rank)];
              ASSERT_EQ(gp.ps_f, wp.ps_f) << "fused=" << f << " b=" << b
                                          << " infos=" << infos;
              ASSERT_EQ(gp.counts, wp.counts);
              ASSERT_EQ(gp.info_words, wp.info_words);
              ASSERT_EQ(gp.packed, wp.packed);
            }
          }
        }
      }
      // End to end at the narrow wire: PACK, then UNPACK of the result.
      for (std::size_t b = 0; b < masks.size(); ++b) {
        PackOptions popt;
        popt.prs = alg;
        const auto packed = pack(machine, array, masks[b], popt);
        const auto vhost = packed.vector.gather();
        ASSERT_EQ(vhost, serial_pack<std::int64_t>(data, gms[b]));
        UnpackOptions uopt;
        uopt.prs = alg;
        const auto field = dist::DistArray<std::int64_t>::scatter(
            d, std::vector<std::int64_t>(static_cast<std::size_t>(n), -1));
        EXPECT_EQ(unpack(machine, packed.vector, masks[b], field, uopt)
                      .result.gather(),
                  serial_unpack<std::int64_t>(
                      vhost, gms[b],
                      std::vector<std::int64_t>(static_cast<std::size_t>(n),
                                                -1)));
      }
      EXPECT_TRUE(machine.mailboxes_empty());
    }
  }
}

TEST(RankingWireWidth, NarrowWireCutsPrsBytes) {
  // On a fault-free machine the narrow wire moves the same messages with
  // fewer bytes.
  const dist::Distribution d(dist::Shape({64, 64}), dist::ProcessGrid({4, 4}),
                             {1, 1});
  const auto mask = dist::DistArray<mask_t>::scatter(
      d, random_mask(d.global().size(), 0.5, 0x99));
  const dist::DistArray<mask_t>* one = &mask;
  std::vector<std::int64_t> bytes, msgs;
  for (const coll::WireWidth width :
       {coll::WireWidth::k64, coll::WireWidth::kAuto}) {
    sim::Machine machine(16, test::test_options());
    const RankingSchedule sched =
        compile_ranking_schedule(d, 16, coll::PrsAlgorithm::kDirect, width);
    (void)rank_masks(machine, sched, {&one, 1});
    bytes.push_back(machine.trace().bytes_in(sim::Category::kPrs));
    msgs.push_back(machine.trace().messages_in(sim::Category::kPrs));
  }
  // Level 0: B_0 = 4 (u8); level 1: B_1 = 4 * 64 = 256 (u16).
  EXPECT_EQ(msgs[0], msgs[1]);
  // Ranks x rounds x entries: level 0 has T_0 * L_1 = 16 * 16 entries,
  // level 1 T_1 = 16.
  const std::int64_t level0 = 16 * 2 * 256;
  const std::int64_t level1 = 16 * 2 * 16;
  EXPECT_EQ(bytes[0], (level0 + level1) * 8);
  // Each direct round at its own width: level 0's members hold 0/1 flags
  // (b_0 = 1), so its rounds send 1-bit flags and then 2-bit sums; level
  // 1's (b_1 = 64) sums of at most 64 and 128 take one byte, not two.
  EXPECT_EQ(bytes[1], 16 * (256 / 8 + 256 / 4) + level1 * 1);
}

TEST(RankingWireWidth, OutOfRangePayloadThrowsInsteadOfTruncating) {
  // A PRS whose running sums outgrow its element width throws instead of
  // wrapping: 200 fits u8, the 400 of the first direct round (and the
  // split's and the control network's running sums) do not.
  for (const coll::PrsAlgorithm alg :
       {coll::PrsAlgorithm::kDirect, coll::PrsAlgorithm::kSplit,
        coll::PrsAlgorithm::kControlNetwork}) {
    auto machine = make_machine(4);
    std::vector<std::vector<std::uint8_t>> prefix(
        4, std::vector<std::uint8_t>(8, 200));
    std::vector<std::vector<std::uint8_t>> total;
    EXPECT_THROW(coll::prefix_reduction_sum(machine, coll::Group::world(4),
                                            alg, prefix, total),
                 ContractError);
  }
  // A schedule that misstates a level's width fails naming the width: the
  // second direct round carries subcube sums of 256.
  const dist::Distribution d(dist::Shape({1024}), dist::ProcessGrid({4}),
                             {128});
  RankingSchedule sched = compile_ranking_schedule(d, 4);
  ASSERT_EQ(sched.steps[0].wire_bytes, 2U);
  sched.steps[0].wire_bytes = 1;
  const auto mask = dist::DistArray<mask_t>::scatter(
      d, std::vector<mask_t>(1024, 1));
  const dist::DistArray<mask_t>* one = &mask;
  auto machine = make_machine(4);
  try {
    (void)rank_masks(machine, sched, {&one, 1});
    ADD_FAILURE() << "a 512-element level ran on a u8 wire";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("does not fit the 1-byte wire"),
              std::string::npos)
        << e.what();
  }
}

TEST(RankingWireWidth, MisstatedWidthThrowsInEveryAlgorithm) {
  // Base ranks live at the schedule's width in memory too, so a misstated
  // width must be caught by every PRS algorithm's adds -- the direct
  // rounds (recursive doubling, and the exscan of a non-power-of-two
  // group), the split's local prefixes and the control network's running
  // total -- and at a level >= 1, never wrapped into wrong ranks.
  struct Case {
    std::string name;
    std::vector<dist::index_t> extents;
    std::vector<int> procs;
    std::vector<dist::index_t> blocks;
    coll::PrsAlgorithm prs;
    std::size_t level;  ///< the level whose width is misstated as 1 byte
  };
  const std::vector<Case> cases = {
      {"direct", {1024}, {4}, {128}, coll::PrsAlgorithm::kDirect, 0},
      {"direct, G = 3", {768}, {3}, {128}, coll::PrsAlgorithm::kDirect, 0},
      {"split", {1024}, {4}, {128}, coll::PrsAlgorithm::kSplit, 0},
      {"control network", {1024}, {4}, {128},
       coll::PrsAlgorithm::kControlNetwork, 0},
      // B_1 = 4 * 8 * 8 = 256: seeds of 64 fit u8, their sums do not.
      {"level 1 sums", {8, 64}, {2, 4}, {4, 8}, coll::PrsAlgorithm::kDirect,
       1},
      {"level 1 split", {8, 64}, {2, 4}, {4, 8}, coll::PrsAlgorithm::kSplit,
       1},
      // Seeds of W_1 * N_0 = 16 * 32 = 512 do not fit u8 themselves.
      {"level 1 seeds", {32, 64}, {2, 2}, {16, 16},
       coll::PrsAlgorithm::kDirect, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    int p = 1;
    for (const int x : c.procs) p *= x;
    const dist::Distribution d(dist::Shape(c.extents),
                               dist::ProcessGrid(c.procs), c.blocks);
    RankingSchedule sched = compile_ranking_schedule(d, p, c.prs);
    ASSERT_GT(sched.steps[c.level].wire_bytes, 1U);
    sched.steps[c.level].wire_bytes = 1;
    const auto mask = dist::DistArray<mask_t>::scatter(
        d, std::vector<mask_t>(static_cast<std::size_t>(d.global().size()),
                               1));
    const dist::DistArray<mask_t>* one = &mask;
    auto machine = make_machine(p);
    try {
      (void)rank_masks(machine, sched, {&one, 1});
      ADD_FAILURE() << "sums past 255 ran on a u8 level";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("does not fit the 1-byte wire"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pup
