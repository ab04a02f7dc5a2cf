// Tests for the companion F90 intrinsics: MERGE, SUM/MAXVAL/MINVAL, and
// CSHIFT/EOSHIFT, all verified against serial oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

// Serial oracles -----------------------------------------------------------

template <typename T>
std::vector<T> serial_cshift(const std::vector<T>& a, const dist::Shape& s,
                             int dim, dist::index_t shift) {
  std::vector<T> out(a.size());
  std::vector<dist::index_t> idx(static_cast<std::size_t>(s.rank()), 0);
  for (dist::index_t lin = 0; lin < s.size(); ++lin) {
    auto src = s.multi(lin);
    auto& c = src[static_cast<std::size_t>(dim)];
    c = (c + shift) % s.extent(dim);
    if (c < 0) c += s.extent(dim);
    out[static_cast<std::size_t>(lin)] =
        a[static_cast<std::size_t>(s.linear(src))];
  }
  (void)idx;
  return out;
}

template <typename T>
std::vector<T> serial_eoshift(const std::vector<T>& a, const dist::Shape& s,
                              int dim, dist::index_t shift, T boundary) {
  std::vector<T> out(a.size());
  for (dist::index_t lin = 0; lin < s.size(); ++lin) {
    auto src = s.multi(lin);
    auto& c = src[static_cast<std::size_t>(dim)];
    c += shift;
    out[static_cast<std::size_t>(lin)] =
        (c < 0 || c >= s.extent(dim))
            ? boundary
            : a[static_cast<std::size_t>(s.linear(src))];
  }
  return out;
}

// MERGE ---------------------------------------------------------------------

TEST(Merge, SelectsElementwise) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 4}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<int> t(32), f(32);
  std::iota(t.begin(), t.end(), 0);
  std::iota(f.begin(), f.end(), 1000);
  auto gm = random_mask(32, 0.5, 4);
  auto ta = dist::DistArray<int>::scatter(d, t);
  auto fa = dist::DistArray<int>::scatter(d, f);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto out = merge(machine, ta, fa, m).gather();
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(out[i], gm[i] ? t[i] : f[i]);
  }
}

TEST(Merge, IsPurelyLocal) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  dist::DistArray<int> t(d), f(d);
  dist::DistArray<mask_t> m(d);
  machine.reset_accounting();
  (void)merge(machine, t, f, m);
  EXPECT_EQ(machine.trace().messages(), 0);
}

TEST(Merge, MisalignedThrows) {
  auto machine = make_machine(2);
  auto d1 = dist::Distribution::block_cyclic(dist::Shape({8}),
                                             dist::ProcessGrid({2}), 2);
  auto d2 = dist::Distribution::block_cyclic(dist::Shape({8}),
                                             dist::ProcessGrid({2}), 4);
  dist::DistArray<int> t(d1), f(d2);
  dist::DistArray<mask_t> m(d1);
  EXPECT_THROW(merge(machine, t, f, m), ContractError);
}

// Reductions ----------------------------------------------------------------

TEST(ArrayReductions, SumMatchesHost) {
  auto machine = make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16, 8}),
                                            dist::ProcessGrid({4, 2}), 2);
  std::vector<std::int64_t> data(128);
  std::iota(data.begin(), data.end(), -40);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  EXPECT_EQ(sum(machine, a), std::accumulate(data.begin(), data.end(),
                                             std::int64_t{0}));
}

TEST(ArrayReductions, MaskedSum) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({4}), 4);
  std::vector<std::int64_t> data(32);
  std::iota(data.begin(), data.end(), 1);
  auto gm = random_mask(32, 0.5, 7);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  std::int64_t want = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    if (gm[i]) want += data[i];
  }
  EXPECT_EQ(sum(machine, a, &m), want);
}

TEST(ArrayReductions, MaxvalMinval) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({24}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<double> data = {3, -7, 12, 0.5, 9, -2, 8, 1, 4, -1, 6, 2,
                              7, 5,  -3, 11,  0, 10, 13, -5, 2, 2, 2, 2};
  auto a = dist::DistArray<double>::scatter(d, data);
  EXPECT_DOUBLE_EQ(maxval(machine, a),
                   *std::max_element(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(minval(machine, a),
                   *std::min_element(data.begin(), data.end()));
}

TEST(ArrayReductions, EmptyMaskGivesIdentities) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(16, 5);
  std::vector<mask_t> none(16, 0);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, none);
  EXPECT_EQ(sum(machine, a, &m), 0);
  EXPECT_EQ(maxval(machine, a, &m), std::numeric_limits<int>::lowest());
  EXPECT_EQ(minval(machine, a, &m), std::numeric_limits<int>::max());
}

// CSHIFT / EOSHIFT ----------------------------------------------------------

struct ShiftCase {
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  std::vector<dist::index_t> blocks;
  int dim;
  dist::index_t shift;
};

class ShiftSweep : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(ShiftSweep, CshiftMatchesOracle) {
  const ShiftCase& c = GetParam();
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = make_machine(p);
  auto d = dist::Distribution(dist::Shape(c.extents),
                              dist::ProcessGrid(c.procs), c.blocks);
  std::vector<std::int64_t> data(static_cast<std::size_t>(d.global().size()));
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto out = cshift(machine, a, c.dim, c.shift);
  EXPECT_EQ(out.gather(),
            serial_cshift(data, d.global(), c.dim, c.shift));
  EXPECT_TRUE(machine.mailboxes_empty());
}

TEST_P(ShiftSweep, EoshiftMatchesOracle) {
  const ShiftCase& c = GetParam();
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = make_machine(p);
  auto d = dist::Distribution(dist::Shape(c.extents),
                              dist::ProcessGrid(c.procs), c.blocks);
  std::vector<std::int64_t> data(static_cast<std::size_t>(d.global().size()));
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto out = eoshift(machine, a, c.dim, c.shift, std::int64_t{-999});
  EXPECT_EQ(out.gather(), serial_eoshift(data, d.global(), c.dim, c.shift,
                                         std::int64_t{-999}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShiftSweep,
    ::testing::Values(ShiftCase{{16}, {4}, {2}, 0, 1},
                      ShiftCase{{16}, {4}, {2}, 0, -3},
                      ShiftCase{{16}, {4}, {1}, 0, 5},
                      ShiftCase{{16}, {4}, {4}, 0, 16},   // full wrap
                      ShiftCase{{16}, {4}, {4}, 0, 21},   // > extent
                      ShiftCase{{8, 8}, {2, 2}, {2, 2}, 0, 2},
                      ShiftCase{{8, 8}, {2, 2}, {2, 2}, 1, -1},
                      ShiftCase{{8, 6, 4}, {2, 3, 1}, {2, 1, 2}, 1, 2}));

TEST(Shift, ZeroShiftIsIdentityWithNoTraffic) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 4);
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<int>::scatter(d, data);
  machine.reset_accounting();
  auto out = cshift(machine, a, 0, 0);
  EXPECT_EQ(out.gather(), data);
  EXPECT_EQ(machine.trace().messages(), 0);  // all self-moves
}

TEST(Shift, BadDimensionThrows) {
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  dist::DistArray<int> a(d);
  EXPECT_THROW(cshift(machine, a, 1, 1), ContractError);
  EXPECT_THROW(cshift(machine, a, -1, 1), ContractError);
}

TEST(Shift, CshiftComposesWithPack) {
  // A realistic compiler pattern: shift then pack under a mask.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<std::int64_t> data(32);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(32, 0.5, 3);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto shifted = cshift(machine, a, 0, 4);
  auto packed = pack(machine, shifted, m);
  EXPECT_EQ(packed.vector.gather(),
            serial_pack<std::int64_t>(
                serial_cshift(data, d.global(), 0, 4), gm));
}

}  // namespace
}  // namespace pup
