// Tests for TRANSPOSE / permute_dims against serial oracles.
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

template <typename T>
std::vector<T> serial_permute(const std::vector<T>& a, const dist::Shape& src,
                              std::span<const int> perm) {
  std::vector<dist::index_t> ext(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    ext[k] = src.extent(perm[k]);
  }
  dist::Shape dst(ext);
  std::vector<T> out(a.size());
  std::vector<dist::index_t> sidx(perm.size());
  for (dist::index_t lin = 0; lin < dst.size(); ++lin) {
    auto didx = dst.multi(lin);
    for (std::size_t k = 0; k < perm.size(); ++k) {
      sidx[static_cast<std::size_t>(perm[k])] = didx[k];
    }
    out[static_cast<std::size_t>(lin)] =
        a[static_cast<std::size_t>(src.linear(sidx))];
  }
  return out;
}

TEST(Transpose, SquareMatrix) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto t = transpose(machine, a);
  const int perm[] = {1, 0};
  EXPECT_EQ(t.gather(), serial_permute(data, d.global(), perm));
  // Transposing twice restores the original.
  auto tt = transpose(machine, t);
  EXPECT_EQ(tt.gather(), data);
}

TEST(Transpose, RectangularMatrixSwapsDistribution) {
  auto machine = make_machine(8);
  auto d = dist::Distribution(dist::Shape({16, 8}), dist::ProcessGrid({4, 2}),
                              {2, 4});
  std::vector<double> data(128);
  std::iota(data.begin(), data.end(), 0.5);
  auto a = dist::DistArray<double>::scatter(d, data);
  auto t = transpose(machine, a);
  EXPECT_EQ(t.dist().global().extent(0), 8);
  EXPECT_EQ(t.dist().global().extent(1), 16);
  EXPECT_EQ(t.dist().grid().extent(0), 2);
  EXPECT_EQ(t.dist().dim(0).block(), 4);  // mapping permuted with the axes
  const int perm[] = {1, 0};
  EXPECT_EQ(t.gather(), serial_permute(data, d.global(), perm));
}

TEST(Transpose, ExplicitResultDistribution) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 4}),
                                            dist::ProcessGrid({2, 2}), 1);
  std::vector<int> data(32);
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<int>::scatter(d, data);
  // Result laid out block instead of cyclic.
  auto rd = dist::Distribution::block(dist::Shape({4, 8}),
                                      dist::ProcessGrid({2, 2}));
  auto t = transpose(machine, a, rd);
  const int perm[] = {1, 0};
  EXPECT_EQ(t.gather(), serial_permute(data, d.global(), perm));
  EXPECT_EQ(t.dist().dim(0).block(), 2);
}

TEST(PermuteDims, ResultLayoutOfAnotherRankThrows) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({4, 4}),
                                            dist::ProcessGrid({2, 2}), 1);
  dist::DistArray<int> a(d);
  const int perm[] = {1, 0};
  // Higher rank: the leading extents and the process count both match.
  auto higher = dist::Distribution::block(dist::Shape({4, 4, 1}),
                                          dist::ProcessGrid({2, 2, 1}));
  EXPECT_THROW(permute_dims(machine, a, perm, higher), ContractError);
  // Lower rank: the one extent and the process count both match.
  auto lower =
      dist::Distribution::block(dist::Shape({4}), dist::ProcessGrid({4}));
  EXPECT_THROW(permute_dims(machine, a, perm, lower), ContractError);
}

TEST(Transpose, RequiresRank2) {
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  dist::DistArray<int> a(d);
  EXPECT_THROW(transpose(machine, a), ContractError);
}

TEST(PermuteDims, ThreeDimensionalRotation) {
  auto machine = make_machine(8);
  auto d = dist::Distribution(dist::Shape({4, 6, 8}),
                              dist::ProcessGrid({2, 2, 2}), {1, 3, 2});
  std::vector<std::int64_t> data(static_cast<std::size_t>(d.global().size()));
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  const int perm[] = {2, 0, 1};
  auto r = permute_dims(machine, a, perm);
  EXPECT_EQ(r.gather(), serial_permute(data, d.global(), perm));
}

TEST(PermuteDims, IdentityPermutationKeepsLayout) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<int>::scatter(d, data);
  const int perm[] = {0, 1};
  machine.reset_accounting();
  auto r = permute_dims(machine, a, perm);
  EXPECT_EQ(r.gather(), data);
  EXPECT_EQ(machine.trace().messages(), 0);  // all self-moves
}

TEST(PermuteDims, BadPermutationThrows) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  dist::DistArray<int> a(d);
  const int dup[] = {0, 0};
  EXPECT_THROW(permute_dims(machine, a, dup), ContractError);
  const int oob[] = {0, 2};
  EXPECT_THROW(permute_dims(machine, a, oob), ContractError);
  const int shrt[] = {0};
  EXPECT_THROW(permute_dims(machine, a, shrt), ContractError);
}

TEST(Transpose, ComposesWithPackOnLtMask) {
  // Select the strict lower triangle after transposing: equivalent to the
  // strict upper triangle of the original.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<std::int64_t> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto gm = lt_mask(d.global());
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  auto t = transpose(machine, a);
  auto packed = pack(machine, t, m);
  const int perm[] = {1, 0};
  const auto thost = serial_permute(data, d.global(), perm);
  EXPECT_EQ(packed.vector.gather(), serial_pack<std::int64_t>(thost, gm));
}

}  // namespace
}  // namespace pup
