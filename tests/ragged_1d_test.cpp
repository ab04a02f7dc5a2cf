// Tests for the ragged 1-D extension: PACK/UNPACK on one-dimensional
// arrays whose extent is not divisible by P*W (the paper assumes
// divisibility; block-cyclic layouts only ever have a partial *last* tile,
// which keeps the ranking machinery uniform).  This is what lets the
// result of one PACK be packed again directly.  Ragged UNPACK and ragged
// full masks are axes of the seeded draw (fuzz_oracle_test.cpp).
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

struct Case {
  dist::index_t n;
  int p;
  dist::index_t w;
  double density;
};

class Ragged1DSweep
    : public ::testing::TestWithParam<std::tuple<Case, PackScheme>> {};

TEST_P(Ragged1DSweep, PackMatchesOracle) {
  const auto& [c, scheme] = GetParam();
  auto machine = make_machine(c.p);
  auto d = dist::Distribution::block_cyclic(dist::Shape({c.n}),
                                            dist::ProcessGrid({c.p}), c.w);
  ASSERT_FALSE(d.divisible()) << "case should be ragged";
  std::vector<std::int64_t> data(static_cast<std::size_t>(c.n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(c.n, c.density, 0xba5eba11);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  PackOptions opt;
  opt.scheme = scheme;
  auto result = pack(machine, a, m, opt);
  EXPECT_EQ(result.vector.gather(), serial_pack<std::int64_t>(data, gm));
  EXPECT_TRUE(machine.mailboxes_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Ragged1DSweep,
    ::testing::Combine(
        ::testing::Values(Case{17, 4, 2, 0.5},   // partial final block
                          Case{30, 4, 4, 0.5},   // empty final blocks
                          Case{100, 8, 4, 0.3},  // several procs short
                          Case{33, 16, 2, 0.7},  // extent ~ 2 elements/proc
                          Case{5, 8, 2, 0.9},    // fewer elements than procs
                          Case{4097, 16, 64, 0.5}),
        ::testing::Values(PackScheme::kSimpleStorage,
                          PackScheme::kCompactStorage,
                          PackScheme::kCompactMessage)));

TEST(Ragged1D, PackedVectorCanBePackedAgain) {
  // The motivating use: repeated compaction without capacity tricks.
  auto machine = make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({128}),
                                            dist::ProcessGrid({8}), 4);
  std::vector<int> data(128);
  std::iota(data.begin(), data.end(), 0);
  auto a = dist::DistArray<int>::scatter(d, data);

  std::vector<int> expect = data;
  for (int round = 0; round < 4; ++round) {
    const auto n = static_cast<dist::index_t>(expect.size());
    if (n == 0) break;
    auto gm = random_mask(n, 0.6, 1000 + static_cast<std::uint64_t>(round));
    auto m = dist::DistArray<mask_t>::scatter(a.dist(), gm);
    auto result = pack(machine, a, m);
    expect = serial_pack<int>(expect, gm);
    ASSERT_EQ(result.vector.gather(), expect) << "round " << round;
    a = std::move(result.vector);  // typically a ragged block distribution
  }
}

TEST(Ragged1D, CountWorksOnRaggedMask) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({21}),
                                            dist::ProcessGrid({4}), 2);
  auto gm = random_mask(21, 0.4, 5);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  EXPECT_EQ(count(machine, m), count_true(gm));
}

TEST(Ragged1D, MultiDimensionalRaggedStillRejected) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({10, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  dist::DistArray<mask_t> m(d);
  dist::DistArray<int> a(d);
  EXPECT_THROW(pack(machine, a, m), ContractError);
}

}  // namespace
}  // namespace pup
