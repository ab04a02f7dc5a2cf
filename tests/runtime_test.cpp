// Tests for the high-level Runtime facade and the mask reductions.
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

TEST(MaskReductions, CountMatchesHostCount) {
  auto machine = test::make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16, 8}),
                                            dist::ProcessGrid({4, 2}), 2);
  for (double density : {0.0, 0.25, 0.8, 1.0}) {
    auto gm = random_mask(128, density, 11);
    auto m = dist::DistArray<mask_t>::scatter(d, gm);
    EXPECT_EQ(count(machine, m), count_true(gm));
  }
}

TEST(MaskReductions, AnyAndAll) {
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<mask_t> none(16, 0), ones(16, 1), mixed(16, 0);
  mixed[9] = 1;
  EXPECT_FALSE(any(machine, dist::DistArray<mask_t>::scatter(d, none)));
  EXPECT_TRUE(any(machine, dist::DistArray<mask_t>::scatter(d, mixed)));
  EXPECT_TRUE(all(machine, dist::DistArray<mask_t>::scatter(d, ones)));
  EXPECT_FALSE(all(machine, dist::DistArray<mask_t>::scatter(d, mixed)));
}

TEST(MaskReductions, CountChargesPrsCategory) {
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  auto m = dist::DistArray<mask_t>::scatter(d, random_mask(16, 0.5, 3));
  machine.reset_accounting();
  (void)count(machine, m);
  EXPECT_GT(machine.max_us(sim::Category::kPrs), 0.0);
}

TEST(Runtime, EndToEndPackUnpack) {
  Runtime rt(16, test::test_options());
  std::vector<double> host(256);
  std::iota(host.begin(), host.end(), 0.0);
  auto a = rt.distribute<double>(host, {256}, {16}, {4});
  auto gm = random_mask(256, 0.5, 5);
  auto m = rt.distribute<mask_t>(gm, {256}, {16}, {4});

  auto packed = rt.pack(a, m);
  EXPECT_EQ(packed.size, rt.count(m));
  EXPECT_EQ(packed.vector.gather(), serial_pack<double>(host, gm));

  auto restored = rt.unpack(packed.vector, m, a);
  EXPECT_EQ(restored.result.gather(), host);
}

TEST(Runtime, AutoSchemeRespectsCyclicRule) {
  // The Section 6.4 selector must pick SSS for cyclic layouts.
  Runtime rt(8, test::test_options());
  std::vector<int> host(128, 1);
  auto a = rt.distribute<int>(host, {128}, {8}, {1});
  auto gm = random_mask(128, 0.9, 6);
  auto m = rt.distribute<mask_t>(gm, {128}, {8}, {1});
  auto packed = rt.pack(a, m);
  EXPECT_EQ(packed.scheme, PackScheme::kSimpleStorage);
  EXPECT_EQ(packed.vector.gather(), serial_pack<int>(host, gm));
}

TEST(Runtime, AutoSchemePrefersCompactForDenseBlock) {
  Runtime rt(8, test::test_options());
  std::vector<int> host(1024, 1);
  auto a = rt.distribute<int>(host, {1024}, {8}, {128});
  auto gm = random_mask(1024, 0.9, 6);
  auto m = rt.distribute<mask_t>(gm, {1024}, {8}, {128});
  auto packed = rt.pack(a, m);
  EXPECT_NE(packed.scheme, PackScheme::kSimpleStorage);
  EXPECT_EQ(packed.vector.gather(), serial_pack<int>(host, gm));
}

TEST(Runtime, PackViaRedistribution) {
  Runtime rt(4, test::test_options());
  std::vector<int> host(64);
  std::iota(host.begin(), host.end(), 0);
  auto a = rt.distribute<int>(host, {64}, {4}, {1});
  auto gm = random_mask(64, 0.3, 9);
  auto m = rt.distribute<mask_t>(gm, {64}, {4}, {1});
  auto packed =
      rt.pack_via_redistribution(a, m, RedistributionScheme::kSelectedData);
  EXPECT_EQ(packed.vector.gather(), serial_pack<int>(host, gm));
}

TEST(Runtime, PackWithVectorPadding) {
  Runtime rt(4, test::test_options());
  std::vector<int> host(32);
  std::iota(host.begin(), host.end(), 0);
  auto a = rt.distribute<int>(host, {32}, {4}, {2});
  auto gm = random_mask(32, 0.25, 2);
  auto m = rt.distribute<mask_t>(gm, {32}, {4}, {2});
  std::vector<int> pad(20, -1);
  auto v = dist::DistArray<int>::scatter(dist::Distribution::block1d(20, 4),
                                         pad);
  auto packed = rt.pack(a, m, v);
  EXPECT_EQ(packed.vector.gather(), serial_pack<int>(host, gm, pad));
}

TEST(Runtime, IntrinsicsFamilyThroughFacade) {
  Runtime rt(4, test::test_options());
  std::vector<int> t(16), f(16, -1);
  std::iota(t.begin(), t.end(), 0);
  auto ta = rt.distribute<int>(t, {16}, {4}, {2});
  auto fa = rt.distribute<int>(f, {16}, {4}, {2});
  auto gm = random_mask(16, 0.5, 13);
  auto m = rt.distribute<mask_t>(gm, {16}, {4}, {2});

  auto merged = rt.merge(ta, fa, m).gather();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(merged[i], gm[i] ? t[i] : -1);
  }
  auto shifted = rt.cshift(ta, 0, 3).gather();
  EXPECT_EQ(shifted[0], t[3]);
  auto eo = rt.eoshift(ta, 0, 20, -5).gather();
  EXPECT_EQ(eo[0], -5);
  EXPECT_EQ(rt.sum(ta), 120);
  EXPECT_EQ(rt.maxval(ta), 15);
  EXPECT_EQ(rt.minval(ta), 0);

  std::vector<int> mat(16);
  std::iota(mat.begin(), mat.end(), 0);
  auto ma =
      rt.distribute<int>(mat, {4, 4}, {2, 2}, {2, 2});
  auto tr = rt.transpose(ma).gather();
  // Element (i0=1, i1=0) of the transpose is element (0, 1) of the source.
  EXPECT_EQ(tr[1], mat[4]);
}

TEST(Runtime, AccountingAccessors) {
  Runtime rt(4, test::test_options());
  std::vector<int> host(32, 1);
  auto a = rt.distribute<int>(host, {32}, {4}, {2});
  auto m = rt.distribute<mask_t>(random_mask(32, 0.5, 1), {32}, {4}, {2});
  (void)rt.pack(a, m);
  EXPECT_GT(rt.max_total_us(), 0.0);
  rt.reset_accounting();
  EXPECT_DOUBLE_EQ(rt.max_total_us(), 0.0);
}

}  // namespace
}  // namespace pup
