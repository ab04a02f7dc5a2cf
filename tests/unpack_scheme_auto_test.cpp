// UnpackScheme::kAuto coverage: the auto-resolved scheme must match the
// Section 6.4 selector fed with the true mask density across a density
// sweep, agree with predict_beta1's optional crossover on power-of-two
// block sizes, and produce exactly the same result array as both explicit
// schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

TEST(UnpackSchemeAuto, SelectorPicksCheaperPredictedScheme) {
  // choose_unpack_scheme is the beta_1 comparison (SSS vs CSS local cost);
  // cross-check it against predict_beta1's optional threshold on
  // power-of-two block sizes: CSS is chosen iff a crossover exists and
  // W0 has reached it.  (predict_beta1 fixes nprocs=16; the Ea term is
  // identical in both schemes, so P does not move the comparison.)
  const dist::index_t local = 4096;
  for (double density : {0.05, 0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto beta1 = predict_beta1(local, density);
    for (dist::index_t w0 = 1; w0 <= local; w0 <<= 1) {
      const UnpackScheme chosen =
          choose_unpack_scheme(local, w0, density, 16);
      if (w0 <= 1) {
        EXPECT_EQ(chosen, UnpackScheme::kSimpleStorage);
        continue;
      }
      const bool expect_css = beta1.has_value() && w0 >= *beta1;
      EXPECT_EQ(chosen, expect_css ? UnpackScheme::kCompactStorage
                                   : UnpackScheme::kSimpleStorage)
          << "density=" << density << " w0=" << w0
          << " beta1=" << (beta1 ? *beta1 : -1);
    }
  }
}

TEST(UnpackSchemeAuto, DensitySweepMatchesCheaperExplicitScheme) {
  // Small local sizes make the resolver's sampling stride 1, so the
  // sampled density is exact and the resolved scheme must equal the
  // selector fed with the true global density.
  const int P = 4;
  const dist::index_t n = 1024;
  const dist::index_t block = 16;
  const dist::index_t local = n / P;
  for (double density : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    auto machine = make_machine(P);
    auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                              dist::ProcessGrid({P}), block);
    auto gm = random_mask(n, density, 0xca11 + static_cast<int>(density * 10));
    auto mask = dist::DistArray<mask_t>::scatter(d, gm);
    std::vector<double> fdata(static_cast<std::size_t>(n), -5.0);
    auto field = dist::DistArray<double>::scatter(d, fdata);
    const auto trues = static_cast<dist::index_t>(
        std::count(gm.begin(), gm.end(), mask_t{1}));
    std::vector<double> vdata(static_cast<std::size_t>(std::max<dist::index_t>(
        trues, 1)));
    std::iota(vdata.begin(), vdata.end(), 1.0);
    auto vd = dist::Distribution::block1d(
        static_cast<dist::index_t>(vdata.size()), P);
    auto v = dist::DistArray<double>::scatter(vd, vdata);

    const double true_density =
        static_cast<double>(trues) / static_cast<double>(n);
    const UnpackScheme predicted =
        choose_unpack_scheme(local, block, true_density, P);

    UnpackOptions opt;
    opt.scheme = UnpackScheme::kAuto;
    auto auto_result = unpack(machine, v, mask, field, opt);
    EXPECT_NE(auto_result.scheme, UnpackScheme::kAuto);
    EXPECT_EQ(auto_result.scheme, predicted) << "density=" << density;

    // Whatever auto picked, the result array equals both explicit schemes'
    // results and the serial oracle.
    const auto auto_gathered = auto_result.result.gather();
    EXPECT_EQ(auto_gathered, serial_unpack<double>(vdata, gm, fdata));
    for (UnpackScheme s :
         {UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage}) {
      UnpackOptions explicit_opt;
      explicit_opt.scheme = s;
      auto r = unpack(machine, v, mask, field, explicit_opt);
      EXPECT_EQ(r.result.gather(), auto_gathered) << "density=" << density;
      EXPECT_EQ(r.scheme, s);
    }
  }
}

TEST(UnpackSchemeAuto, CyclicAlwaysResolvesSimpleStorage) {
  // W0 == 1: the paper's conclusion (and choose_unpack_scheme's fast path)
  // is simple storage, regardless of density.
  const int P = 4;
  auto machine = make_machine(P);
  auto d = dist::Distribution::cyclic(dist::Shape({512}),
                                      dist::ProcessGrid({P}));
  auto gm = random_mask(512, 0.8, 3);
  auto mask = dist::DistArray<mask_t>::scatter(d, gm);
  std::vector<std::int64_t> fdata(512, 0);
  auto field = dist::DistArray<std::int64_t>::scatter(d, fdata);
  const auto trues = static_cast<dist::index_t>(
      std::count(gm.begin(), gm.end(), mask_t{1}));
  std::vector<std::int64_t> vdata(static_cast<std::size_t>(trues));
  std::iota(vdata.begin(), vdata.end(), 1);
  auto v = dist::DistArray<std::int64_t>::scatter(
      dist::Distribution::block1d(trues, P), vdata);

  UnpackOptions opt;
  opt.scheme = UnpackScheme::kAuto;
  auto r = unpack(machine, v, mask, field, opt);
  EXPECT_EQ(r.scheme, UnpackScheme::kSimpleStorage);
  EXPECT_EQ(r.result.gather(), serial_unpack<std::int64_t>(vdata, gm, fdata));
}

}  // namespace
}  // namespace pup
