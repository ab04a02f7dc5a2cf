// PackScheme::kAuto coverage: the auto-resolved scheme must match the
// analytical selector fed with the *true* mask density (regression for the
// prefix-sampling bug), agree across processors, and produce exactly the
// same packed vector as every explicit scheme.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

TEST(PackSchemeAuto, StridedSamplingSeesThroughDensePrefix) {
  // Adversarial half-and-half geometry: N = 64K over P = 4, block-cyclic
  // with W0 = 16, and mask[i] = (i < N/4).  Under this layout the first
  // quarter of the *global* array lands in the first quarter of every
  // rank's *local* storage, so each rank's local mask is 4096 trues
  // followed by 12288 falses.  A sampler that probes only the first 4096
  // local elements estimates density 1.0; the true density is 0.25.  At
  // W0 = 16 the selector picks a compact scheme at density 1.0 but simple
  // storage at 0.25, so prefix sampling flips the decision.
  const int P = 4;
  const dist::index_t n = 65536;
  const dist::index_t local = n / P;
  auto machine = make_machine(P);
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({P}), 16);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  std::vector<mask_t> gm(static_cast<std::size_t>(n), 0);
  for (dist::index_t i = 0; i < n / 4; ++i) {
    gm[static_cast<std::size_t>(i)] = 1;
  }
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  // The geometry is chosen so the two density estimates disagree on the
  // scheme; assert that so the regression cannot silently go vacuous.
  const PackScheme truth = choose_pack_scheme(local, 16, 0.25, P);
  const PackScheme fooled = choose_pack_scheme(local, 16, 1.0, P);
  ASSERT_EQ(truth, PackScheme::kSimpleStorage);
  ASSERT_NE(fooled, PackScheme::kSimpleStorage);

  PackOptions opt;
  opt.scheme = PackScheme::kAuto;
  auto result = pack(machine, a, m, opt);
  EXPECT_EQ(result.scheme, truth);
  EXPECT_EQ(result.vector.gather(), serial_pack<std::int64_t>(data, gm));
}

TEST(PackSchemeAuto, ResolvedSchemeIsConcreteAndStable) {
  // resolve_pack_scheme must return one of the three concrete schemes
  // (never kAuto) and, since its inputs are deterministic, the same one on
  // every call; the per-rank agreement PUP_CHECK inside it enforces that
  // all processors decide identically after the all-reduce.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                            dist::ProcessGrid({4}), 8);
  auto m = dist::DistArray<mask_t>::scatter(d, random_mask(256, 0.6, 11));
  const PackScheme first =
      detail::resolve_pack_scheme(machine, m, PackScheme::kAuto);
  EXPECT_NE(first, PackScheme::kAuto);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(detail::resolve_pack_scheme(machine, m, PackScheme::kAuto),
              first);
  }
  // Explicit requests pass through untouched.
  EXPECT_EQ(detail::resolve_pack_scheme(machine, m,
                                        PackScheme::kCompactStorage),
            PackScheme::kCompactStorage);
}

TEST(PackSchemeAuto, AutoMatchesEveryExplicitScheme) {
  // Property: whatever kAuto resolves to, the packed vector is identical
  // to all three explicit schemes' results (the schemes differ only in
  // cost, and auto only picks among them).
  struct Case {
    dist::index_t n;
    dist::index_t block;
    double density;
  };
  const std::vector<Case> cases = {
      {64, 1, 0.5},   // cyclic: auto must pick SSS per the paper
      {64, 4, 0.1},   // sparse
      {64, 4, 0.9},   // dense
      {128, 16, 0.5},
      {96, 8, 0.98},
  };
  for (const Case& c : cases) {
    auto machine = make_machine(4);
    auto d = dist::Distribution::block_cyclic(dist::Shape({c.n}),
                                              dist::ProcessGrid({4}), c.block);
    std::vector<int> data(static_cast<std::size_t>(c.n));
    std::iota(data.begin(), data.end(), 0);
    auto gm = random_mask(c.n, c.density, 0x5eed + c.n);
    auto a = dist::DistArray<int>::scatter(d, data);
    auto m = dist::DistArray<mask_t>::scatter(d, gm);

    PackOptions opt;
    opt.scheme = PackScheme::kAuto;
    auto auto_result = pack(machine, a, m, opt);
    EXPECT_NE(auto_result.scheme, PackScheme::kAuto);
    if (c.block == 1) {
      EXPECT_EQ(auto_result.scheme, PackScheme::kSimpleStorage);
    }
    const auto auto_gathered = auto_result.vector.gather();
    for (PackScheme s : {PackScheme::kSimpleStorage,
                         PackScheme::kCompactStorage,
                         PackScheme::kCompactMessage}) {
      PackOptions explicit_opt;
      explicit_opt.scheme = s;
      auto r = pack(machine, a, m, explicit_opt);
      EXPECT_EQ(r.vector.gather(), auto_gathered)
          << "n=" << c.n << " block=" << c.block << " density=" << c.density;
    }
  }
}

}  // namespace
}  // namespace pup
