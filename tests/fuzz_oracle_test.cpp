// Randomized configuration fuzzing: many machine/layout/density/scheme
// combinations drawn from a deterministic RNG, every one checked against
// the serial Fortran-90 oracle.  This is the catch-all net under the
// targeted suites.
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

struct Config {
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  std::vector<dist::index_t> blocks;
  double density;
  PackScheme scheme;
  coll::PrsAlgorithm prs;
  coll::M2MSchedule schedule;
};

Config random_config(Xoshiro256& rng) {
  Config c;
  const int d = 1 + static_cast<int>(rng.next_below(3));  // rank 1..3
  for (int k = 0; k < d; ++k) {
    // Grid extent 1..4, tiles 1..4, block 1..4: N = P*W*T (divisible).
    const int p = 1 + static_cast<int>(rng.next_below(4));
    const dist::index_t w = 1 + static_cast<dist::index_t>(rng.next_below(4));
    const dist::index_t t = 1 + static_cast<dist::index_t>(rng.next_below(4));
    c.procs.push_back(p);
    c.blocks.push_back(w);
    c.extents.push_back(static_cast<dist::index_t>(p) * w * t);
  }
  c.density = rng.next_double();
  switch (rng.next_below(4)) {
    case 0: c.scheme = PackScheme::kSimpleStorage; break;
    case 1: c.scheme = PackScheme::kCompactStorage; break;
    case 2: c.scheme = PackScheme::kCompactMessage; break;
    default: c.scheme = PackScheme::kAuto; break;
  }
  c.prs = rng.next_below(2) == 0 ? coll::PrsAlgorithm::kDirect
                                 : coll::PrsAlgorithm::kSplit;
  c.schedule = rng.next_below(2) == 0 ? coll::M2MSchedule::kLinearPermutation
                                      : coll::M2MSchedule::kNaive;
  return c;
}

class FuzzOracle : public ::testing::TestWithParam<int> {};

TEST_P(FuzzOracle, PackAndUnpackAgreeWithSerialSemantics) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0x9e37 + 11);
  const Config c = random_config(rng);
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = test::make_machine(p);
  auto d = dist::Distribution(dist::Shape(c.extents),
                              dist::ProcessGrid(c.procs), c.blocks);
  const auto n = d.global().size();
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), -17);
  auto gm = random_mask(n, c.density, rng.next());
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  PackOptions opt;
  opt.scheme = c.scheme;
  opt.prs = c.prs;
  opt.schedule = c.schedule;
  auto packed = pack(machine, a, m, opt);
  const auto expected = serial_pack<std::int64_t>(data, gm);
  ASSERT_EQ(packed.vector.gather(), expected)
      << "rank " << c.extents.size() << " density " << c.density;
  ASSERT_TRUE(machine.mailboxes_empty());

  if (packed.size > 0) {
    UnpackOptions uopt;
    uopt.scheme = rng.next_below(2) == 0 ? UnpackScheme::kSimpleStorage
                                         : UnpackScheme::kCompactStorage;
    uopt.schedule = c.schedule;
    auto restored = unpack(machine, packed.vector, m, a, uopt);
    ASSERT_EQ(restored.result.gather(), data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOracle, ::testing::Range(0, 60));

}  // namespace
}  // namespace pup
