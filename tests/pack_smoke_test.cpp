// End-to-end smoke test: PACK of Figure 1's mask against the serial
// Fortran-90 oracle under every scheme.  Other layouts, UNPACK and the
// configuration axes are the seeded draw's (fuzz_oracle_test.cpp).
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

sim::Machine make_machine(int p) {
  return test::make_machine(p, test::test_options({10.0, 0.05}));
}

TEST(PackSmoke, OneDimensionalBlockCyclic) {
  auto machine = make_machine(4);
  const dist::index_t n = 16;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 100);
  // Figure 1's mask: 1100 0110 1011 0101 reading global order.
  std::vector<mask_t> mask = {1, 1, 0, 0, 0, 1, 1, 0,
                              1, 0, 1, 1, 0, 1, 0, 1};

  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, mask);

  for (PackScheme scheme :
       {PackScheme::kSimpleStorage, PackScheme::kCompactStorage,
        PackScheme::kCompactMessage}) {
    PackOptions opt;
    opt.scheme = scheme;
    auto result = pack(machine, a, m, opt);
    const auto expected = serial_pack<int>(data, mask);
    EXPECT_EQ(result.size, static_cast<std::int64_t>(expected.size()));
    EXPECT_EQ(result.vector.gather(), expected);
  }
}

}  // namespace
}  // namespace pup
