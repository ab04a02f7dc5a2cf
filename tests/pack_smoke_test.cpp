// End-to-end smoke tests: PACK/UNPACK on small arrays against the serial
// Fortran-90 oracle.
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

test::TestMachine make_machine(int p) {
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

TEST(PackSmoke, UnpackRoundTrip) {
  auto machine = make_machine(4);
  const dist::index_t n = 24;
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({4}), 3);
  std::vector<int> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto mask = random_mask(n, 0.5, 42);
  std::vector<int> field(static_cast<std::size_t>(n), -1);

  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, mask);
  auto f = dist::DistArray<int>::scatter(d, std::span<const int>(field));

  auto packed = pack(machine, a, m);
  for (UnpackScheme scheme :
       {UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage}) {
    UnpackOptions opt;
    opt.scheme = scheme;
    auto result = unpack(machine, packed.vector, m, f, opt);
    const auto packed_host = packed.vector.gather();
    const auto expected =
        serial_unpack<int>(packed_host, mask, field);
    EXPECT_EQ(result.result.gather(), expected);
  }
}

TEST(PackSmoke, TwoDimensional) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<double> data(64);
  std::iota(data.begin(), data.end(), 0.0);
  auto mask = random_mask(64, 0.4, 7);

  auto a = dist::DistArray<double>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, mask);

  auto result = pack(machine, a, m);
  EXPECT_EQ(result.vector.gather(), serial_pack<double>(data, mask));
}

}  // namespace
}  // namespace pup
