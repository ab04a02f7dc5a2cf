// Parameterized property sweep: PACK must reproduce the serial Fortran-90
// oracle for every (shape, grid, block, density, scheme, PRS algorithm,
// schedule) combination, and its counters must satisfy the accounting
// identities of the Section 6.4 model.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

struct Case {
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  std::vector<dist::index_t> blocks;
  double density;
};

std::string scheme_name(PackScheme s) {
  switch (s) {
    case PackScheme::kSimpleStorage:
      return "SSS";
    case PackScheme::kCompactStorage:
      return "CSS";
    case PackScheme::kCompactMessage:
      return "CMS";
    case PackScheme::kAuto:
      return "AUTO";
  }
  return "?";
}

class PackSweep
    : public ::testing::TestWithParam<std::tuple<Case, PackScheme>> {};

TEST_P(PackSweep, MatchesOracleAndAccounting) {
  const auto& [c, scheme] = GetParam();
  int p = 1;
  for (int x : c.procs) p *= x;
  auto machine = make_machine(p);
  auto d = dist::Distribution(dist::Shape(c.extents),
                              dist::ProcessGrid(c.procs), c.blocks);
  const auto n = d.global().size();
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 1000);
  auto gm = random_mask(n, c.density, 0x5eed);

  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  PackOptions opt;
  opt.scheme = scheme;
  auto result = pack(machine, a, m, opt);

  const auto expected = serial_pack<std::int64_t>(data, gm);
  EXPECT_EQ(result.size, static_cast<std::int64_t>(expected.size()));
  EXPECT_EQ(result.vector.gather(), expected) << scheme_name(scheme);

  // Accounting identities.
  std::int64_t total_packed = 0, total_recv = 0;
  for (const auto& ctr : result.counters) {
    total_packed += ctr.packed;
    total_recv += ctr.recv_elems;
    EXPECT_EQ(ctr.local_elems, n / p);
    if (scheme == PackScheme::kCompactMessage) {
      // Segments never exceed selected elements.
      EXPECT_LE(ctr.segments_sent, ctr.packed);
    }
  }
  EXPECT_EQ(total_packed, result.size);
  EXPECT_EQ(total_recv, result.size);
  // Total segments sent == total segments received.
  std::int64_t gs = 0, gr = 0;
  for (const auto& ctr : result.counters) {
    gs += ctr.segments_sent;
    gr += ctr.segments_recv;
  }
  EXPECT_EQ(gs, gr);
  EXPECT_TRUE(machine.mailboxes_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackSweep,
    ::testing::Combine(
        ::testing::Values(
            Case{{32}, {4}, {1}, 0.5},    // cyclic
            Case{{32}, {4}, {2}, 0.5},
            Case{{32}, {4}, {8}, 0.5},    // block
            Case{{96}, {3}, {4}, 0.3},    // non-pow2 P
            Case{{64}, {8}, {2}, 0.05},   // sparse
            Case{{64}, {8}, {2}, 0.98},   // dense
            Case{{64}, {1}, {64}, 0.5},   // single processor
            Case{{8, 8}, {2, 2}, {2, 2}, 0.5},
            Case{{16, 8}, {4, 2}, {1, 2}, 0.4},
            Case{{12, 12}, {2, 3}, {3, 2}, 0.7},
            Case{{8, 4, 4}, {2, 2, 2}, {2, 1, 1}, 0.5}),
        ::testing::Values(PackScheme::kSimpleStorage,
                          PackScheme::kCompactStorage,
                          PackScheme::kCompactMessage,
                          PackScheme::kAuto)));

TEST(Pack, SchemesProduceIdenticalVectors) {
  // The three schemes differ only in cost; the result must be bitwise
  // identical, including the result distribution.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({64}),
                                            dist::ProcessGrid({4}), 4);
  std::vector<double> data(64);
  std::iota(data.begin(), data.end(), 0.0);
  auto gm = random_mask(64, 0.6, 3);
  auto a = dist::DistArray<double>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  PackOptions sss, css, cms;
  sss.scheme = PackScheme::kSimpleStorage;
  css.scheme = PackScheme::kCompactStorage;
  cms.scheme = PackScheme::kCompactMessage;
  auto r1 = pack(machine, a, m, sss);
  auto r2 = pack(machine, a, m, css);
  auto r3 = pack(machine, a, m, cms);
  EXPECT_EQ(r1.vector.gather(), r2.vector.gather());
  EXPECT_EQ(r2.vector.gather(), r3.vector.gather());
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(r1.vector.local(rank).size(), r2.vector.local(rank).size());
  }
}

TEST(Pack, EmptyMaskYieldsEmptyVector) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(16, 5);
  std::vector<mask_t> gm(16, 0);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  EXPECT_EQ(result.size, 0);
  EXPECT_TRUE(result.vector.gather().empty());
}

TEST(Pack, FullMaskIsARedistribution) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 1);
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 0);
  std::vector<mask_t> gm(16, 1);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  EXPECT_EQ(result.size, 16);
  EXPECT_EQ(result.vector.gather(), data);
}

TEST(Pack, VectorArgumentProvidesPadding) {
  // F90 PACK(ARRAY, MASK, VECTOR): trailing elements come from VECTOR.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(16, 0.4, 9);
  std::vector<int> pad(24, -7);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto v = dist::DistArray<int>::scatter(dist::Distribution::block1d(24, 4),
                                         pad);
  auto result = pack(machine, a, m, v);
  const auto expected = serial_pack<int>(data, gm, pad);
  EXPECT_EQ(result.vector.gather(), expected);
}

TEST(Pack, VectorArgumentTooShortThrows) {
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({2}), 2);
  std::vector<int> data(16, 1);
  std::vector<mask_t> gm(16, 1);  // 16 selected
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto v = dist::DistArray<int>(dist::Distribution::block1d(8, 2));
  EXPECT_THROW(pack(machine, a, m, v), ContractError);
}

TEST(Pack, MisalignedMaskThrows) {
  auto machine = make_machine(2);
  auto da = dist::Distribution::block_cyclic(dist::Shape({16}),
                                             dist::ProcessGrid({2}), 2);
  auto dm = dist::Distribution::block_cyclic(dist::Shape({16}),
                                             dist::ProcessGrid({2}), 4);
  dist::DistArray<int> a(da);
  dist::DistArray<mask_t> m(dm);
  EXPECT_THROW(pack(machine, a, m), ContractError);
}

TEST(Pack, ResultVectorIsBlockDistributed) {
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({4}), 2);
  std::vector<int> data(32, 1);
  std::vector<mask_t> gm(32, 1);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  // 32 selected over 4 procs: 8 each, block layout.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(result.vector.local(r).size(), 8u);
  }
  EXPECT_EQ(result.vector.dist().dim(0).block(), 8);
}

TEST(Pack, CyclicResultVectorIncreasesSegments) {
  // Section 6.2: segment counts grow as the result block size shrinks.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({64}),
                                            dist::ProcessGrid({4}), 16);
  std::vector<int> data(64, 2);
  std::vector<mask_t> gm(64, 1);
  auto a = dist::DistArray<int>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  auto block_v = dist::DistArray<int>(dist::Distribution::block1d(64, 4));
  auto cyc_v = dist::DistArray<int>(dist::Distribution::cyclic(
      dist::Shape({64}), dist::ProcessGrid({4})));
  auto rb = pack(machine, a, m, block_v, opt);
  auto rc = pack(machine, a, m, cyc_v, opt);
  auto seg_total = [](const PackResult<int>& r) {
    std::int64_t s = 0;
    for (const auto& c : r.counters) s += c.segments_sent;
    return s;
  };
  EXPECT_GT(seg_total(rc), seg_total(rb));
  // Both still produce the right data.
  EXPECT_EQ(rb.vector.gather(), rc.vector.gather());
}

}  // namespace
}  // namespace pup
