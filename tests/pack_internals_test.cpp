// White-box tests of PACK's internals: destination-run segmentation, the
// compact message scheme's wire format accounting, SSS record encoding,
// and the counter identities the Section 6.4 model defines.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using detail::for_each_dest_run;

TEST(DestRuns, SplitsExactlyAtBlockBoundaries) {
  dist::BlockCyclicDim vdim(100, 4, 25);  // block distribution: 25 each
  std::vector<std::tuple<int, std::int64_t, std::int64_t>> runs;
  for_each_dest_run(vdim, /*r0=*/20, /*n=*/40,
                    [&](int dest, std::int64_t base, std::int64_t len) {
                      runs.emplace_back(dest, base, len);
                    });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], std::make_tuple(0, std::int64_t{20}, std::int64_t{5}));
  EXPECT_EQ(runs[1], std::make_tuple(1, std::int64_t{25}, std::int64_t{25}));
  EXPECT_EQ(runs[2], std::make_tuple(2, std::int64_t{50}, std::int64_t{10}));
}

TEST(DestRuns, SingleDestinationSingleRun) {
  dist::BlockCyclicDim vdim(64, 4, 16);
  int count = 0;
  for_each_dest_run(vdim, 17, 10, [&](int dest, std::int64_t, std::int64_t len) {
    EXPECT_EQ(dest, 1);
    EXPECT_EQ(len, 10);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(DestRuns, CyclicResultSplitsEverywhere) {
  dist::BlockCyclicDim vdim(16, 4, 1);  // cyclic: every rank its own block
  int count = 0;
  for_each_dest_run(vdim, 3, 6, [&](int dest, std::int64_t base, std::int64_t len) {
    EXPECT_EQ(len, 1);
    EXPECT_EQ(dest, static_cast<int>(base % 4));
    ++count;
  });
  EXPECT_EQ(count, 6);
}

TEST(DestRuns, LengthsSumToN) {
  dist::BlockCyclicDim vdim(1000, 7, 13);
  std::int64_t total = 0;
  for_each_dest_run(vdim, 123, 456,
                    [&](int, std::int64_t, std::int64_t len) { total += len; });
  EXPECT_EQ(total, 456);
}

// Index fields are index_wire_bytes(result layout) wide: 8 bytes on the
// paper's wire, 1 here under kAuto (the 512 x 50% mask packs about 256
// elements, 32 or so per rank).
constexpr coll::WireWidth kWidths[] = {coll::WireWidth::k64,
                                       coll::WireWidth::kAuto};

TEST(WireFormat, CmsBytesMatchSegmentAccounting) {
  // CMS payload bytes == 8 * elements + 2 * iw * segments (the header's
  // index and count).
  auto machine = test::make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({512}),
                                            dist::ProcessGrid({8}), 16);
  std::vector<std::int64_t> data(512, 7);
  auto gm = random_mask(512, 0.5, 321);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  for (const coll::WireWidth width : kWidths) {
    PackOptions opt;
    opt.scheme = PackScheme::kCompactMessage;
    opt.wire_width = width;
    auto result = pack(machine, a, m, opt);
    const auto iw = static_cast<dist::index_t>(
        index_wire_bytes(result.vector.dist().dim(0), width));
    EXPECT_EQ(iw, width == coll::WireWidth::k64 ? 8 : 1);
    for (const auto& c : result.counters) {
      EXPECT_EQ(c.bytes_sent, 8 * c.packed + 2 * iw * c.segments_sent);
      EXPECT_EQ(c.bytes_recv, 8 * c.recv_elems + 2 * iw * c.segments_recv);
    }
  }
}

TEST(WireFormat, PairSchemesBytesAreIndexPlusValuePerElement) {
  auto machine = test::make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({512}),
                                            dist::ProcessGrid({8}), 16);
  std::vector<std::int64_t> data(512, 7);
  auto gm = random_mask(512, 0.5, 321);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  for (PackScheme scheme :
       {PackScheme::kSimpleStorage, PackScheme::kCompactStorage}) {
    for (const coll::WireWidth width : kWidths) {
      PackOptions opt;
      opt.scheme = scheme;
      opt.wire_width = width;
      auto result = pack(machine, a, m, opt);
      const auto iw = static_cast<dist::index_t>(
          index_wire_bytes(result.vector.dist().dim(0), width));
      for (const auto& c : result.counters) {
        EXPECT_EQ(c.bytes_sent, (iw + 8) * c.packed);
        EXPECT_EQ(c.bytes_recv, (iw + 8) * c.recv_elems);
      }
    }
  }
}

TEST(WireFormat, DecomposeRejectsIndicesOutsideTheLocalExtent) {
  // Corrupt payloads at every index width: an index at or past the
  // receiver's extent of 10, or a CMS run that overruns it, throws
  // ContractError instead of writing out of bounds (the sanitizer jobs
  // would report such a write).
  std::vector<std::int64_t> vlocal(10, -1);
  ProcCounters ctr;
  for (const std::size_t iw : {1, 2, 4, 8}) {
    const std::uint64_t widest =
        iw == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * iw)) - 1;
    auto pair = [&](std::uint64_t l) {
      ByteWriter w;
      w.put_uint(l, iw);
      w.put<std::int64_t>(5);
      return w.take();
    };
    auto run = [&](std::uint64_t l0, std::uint64_t count) {
      ByteWriter w;
      w.put_uint(l0, iw);
      w.put_uint(count, iw);
      for (std::uint64_t j = 0; j < std::min<std::uint64_t>(count, 12); ++j) {
        w.put<std::int64_t>(6);
      }
      return w.take();
    };
    auto decompose = [&](const std::vector<std::byte>& payload, bool cms) {
      detail::pack_decompose<std::int64_t>(payload, vlocal, iw, cms, ctr);
    };
    EXPECT_NO_THROW(decompose(pair(9), false)) << iw;
    EXPECT_EQ(vlocal[9], 5);
    EXPECT_NO_THROW(decompose(run(6, 4), true)) << iw;
    EXPECT_EQ(vlocal[6], 6);
    EXPECT_EQ(vlocal[9], 6);
    for (const std::uint64_t bad : {std::uint64_t{10}, widest}) {
      EXPECT_THROW(decompose(pair(bad), false), ContractError) << iw;
      EXPECT_THROW(decompose(run(bad, 1), true), ContractError) << iw;
    }
    EXPECT_THROW(decompose(run(0, 11), true), ContractError) << iw;
    EXPECT_THROW(decompose(run(7, 4), true), ContractError) << iw;
    EXPECT_THROW(decompose(run(1, widest), true), ContractError) << iw;
  }
}

TEST(WireFormat, CmsNeverShipsMoreBytesThanPairs) {
  // Segments cost two index fields but cover >= 1 element each; on the
  // int64 wire a segment of one element costs 24 vs 16 for a pair, so CMS
  // *can* lose on pathological masks -- but not when the result vector is
  // block-distributed and slices are dense, the regime the paper
  // recommends it for.
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                            dist::ProcessGrid({4}), 32);
  std::vector<std::int64_t> data(256, 1);
  std::vector<mask_t> gm(256, 1);  // all true: one segment per slice
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  PackOptions cms, sss;
  cms.scheme = PackScheme::kCompactMessage;
  sss.scheme = PackScheme::kSimpleStorage;
  auto rc = pack(machine, a, m, cms);
  auto rs = pack(machine, a, m, sss);
  auto bytes = [](const PackResult<std::int64_t>& r) {
    std::int64_t b = 0;
    for (const auto& c : r.counters) b += c.bytes_sent;
    return b;
  };
  EXPECT_LT(bytes(rc), bytes(rs));
}

TEST(SssRecords, EncodeDecodeRoundTrip) {
  // decode_sss_record must invert the initial scan's record layout for a
  // 3-D local shape.
  const dist::Shape lshape({8, 4, 6});  // L0=8, L1=4, L2=6
  const dist::index_t w0 = 2;           // T0 = 4 tiles
  // Element at local (l0=5, l1=3, l2=2): tile0 = 2, in-slice rank 1.
  const std::int32_t rec[] = {5, 3, 2, /*tile0=*/2, /*init_rank=*/1};
  const SssRecord out = decode_sss_record(rec, lshape, w0);
  // slice = tile0 + T0*(l1 + L1*l2) = 2 + 4*(3 + 4*2) = 46.
  EXPECT_EQ(out.slice, 46);
  // local linear = l0 + L0*(l1 + L1*l2) = 5 + 8*11 = 93.
  EXPECT_EQ(out.local_linear, 93);
  EXPECT_EQ(out.init_rank, 1);
}

TEST(SliceScan, BothScanningMethodsProduceIdenticalResults) {
  // Paper Section 6.1 compares scanning a slice until all counted elements
  // are found (method 1) against always scanning the whole slice
  // (method 2); the data produced must be identical.
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({128}),
                                            dist::ProcessGrid({4}), 8);
  std::vector<std::int64_t> data(128);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(128, 0.4, 77);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  for (PackScheme scheme :
       {PackScheme::kCompactStorage, PackScheme::kCompactMessage}) {
    PackOptions early, full;
    early.scheme = full.scheme = scheme;
    early.slice_scan = SliceScan::kStopEarly;
    full.slice_scan = SliceScan::kFullSlice;
    auto r1 = pack(machine, a, m, early);
    auto r2 = pack(machine, a, m, full);
    EXPECT_EQ(r1.vector.gather(), r2.vector.gather());
    EXPECT_EQ(r1.vector.gather(), serial_pack<std::int64_t>(data, gm));
  }
}

TEST(SliceScan, FullSliceWorksOnRaggedArrays) {
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({29}),
                                            dist::ProcessGrid({4}), 4);
  std::vector<std::int64_t> data(29);
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(29, 0.6, 3);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  PackOptions full;
  full.scheme = PackScheme::kCompactMessage;
  full.slice_scan = SliceScan::kFullSlice;
  auto r = pack(machine, a, m, full);
  EXPECT_EQ(r.vector.gather(), serial_pack<std::int64_t>(data, gm));
}

TEST(Counters, RecvElementsBoundedByBlock) {
  // Each processor receives at most ceil(Size/P) elements when the result
  // vector is block-distributed (the paper's E_a).
  auto machine = test::make_machine(8);
  auto d = dist::Distribution::block_cyclic(dist::Shape({1024}),
                                            dist::ProcessGrid({8}), 8);
  std::vector<std::int64_t> data(1024, 1);
  auto gm = random_mask(1024, 0.37, 55);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto result = pack(machine, a, m);
  const std::int64_t ea = (result.size + 7) / 8;
  for (const auto& c : result.counters) {
    EXPECT_LE(c.recv_elems, ea);
  }
}

TEST(Counters, SegmentsBoundedByMinOfSlicesTimesPAndPacked) {
  auto machine = test::make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({256}),
                                            dist::ProcessGrid({4}), 8);
  std::vector<std::int64_t> data(256, 1);
  auto gm = random_mask(256, 0.7, 91);
  auto a = dist::DistArray<std::int64_t>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  auto result = pack(machine, a, m, opt);
  for (const auto& c : result.counters) {
    EXPECT_LE(c.segments_sent, c.packed);  // Gs_i <= E_i (paper Section 6.4)
  }
}

}  // namespace
}  // namespace pup
