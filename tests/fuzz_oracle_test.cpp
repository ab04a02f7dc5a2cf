// Randomized configuration fuzzing: many machine/layout/density/scheme/
// wire-width combinations drawn from a deterministic RNG, every one
// checked against the serial Fortran-90 oracle, and against itself at the
// other wire width: the narrow wire must give digest-identical results
// with no more PRS bytes, and no more PACK or UNPACK many-to-many bytes,
// than the int64 one.  This is the catch-all net under the targeted
// suites.
#include <gtest/gtest.h>

#include <cstring>
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
  // Drawn after the mask, so the draws above stay those of the seeds
  // before the width axis existed.
  UnpackScheme unpack_scheme = UnpackScheme::kCompactStorage;
  coll::WireWidth width = coll::WireWidth::kAuto;
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

std::uint64_t digest(const std::vector<std::int64_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int64_t x : v) {
    unsigned char bytes[sizeof(x)];
    std::memcpy(bytes, &x, sizeof(x));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// One PACK and the UNPACK of its result at one wire width.
struct Outcome {
  std::vector<std::int64_t> packed;
  std::vector<std::int64_t> restored;  ///< empty when nothing was selected
  std::int64_t prs_bytes = 0;
  std::int64_t pack_m2m_bytes = 0;
  std::int64_t unpack_m2m_bytes = 0;
};

Outcome run_config(sim::Machine& machine, const Config& c,
                   coll::WireWidth width,
                   const dist::DistArray<std::int64_t>& a,
                   const dist::DistArray<mask_t>& m) {
  Outcome run;
  auto m2m = [&] { return machine.trace().bytes_in(sim::Category::kM2M); };
  const std::int64_t before = machine.trace().bytes_in(sim::Category::kPrs);
  const std::int64_t m2m0 = m2m();
  PackOptions opt;
  opt.scheme = c.scheme;
  opt.prs = c.prs;
  opt.schedule = c.schedule;
  opt.wire_width = width;
  auto packed = pack(machine, a, m, opt);
  run.packed = packed.vector.gather();
  const std::int64_t m2m1 = m2m();
  run.pack_m2m_bytes = m2m1 - m2m0;
  if (packed.size > 0) {
    UnpackOptions uopt;
    uopt.scheme = c.unpack_scheme;
    uopt.schedule = c.schedule;
    uopt.wire_width = width;
    run.restored = unpack(machine, packed.vector, m, a, uopt).result.gather();
  }
  run.unpack_m2m_bytes = m2m() - m2m1;
  run.prs_bytes = machine.trace().bytes_in(sim::Category::kPrs) - before;
  return run;
}

class FuzzOracle : public ::testing::TestWithParam<int> {};

TEST_P(FuzzOracle, PackAndUnpackAgreeWithSerialSemantics) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0x9e37 + 11);
  Config c = random_config(rng);
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
  c.unpack_scheme = rng.next_below(2) == 0 ? UnpackScheme::kSimpleStorage
                                           : UnpackScheme::kCompactStorage;
  c.width = rng.next_below(2) == 0 ? coll::WireWidth::kAuto
                                   : coll::WireWidth::k64;

  const Outcome run = run_config(machine, c, c.width, a, m);
  const auto expected = serial_pack<std::int64_t>(data, gm);
  ASSERT_EQ(run.packed, expected)
      << "rank " << c.extents.size() << " density " << c.density;
  ASSERT_TRUE(machine.mailboxes_empty());
  if (!run.packed.empty()) {
    ASSERT_EQ(run.restored, data);
  }

  // The same configuration at both widths, on fault-free machines so the
  // byte counts include no retransmission: identical result digests, and
  // the narrow wire never moves more PRS bytes, nor more many-to-many
  // bytes in PACK or in UNPACK.
  sim::Machine narrow_machine(p, test::test_options());
  sim::Machine wide_machine(p, test::test_options());
  const Outcome narrow =
      run_config(narrow_machine, c, coll::WireWidth::kAuto, a, m);
  const Outcome wide =
      run_config(wide_machine, c, coll::WireWidth::k64, a, m);
  EXPECT_EQ(digest(narrow.packed), digest(wide.packed));
  EXPECT_EQ(digest(narrow.restored), digest(wide.restored));
  EXPECT_EQ(digest(narrow.packed), digest(run.packed));
  EXPECT_LE(narrow.prs_bytes, wide.prs_bytes);
  EXPECT_LE(narrow.pack_m2m_bytes, wide.pack_m2m_bytes);
  EXPECT_LE(narrow.unpack_m2m_bytes, wide.unpack_m2m_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOracle, ::testing::Range(0, 60));

}  // namespace
}  // namespace pup
