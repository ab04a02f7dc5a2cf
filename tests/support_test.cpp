// Tests for the support utilities: contracts, RNG, byte streams.
#include <gtest/gtest.h>

#include <set>

#include "support/bytes.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pup {
namespace {

TEST(Check, RequireThrowsWithMessage) {
  try {
    PUP_REQUIRE(1 == 2, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("value was 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(PUP_REQUIRE(true, "never"));
  EXPECT_NO_THROW(PUP_CHECK(2 + 2 == 4, "math"));
}

TEST(Rng, SplitMix64KnownValues) {
  // Reference values from the public-domain SplitMix64 with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Bytes, WriteReadRoundTrip) {
  ByteWriter w;
  w.put<std::int64_t>(-5);
  w.put<double>(2.5);
  std::vector<int> vals = {1, 2, 3};
  w.put_span<int>(vals);
  EXPECT_EQ(w.size(), 8 + 8 + 12u);

  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get<std::int64_t>(), -5);
  EXPECT_EQ(r.get<double>(), 2.5);
  std::vector<int> out(3);
  r.get_into<int>(out);
  EXPECT_EQ(out, vals);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, UnderflowThrows) {
  ByteWriter w;
  w.put<std::int32_t>(1);
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(r.get<std::int64_t>(), ContractError);
}

}  // namespace
}  // namespace pup
