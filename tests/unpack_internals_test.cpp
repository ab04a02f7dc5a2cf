// White-box tests of UNPACK's two-phase redistribution: request/reply
// traffic accounting and the paper's "UNPACK communication may be twice
// PACK's" observation.
#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

struct UnpackFixture {
  dist::DistArray<std::int64_t> a;
  dist::DistArray<mask_t> m;
  dist::DistArray<std::int64_t> f;
  dist::DistArray<std::int64_t> v;
  std::int64_t size;
};

UnpackFixture make_setup(int p, dist::index_t n, dist::index_t w, double density) {
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({p}), w);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  auto gm = random_mask(n, density, 0xd00d);
  const auto count = count_true(gm);
  std::vector<std::int64_t> vhost(static_cast<std::size_t>(count));
  std::iota(vhost.begin(), vhost.end(), 100000);
  UnpackFixture s{dist::DistArray<std::int64_t>::scatter(d, data),
          dist::DistArray<mask_t>::scatter(d, gm),
          dist::DistArray<std::int64_t>::scatter(d, data),
          dist::DistArray<std::int64_t>::scatter(
              dist::Distribution::block1d(count, p), vhost),
          count};
  return s;
}

TEST(UnpackInternals, RequestAndReplyBytesMatchFormula) {
  const int p = 8;
  UnpackFixture s = make_setup(p, 512, 8, 0.5);
  auto machine = make_machine(p);
  // Requests: one index per true element, 8 bytes on the paper's wire and
  // 1 under kAuto (V's shares hold 32 or so entries); replies: one int64
  // value.
  for (const coll::WireWidth width :
       {coll::WireWidth::k64, coll::WireWidth::kAuto}) {
    UnpackOptions opt;
    opt.wire_width = width;
    auto result = unpack(machine, s.v, s.m, s.f, opt);
    const std::int64_t iw = width == coll::WireWidth::k64 ? 8 : 1;
    EXPECT_EQ(static_cast<std::int64_t>(
                  index_wire_bytes(s.v.dist().dim(0), width)),
              iw);
    std::int64_t sent = 0, recv = 0, served = 0, packed = 0;
    for (const auto& c : result.counters) {
      sent += c.bytes_sent;
      recv += c.bytes_recv;
      served += c.recv_elems;
      packed += c.packed;
    }
    EXPECT_EQ(packed, s.size);
    EXPECT_EQ(served, s.size);     // every request answered
    EXPECT_EQ(sent, iw * s.size);  // request stream
    EXPECT_EQ(recv, 8 * s.size);   // value stream
  }
}

TEST(UnpackInternals, TrafficIsRoughlyTwicePack) {
  const int p = 8;
  UnpackFixture s = make_setup(p, 4096, 16, 0.5);
  auto pm = make_machine(p);
  PackOptions popt;
  popt.scheme = PackScheme::kCompactStorage;
  (void)pack(pm, s.a, s.m, popt);
  const auto pack_bytes = pm.trace().bytes_in(sim::Category::kM2M) +
                          pm.trace().self_bytes();

  auto um = make_machine(p);
  UnpackOptions uopt;
  uopt.scheme = UnpackScheme::kCompactStorage;
  (void)unpack(um, s.v, s.m, s.f, uopt);
  const auto unpack_bytes = um.trace().bytes_in(sim::Category::kM2M) +
                            um.trace().self_bytes();

  // PACK ships (index, value) = iw + 8 bytes per element in one phase;
  // UNPACK ships iw-byte requests + 8-byte replies = the same bytes but
  // across two phases (twice the start-up rounds), iw being the index
  // width of the same block1d(count) layout on both sides.  Volumes match;
  // message counts roughly double.
  EXPECT_EQ(unpack_bytes, pack_bytes);
  EXPECT_GE(um.trace().messages_in(sim::Category::kM2M),
            pm.trace().messages_in(sim::Category::kM2M));
}

TEST(UnpackInternals, SchemesShipIdenticalBytes) {
  const int p = 4;
  UnpackFixture s = make_setup(p, 256, 4, 0.7);
  std::int64_t bytes[2];
  int i = 0;
  for (UnpackScheme scheme :
       {UnpackScheme::kSimpleStorage, UnpackScheme::kCompactStorage}) {
    auto machine = make_machine(p);
    UnpackOptions opt;
    opt.scheme = scheme;
    auto result = unpack(machine, s.v, s.m, s.f, opt);
    std::int64_t b = 0;
    for (const auto& c : result.counters) b += c.bytes_sent + c.bytes_recv;
    bytes[i++] = b;
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(UnpackInternals, AllSelfWhenAligned) {
  // Mask selects exactly the first B elements per processor's block and
  // the vector is block-distributed: every request stays local.
  const int p = 4;
  const dist::index_t n = 64;
  auto d = dist::Distribution::block(dist::Shape({n}), dist::ProcessGrid({p}));
  std::vector<mask_t> gm(static_cast<std::size_t>(n), 1);  // all true
  std::vector<std::int64_t> vhost(static_cast<std::size_t>(n));
  std::iota(vhost.begin(), vhost.end(), 0);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  dist::DistArray<std::int64_t> f(d);
  auto v = dist::DistArray<std::int64_t>::scatter(
      dist::Distribution::block1d(n, p), vhost);
  auto machine = make_machine(p);
  auto result = unpack(machine, v, m, f);
  EXPECT_EQ(machine.trace().messages_in(sim::Category::kM2M), 0);
  EXPECT_EQ(result.result.gather(), vhost);
}

}  // namespace
}  // namespace pup
