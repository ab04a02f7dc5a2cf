// UNPACK tests: round-trip laws with PACK, field-array semantics, wire
// pins, and failure injection.  Oracle equivalence across layouts and
// schemes is an axis of the seeded draw (fuzz_oracle_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <string>

#include "core/api.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

TEST(Unpack, FieldSuppliesFalsePositions) {
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  std::vector<mask_t> gm = {0, 1, 0, 1, 1, 0, 0, 1};
  std::vector<int> fhost = {10, 11, 12, 13, 14, 15, 16, 17};
  std::vector<int> vhost = {100, 101, 102, 103};
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto f = dist::DistArray<int>::scatter(d, fhost);
  auto v = dist::DistArray<int>::scatter(dist::Distribution::block1d(4, 2),
                                         vhost);
  auto result = unpack(machine, v, m, f);
  EXPECT_EQ(result.result.gather(),
            (std::vector<int>{10, 100, 12, 101, 102, 15, 16, 103}));
}

TEST(Unpack, PackThenUnpackRestoresSelectedElements) {
  // unpack(pack(A, M), M, A) == A  (field = A keeps the unselected ones).
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16, 8}),
                                            dist::ProcessGrid({2, 2}), 2);
  std::vector<double> data(128);
  std::iota(data.begin(), data.end(), 0.0);
  auto gm = random_mask(128, 0.45, 21);
  auto a = dist::DistArray<double>::scatter(d, data);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);

  auto packed = pack(machine, a, m);
  auto restored = unpack(machine, packed.vector, m, a);
  EXPECT_EQ(restored.result.gather(), data);
}

TEST(Unpack, UnpackThenPackRestoresVector) {
  // pack(unpack(V, M, F), M) == V when |V| == count_true(M).
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                            dist::ProcessGrid({4}), 4);
  auto gm = random_mask(32, 0.6, 31);
  const auto count = count_true(gm);
  std::vector<int> vhost(static_cast<std::size_t>(count));
  std::iota(vhost.begin(), vhost.end(), 1);
  std::vector<int> fhost(32, 0);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto f = dist::DistArray<int>::scatter(d, fhost);
  auto v = dist::DistArray<int>::scatter(
      dist::Distribution::block1d(count, 4), vhost);

  auto unpacked = unpack(machine, v, m, f);
  auto repacked = pack(machine, unpacked.result, m);
  EXPECT_EQ(repacked.vector.gather(), vhost);
}

TEST(Unpack, OversizedVectorUsesPrefix) {
  // N' > Size: only the first Size elements of V are consumed.
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  std::vector<mask_t> gm = {1, 0, 0, 1, 0, 0, 0, 0};
  std::vector<int> fhost(8, 9);
  std::vector<int> vhost = {41, 42, 77, 78, 79, 80};
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto f = dist::DistArray<int>::scatter(d, fhost);
  auto v = dist::DistArray<int>::scatter(dist::Distribution::block1d(6, 2),
                                         vhost);
  auto result = unpack(machine, v, m, f);
  EXPECT_EQ(result.result.gather(),
            (std::vector<int>{41, 9, 9, 42, 9, 9, 9, 9}));
}

TEST(Unpack, VectorTooShortThrows) {
  auto machine = make_machine(2);
  auto d = dist::Distribution::block_cyclic(dist::Shape({8}),
                                            dist::ProcessGrid({2}), 2);
  std::vector<mask_t> gm(8, 1);
  dist::DistArray<mask_t> m = dist::DistArray<mask_t>::scatter(d, gm);
  dist::DistArray<int> f(d);
  dist::DistArray<int> v(dist::Distribution::block1d(4, 2));
  EXPECT_THROW(unpack(machine, v, m, f), ContractError);
}

TEST(Unpack, MisalignedFieldThrows) {
  auto machine = make_machine(2);
  auto dm = dist::Distribution::block_cyclic(dist::Shape({8}),
                                             dist::ProcessGrid({2}), 2);
  auto df = dist::Distribution::block_cyclic(dist::Shape({8}),
                                             dist::ProcessGrid({2}), 4);
  dist::DistArray<mask_t> m(dm);
  dist::DistArray<int> f(df);
  dist::DistArray<int> v(dist::Distribution::block1d(1, 2));
  EXPECT_THROW(unpack(machine, v, m, f), ContractError);
}

TEST(Unpack, CyclicInputVectorWorks) {
  // The input vector need not be block-distributed.
  auto machine = make_machine(4);
  auto d = dist::Distribution::block_cyclic(dist::Shape({16}),
                                            dist::ProcessGrid({4}), 2);
  auto gm = random_mask(16, 0.5, 8);
  const auto count = count_true(gm);
  std::vector<int> vhost(static_cast<std::size_t>(count));
  std::iota(vhost.begin(), vhost.end(), 70);
  std::vector<int> fhost(16, -1);
  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto f = dist::DistArray<int>::scatter(d, fhost);
  auto v = dist::DistArray<int>::scatter(
      dist::Distribution::cyclic(dist::Shape({count}), dist::ProcessGrid({4})),
      vhost);
  auto result = unpack(machine, v, m, f);
  EXPECT_EQ(result.result.gather(), serial_unpack<int>(vhost, gm, fhost));
}

TEST(Unpack, RequestPastVectorExtentThrows) {
  // A ranking whose ranks run past V's extent must stop in a typed
  // ContractError, in every build type, not index past V's storage.
  for (const UnpackScheme scheme :
       {UnpackScheme::kCompactStorage, UnpackScheme::kSimpleStorage}) {
    auto machine = make_machine(4);
    auto d = dist::Distribution::block_cyclic(dist::Shape({32}),
                                              dist::ProcessGrid({4}), 2);
    auto gm = random_mask(32, 0.5, 3);
    const auto count = count_true(gm);
    auto m = dist::DistArray<mask_t>::scatter(d, gm);
    dist::DistArray<int> f(d);
    auto v = dist::DistArray<int>::scatter(
        dist::Distribution::block1d(count, 4),
        std::vector<int>(static_cast<std::size_t>(count), 1));
    RankingOptions ropt;
    ropt.record_infos = scheme == UnpackScheme::kSimpleStorage;
    RankingResult ranking = rank_mask(machine, m, ropt);
    for (auto& pr : ranking.procs) {
      for (auto& base : pr.ps_f) base += count;
    }
    EXPECT_THROW(detail::unpack_execute<int>(machine, v, m, f, ranking,
                                             scheme, UnpackOptions{}),
                 ContractError);
  }
}

// --- Wire pin ---------------------------------------------------------
//
// Every UNPACK below is pinned to constants recorded from the element-wise
// implementation of the local phases: total message and byte counts, the
// modeled time, an FNV-1a digest over every many-to-many payload (plus the
// self traffic), and a digest of the result.  A rewrite of the local phases
// may change how the payloads are composed, never what they contain.  (The
// payload digests were re-recorded once, when requests changed from global
// ranks to the owners' local indices; on the int64 wire every count and
// time stayed as recorded.)

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

class M2mPayloadDigest final : public sim::MachineObserver {
 public:
  void on_post(const sim::Message& m, sim::Category cat) override {
    if (cat != sim::Category::kM2M) return;
    h_ = fnv1a(&m.src, sizeof(m.src), h_);
    h_ = fnv1a(&m.dst, sizeof(m.dst), h_);
    h_ = fnv1a(&m.tag, sizeof(m.tag), h_);
    h_ = fnv1a(m.payload.data(), m.payload.size(), h_);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

struct WirePin {
  std::string key;
  std::int64_t messages;
  std::int64_t bytes;
  double modeled_us;
  std::uint64_t wire;
  std::uint64_t result;
  bool operator==(const WirePin&) const = default;
};

std::string pin_row(const WirePin& w) {
  std::ostringstream os;
  os << "{\"" << w.key << "\", " << w.messages << ", " << w.bytes << ", "
     << std::hexfloat << w.modeled_us << std::defaultfloat << ", 0x"
     << std::hex << w.wire << "ULL, 0x" << w.result << "ULL},";
  return os.str();
}

// The paper's int64 wire (wire_width = k64), recorded before narrow widths
// existed, and the default narrowest-proven wire (kAuto).
const std::vector<WirePin> kWirePins = {
#include "unpack_wire_pins.inc"
};
const std::vector<WirePin> kNarrowWirePins = {
#include "unpack_wire_pins_narrow.inc"
};

struct PinLayout {
  std::string name;
  std::vector<dist::index_t> extents;
  std::vector<int> procs;
  std::vector<dist::index_t> blocks;
};

/// W_0 in {1, 2, 3, 8, 64} for d = 1, 2, 3, plus one ragged 1-D layout.
std::vector<PinLayout> pin_layouts() {
  std::vector<PinLayout> out;
  for (const dist::index_t w0 : {1, 2, 3, 8, 64}) {
    // Enough tiles that a 1% mask still selects a few elements.
    const dist::index_t t = std::max<dist::index_t>(2, 16 / w0);
    const std::string tag = "W0=" + std::to_string(w0);
    out.push_back({"d=1 " + tag, {4 * w0 * 6 * t}, {4}, {w0}});
    out.push_back({"d=2 " + tag, {2 * w0 * t, 12}, {2, 2}, {w0, 2}});
    out.push_back({"d=3 " + tag, {2 * w0 * t, 3, 4}, {2, 1, 2}, {w0, 1, 1}});
  }
  out.push_back({"ragged W0=3", {150}, {4}, {3}});
  return out;
}

WirePin run_pinned_unpack(const PinLayout& layout, int v_block,
                          UnpackScheme scheme, double density,
                          sim::ExecPolicy policy, coll::WireWidth width) {
  int p = 1;
  for (int x : layout.procs) p *= x;
  // Pinned: fault-free traffic under the given policy, whatever the env.
  sim::Machine machine(
      p, {.cost = sim::CostModel{10.0, 0.1}, .exec = policy});
  M2mPayloadDigest wire;
  machine.add_observer(&wire);

  const auto d = dist::Distribution(dist::Shape(layout.extents),
                                    dist::ProcessGrid(layout.procs),
                                    layout.blocks);
  const auto n = d.global().size();
  const auto gm =
      random_mask(n, density, 0x5eed + static_cast<std::uint64_t>(n));
  const auto count = count_true(gm);
  std::vector<std::int32_t> vhost(static_cast<std::size_t>(count));
  std::iota(vhost.begin(), vhost.end(), 1000);
  std::vector<std::int32_t> fhost(static_cast<std::size_t>(n));
  std::iota(fhost.begin(), fhost.end(), -static_cast<std::int32_t>(n));
  const auto vdist =
      v_block == 0
          ? dist::Distribution::block1d(count, p)
          : dist::Distribution::block_cyclic(dist::Shape({count}),
                                             dist::ProcessGrid({p}), v_block);

  auto m = dist::DistArray<mask_t>::scatter(d, gm);
  auto f = dist::DistArray<std::int32_t>::scatter(d, fhost);
  auto v = dist::DistArray<std::int32_t>::scatter(vdist, vhost);
  UnpackOptions opt;
  opt.scheme = scheme;
  opt.wire_width = width;
  const auto result = unpack(machine, v, m, f, opt).result.gather();
  machine.remove_observer(&wire);
  EXPECT_EQ(result, serial_unpack<std::int32_t>(vhost, gm, fhost));
  EXPECT_TRUE(machine.mailboxes_empty());

  std::ostringstream key;
  key << layout.name << " v=" << (v_block == 0 ? "block" : "bc")
      << (v_block == 0 ? "" : std::to_string(v_block)) << ' '
      << (scheme == UnpackScheme::kSimpleStorage ? "sss" : "css")
      << " p=" << density;
  const std::int64_t self = machine.trace().self_bytes();
  return WirePin{key.str(),
                 machine.trace().messages(),
                 machine.trace().bytes(),
                 machine.modeled_total_us(),
                 fnv1a(&self, sizeof(self), wire.value()),
                 fnv1a(result.data(), result.size() * sizeof(std::int32_t),
                       kFnvOffset)};
}

void check_wire_pins(sim::ExecPolicy policy, coll::WireWidth width,
                     const std::vector<WirePin>& pins) {
  std::vector<WirePin> actual;
  for (const PinLayout& layout : pin_layouts()) {
    for (const int v_block : {0, 1, 3}) {
      for (const UnpackScheme scheme :
           {UnpackScheme::kCompactStorage, UnpackScheme::kSimpleStorage}) {
        for (const double density : {0.0, 0.01, 0.5, 1.0}) {
          actual.push_back(run_pinned_unpack(layout, v_block, scheme,
                                             density, policy, width));
        }
      }
    }
  }
  ASSERT_EQ(actual.size(), pins.size()) << "pin table out of date";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], pins[i])
        << "expected " << pin_row(pins[i]) << "\n  actual "
        << pin_row(actual[i]);
  }
}

TEST(UnpackWirePin, SequentialMatchesRecordedWire) {
  check_wire_pins(sim::ExecPolicy::sequential(), coll::WireWidth::k64,
                  kWirePins);
}

TEST(UnpackWirePin, ThreadedMatchesRecordedWire) {
  check_wire_pins(sim::ExecPolicy::threaded(4), coll::WireWidth::k64,
                  kWirePins);
}

TEST(UnpackWirePin, SequentialNarrowMatchesRecordedWire) {
  check_wire_pins(sim::ExecPolicy::sequential(), coll::WireWidth::kAuto,
                  kNarrowWirePins);
}

TEST(UnpackWirePin, ThreadedNarrowMatchesRecordedWire) {
  check_wire_pins(sim::ExecPolicy::threaded(4), coll::WireWidth::kAuto,
                  kNarrowWirePins);
}

}  // namespace
}  // namespace pup
