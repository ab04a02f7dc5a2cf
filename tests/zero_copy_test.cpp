// Zero-copy regression tests: on a clean network a payload is composed
// once and moved thereafter -- post, mailbox/channel hand-off, receive,
// decompose.  Message's instrumented copy operations count every
// payload-carrying copy (sim/message.hpp), so these tests can assert the
// clean paths perform none, and that the per-rank payload arenas actually
// recycle buffer capacity across rounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/api.hpp"
#include "sim/message.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

struct Fixtures {
  dist::DistArray<std::int64_t> array;
  dist::DistArray<mask_t> mask;
  dist::DistArray<std::int64_t> field;
};

Fixtures make_fixtures(int p, dist::index_t n) {
  auto d = dist::Distribution::block_cyclic(dist::Shape({n}),
                                            dist::ProcessGrid({p}), 64);
  std::vector<std::int64_t> data(static_cast<std::size_t>(n));
  std::iota(data.begin(), data.end(), 0);
  return Fixtures{
      dist::DistArray<std::int64_t>::scatter(d, data),
      dist::DistArray<mask_t>::scatter(d, random_mask(n, 0.5, 21)),
      dist::DistArray<std::int64_t>::scatter(
          d, std::vector<std::int64_t>(static_cast<std::size_t>(n), -1))};
}

TEST(ZeroCopy, PackPerformsNoPayloadCopies) {
  const int p = 8;
  auto machine = test::make_machine(p);
  auto fx = make_fixtures(p, 1 << 12);
  for (const PackScheme scheme :
       {PackScheme::kSimpleStorage, PackScheme::kCompactStorage,
        PackScheme::kCompactMessage}) {
    PackOptions opt;
    opt.scheme = scheme;
    const std::int64_t before = sim::Message::payload_copies();
    auto result = pack(machine, fx.array, fx.mask, opt);
    EXPECT_EQ(sim::Message::payload_copies(), before)
        << "scheme " << static_cast<int>(scheme)
        << " copied a message payload on a clean network";
    EXPECT_EQ(result.size, count_true(fx.mask.gather()));
    machine.reset_accounting();
  }
}

TEST(ZeroCopy, UnpackPerformsNoPayloadCopies) {
  const int p = 8;
  auto machine = test::make_machine(p);
  auto fx = make_fixtures(p, 1 << 12);
  auto packed = pack(machine, fx.array, fx.mask);
  machine.reset_accounting();
  const std::int64_t before = sim::Message::payload_copies();
  auto result = unpack(machine, packed.vector, fx.mask, fx.field);
  EXPECT_EQ(sim::Message::payload_copies(), before)
      << "UNPACK copied a message payload on a clean network";
  EXPECT_EQ(result.size, packed.size);
}

TEST(ZeroCopy, ArenaRecyclesPayloadCapacityAcrossRounds) {
  const int p = 4;
  auto machine = test::make_machine(p);
  auto fx = make_fixtures(p, 1 << 12);
  PackOptions opt;
  opt.scheme = PackScheme::kCompactMessage;
  auto first = pack(machine, fx.array, fx.mask, opt);
  // Round one: nothing to reuse yet, but every consumed payload's capacity
  // must have been released back.
  for (int rank = 0; rank < p; ++rank) {
    EXPECT_GT(machine.payload_arena(rank).stats().released, 0) << rank;
  }
  machine.reset_accounting();
  auto second = pack(machine, fx.array, fx.mask, opt);
  for (int rank = 0; rank < p; ++rank) {
    EXPECT_GT(machine.payload_arena(rank).stats().reused, 0) << rank;
  }
  EXPECT_EQ(first.vector.gather(), second.vector.gather());
}

TEST(ZeroCopy, ArenaPurgesOnEpochRollback) {
  const int p = 2;
  auto machine = test::make_machine(p);
  auto fx = make_fixtures(p, 1 << 8);
  pack(machine, fx.array, fx.mask);
  EXPECT_GT(machine.payload_arena(0).cached(), 0u);
  machine.reset_accounting();
  auto cp = machine.checkpoint_epoch();
  machine.rollback_epoch(*cp);
  for (int rank = 0; rank < p; ++rank) {
    EXPECT_EQ(machine.payload_arena(rank).cached(), 0u) << rank;
    EXPECT_GT(machine.payload_arena(rank).stats().purged, 0) << rank;
  }
}

TEST(ZeroCopy, CopyCounterCountsIntentionalCopies) {
  const std::int64_t before = sim::Message::payload_copies();
  sim::Message m(0, 1, 7, std::vector<std::byte>(16));
  sim::Message copy = m;  // payload-carrying copy: counted
  EXPECT_EQ(sim::Message::payload_copies(), before + 1);
  sim::Message moved = std::move(copy);  // move: free
  EXPECT_EQ(sim::Message::payload_copies(), before + 1);
  sim::Message empty(0, 1, 7, {});
  sim::Message empty_copy = empty;  // empty payload: not counted
  EXPECT_EQ(sim::Message::payload_copies(), before + 1);
  EXPECT_TRUE(empty_copy.payload.empty());
  EXPECT_EQ(moved.payload.size(), 16u);
}

}  // namespace
}  // namespace pup
