// Unit tests for the simulated machine substrate: cost model, topology,
// mailboxes, message envelopes, time accounting, tracing, the threaded
// execution policy, MachineOptions, and the strict environment reader the
// entry points use (the library itself never reads the environment).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/reliable.hpp"
#include "core/runtime.hpp"
#include "service/server.hpp"
#include "sim/exec_policy.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "test_support.hpp"

namespace pup::sim {
namespace {

using test::make_machine;
using test::test_options;

constexpr const char* kPupVars[] = {"PUP_THREADS", "PUP_FAULTS",
                                    "PUP_RECOVERY", "PUP_SIMD",
                                    "PUP_RELIABLE"};

/// Puts the PUP_* variables back as the test found them, so a test that
/// calls setenv() leaves the process environment unchanged.
class RestoreEnvOnExit {
 public:
  RestoreEnvOnExit() {
    for (const char* name : kPupVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(name, v != nullptr ? std::optional<std::string>(v)
                                             : std::nullopt);
    }
  }
  RestoreEnvOnExit(const RestoreEnvOnExit&) = delete;
  RestoreEnvOnExit& operator=(const RestoreEnvOnExit&) = delete;
  ~RestoreEnvOnExit() {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        setenv(name, value->c_str(), 1);
      } else {
        unsetenv(name);
      }
    }
  }

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(CostModel, MessageTimeIsTauPlusMuM) {
  CostModel c{10.0, 0.5};
  EXPECT_DOUBLE_EQ(c.message_us(0), 10.0);
  EXPECT_DOUBLE_EQ(c.message_us(100), 10.0 + 50.0);
}

TEST(CostModel, PresetsAreSane) {
  // The one preset is a pure value: the CM-5 constants, the same in every
  // process, and the default of every machine and server.
  constexpr CostModel cm5 = CostModel::cm5();
  EXPECT_EQ(cm5.tau_us, 86.0);
  EXPECT_EQ(cm5.mu_us_per_byte, 0.12);
  EXPECT_EQ(cm5.message_us(1000), 86.0 + 0.12 * 1000.0);
  const CostModel machine_default = MachineOptions{}.cost;
  EXPECT_EQ(machine_default.tau_us, cm5.tau_us);
  EXPECT_EQ(machine_default.mu_us_per_byte, cm5.mu_us_per_byte);
  const CostModel server_default = service::Server::Options{}.cost;
  EXPECT_EQ(server_default.tau_us, cm5.tau_us);
  EXPECT_EQ(server_default.mu_us_per_byte, cm5.mu_us_per_byte);
}

TEST(Topology, CrossbarIsDistanceIndependent) {
  auto t = Topology::crossbar(8);
  CostModel c{1.0, 0.0};
  EXPECT_EQ(t.hops(0, 7), 1);
  EXPECT_EQ(t.hops(3, 3), 0);
  EXPECT_DOUBLE_EQ(t.message_us(c, 0, 7, 100), 1.0);
  EXPECT_DOUBLE_EQ(t.message_us(c, 2, 2, 100), 0.0);
}

TEST(Topology, HypercubeHopsArePopcount) {
  auto t = Topology::hypercube(8);
  EXPECT_EQ(t.hops(0, 7), 3);
  EXPECT_EQ(t.hops(1, 3), 1);
  EXPECT_EQ(t.hops(5, 5), 0);
}

TEST(Topology, HypercubeRequiresPowerOfTwo) {
  EXPECT_THROW(Topology::hypercube(6), pup::ContractError);
}

TEST(Topology, Mesh2DUsesManhattanDistance) {
  auto t = Topology::mesh2d(16);  // 4x4
  EXPECT_EQ(t.hops(0, 15), 6);    // (0,0) -> (3,3)
  EXPECT_EQ(t.hops(0, 1), 1);
  EXPECT_EQ(t.hops(0, 4), 1);
}

TEST(Topology, MeshAddsPerHopLatency) {
  auto t = Topology::mesh2d(16);
  t.set_per_hop_us(2.0);
  CostModel c{10.0, 0.0};
  // 0 -> 15: 6 hops, so 5 extra hop charges.
  EXPECT_DOUBLE_EQ(t.message_us(c, 0, 15, 0), 10.0 + 5 * 2.0);
}

/// The first T carried by a payload.
template <typename T>
T first_of(const std::vector<std::byte>& payload) {
  std::vector<T> values;
  read_payload<T>(payload, values);
  return values.at(0);
}

TEST(Message, PayloadRoundTrip) {
  std::vector<std::int64_t> vals = {1, -2, 3};
  auto bytes = to_payload<std::int64_t>(vals);
  EXPECT_EQ(bytes.size(), 24u);
  // read_payload resizes its destination to the payload, up or down.
  std::vector<std::int64_t> back(5, 7);
  read_payload<std::int64_t>(bytes, back);
  EXPECT_EQ(back, vals);
  back.clear();
  read_payload<std::int64_t>(bytes, back);
  EXPECT_EQ(back, vals);
  read_payload<std::int64_t>({}, back);
  EXPECT_TRUE(back.empty());
}

TEST(Message, PayloadSizeMismatchThrows) {
  std::vector<std::byte> bytes(7);
  std::vector<std::int32_t> out;
  EXPECT_THROW(read_payload<std::int32_t>(bytes, out), pup::ContractError);
}

TEST(Mailbox, FifoPerSenderAndTag) {
  Mailbox mb;
  mb.push(Message{0, 1, 5, to_payload<int>(std::vector<int>{1})});
  mb.push(Message{2, 1, 5, to_payload<int>(std::vector<int>{2})});
  mb.push(Message{0, 1, 5, to_payload<int>(std::vector<int>{3})});

  auto a = mb.pop(0, 5);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(first_of<int>(a->payload), 1);
  auto b = mb.pop(0, 5);
  EXPECT_EQ(first_of<int>(b->payload), 3);
  auto c = mb.pop();
  EXPECT_EQ(c->src, 2);
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, WildcardsAndMisses) {
  Mailbox mb;
  EXPECT_FALSE(mb.pop().has_value());
  mb.push(Message{3, 0, 9, {}});
  EXPECT_FALSE(mb.pop(3, 8).has_value());
  EXPECT_FALSE(mb.pop(2, 9).has_value());
  EXPECT_TRUE(mb.has(3, kAnyTag));
  EXPECT_TRUE(mb.pop(kAnySource, 9).has_value());
}

TEST(Machine, LocalPhaseRunsEveryRankInOrder) {
  // Rank order is a *sequential-policy* guarantee, the default.  The
  // other options reach the machine as given; the topology defaults to
  // the crossbar.
  Machine m(4, {.cost = CostModel{1, 2},
                .topology = Topology::hypercube(4),
                .exec = ExecPolicy::sequential()});
  EXPECT_DOUBLE_EQ(m.cost().tau_us, 1.0);
  EXPECT_DOUBLE_EQ(m.cost().mu_us_per_byte, 2.0);
  EXPECT_EQ(m.topology().kind(), TopologyKind::kHypercube);
  EXPECT_FALSE(m.exec().is_threaded());
  EXPECT_EQ(Machine(4).topology().kind(), TopologyKind::kCrossbar);
  EXPECT_EQ(Machine(4, {.exec = ExecPolicy::threaded(3)}).exec().threads, 3);
  std::vector<int> order;
  m.local_phase([&](int rank) { order.push_back(rank); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(m.times(r).local_us(), 0.0);
  }
}

TEST(Machine, PostReceiveAndTrace) {
  auto m = make_machine(3, test_options({1, 1}));
  m.post(Message{0, 2, 7, to_payload<int>(std::vector<int>{42})},
         Category::kM2M);
  EXPECT_TRUE(m.has_message(2, 0, 7));
  EXPECT_FALSE(m.has_message(1));
  EXPECT_EQ(m.trace().messages(), 1);
  EXPECT_EQ(m.trace().messages_in(Category::kM2M), 1);
  EXPECT_EQ(m.trace().bytes(), 4);
  EXPECT_EQ(m.trace().sent_bytes(0), 4);
  EXPECT_EQ(m.trace().recv_bytes(2), 4);

  auto msg = m.receive_required(2, 0, 7);
  EXPECT_EQ(first_of<int>(msg.payload), 42);
  EXPECT_TRUE(m.mailboxes_empty());
}

TEST(Machine, ReceiveRequiredThrowsWhenMissing) {
  auto m = make_machine(2, test_options({1, 1}));
  EXPECT_THROW(m.receive_required(0), pup::ContractError);
}

TEST(Machine, ChargeAndMaxAccounting) {
  auto m = make_machine(3, test_options({1, 1}));
  m.charge(0, Category::kPrs, 5.0);
  m.charge(1, Category::kPrs, 8.0);
  m.charge(1, Category::kM2M, 2.0);
  EXPECT_DOUBLE_EQ(m.max_us(Category::kPrs), 8.0);
  EXPECT_DOUBLE_EQ(m.max_total_us(), 10.0);
  m.reset_accounting();
  EXPECT_DOUBLE_EQ(m.max_total_us(), 0.0);
  EXPECT_EQ(m.trace().messages(), 0);
}

TEST(Machine, ResetWithPendingMessagesThrows) {
  auto m = make_machine(2, test_options({1, 1}));
  m.post(Message{0, 1, 0, {}}, Category::kLocal);
  EXPECT_THROW(m.reset_accounting(), pup::ContractError);
}

TEST(Machine, BadRankThrows) {
  auto m = make_machine(2, test_options({1, 1}));
  EXPECT_THROW(m.post(Message{0, 5, 0, {}}, Category::kLocal),
               pup::ContractError);
  EXPECT_THROW(m.receive(-1), pup::ContractError);
  EXPECT_THROW(Machine(0), pup::ContractError);
  EXPECT_THROW(Machine(4, {.topology = Topology::crossbar(2)}),
               pup::ContractError);
  EXPECT_THROW(Machine(4, {.exec = ExecPolicy{0}}), pup::ContractError);
}

TEST(Machine, IgnoresProcessEnvironment) {
  // Only entry points read the environment (support::Env::read).  Every
  // variable set here -- including the retired PUP_RELIABLE -- must leave
  // a Machine, a Runtime and a Server at their defaults.
  const RestoreEnvOnExit restore;
  setenv("PUP_THREADS", "4", 1);
  setenv("PUP_FAULTS", "seed=1 drop=1.0", 1);
  setenv("PUP_RECOVERY", "restarts=3", 1);
  setenv("PUP_RELIABLE", "1", 1);

  Machine m(4);
  EXPECT_FALSE(m.exec().is_threaded());
  EXPECT_EQ(m.fault_plan(), nullptr);
  EXPECT_FALSE(coll::ReliableTransport::of(m).active(m));

  pup::Runtime rt(4);
  EXPECT_FALSE(rt.machine().exec().is_threaded());
  EXPECT_EQ(rt.machine().fault_plan(), nullptr);
  EXPECT_EQ(rt.recovery().max_restarts, 0);

  service::Server server(service::Server::Options{});
  EXPECT_FALSE(server.machine().exec().is_threaded());
  EXPECT_EQ(server.machine().fault_plan(), nullptr);
}

TEST(Env, ReadIsStrictAndEmptyMeansUnset) {
  // Strict on purpose (the old PUP_THREADS read was lenient): a malformed
  // value fails at startup instead of silently running unconfigured.
  const RestoreEnvOnExit restore;
  for (const char* name : kPupVars) unsetenv(name);
  support::Env env = support::Env::read();
  EXPECT_FALSE(env.threads.has_value());
  EXPECT_FALSE(env.faults.has_value());
  EXPECT_FALSE(env.recovery.has_value());
  EXPECT_FALSE(env.simd.has_value());

  for (const char* name : kPupVars) setenv(name, "", 1);
  env = support::Env::read();
  EXPECT_FALSE(env.threads.has_value());
  EXPECT_FALSE(env.faults.has_value());
  EXPECT_FALSE(env.recovery.has_value());
  EXPECT_FALSE(env.simd.has_value());

  setenv("PUP_THREADS", "4", 1);
  setenv("PUP_FAULTS", "seed=5 drop=1.0", 1);
  setenv("PUP_RECOVERY", "restarts=5 backoff=3.0", 1);
  setenv("PUP_SIMD", "off", 1);
  env = support::Env::read();
  EXPECT_EQ(env.threads, 4);
  EXPECT_EQ(env.faults, "seed=5 drop=1.0");
  EXPECT_EQ(env.recovery, "restarts=5 backoff=3.0");
  EXPECT_EQ(env.simd, false);
  setenv("PUP_THREADS", "1024", 1);
  setenv("PUP_SIMD", "on", 1);
  env = support::Env::read();
  EXPECT_EQ(env.threads, 1024);
  EXPECT_EQ(env.simd, true);

  auto expect_rejected = [](const char* name, const char* value) {
    setenv(name, value, 1);
    try {
      (void)support::Env::read();
      ADD_FAILURE() << name << "=\"" << value << "\" was accepted";
    } catch (const pup::ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    setenv(name, "", 1);
  };
  for (const char* bad : {"abc", "-2", "0", "4x", "1e3", " 4", "1025"}) {
    expect_rejected("PUP_THREADS", bad);
  }
  expect_rejected("PUP_SIMD", "fast");
  expect_rejected("PUP_FAULTS", "drop=2.0");
  expect_rejected("PUP_RECOVERY", "restarts=-1");
}

Machine make_threaded(int nprocs, int threads) {
  return Machine(nprocs, {.cost = CostModel{1, 1},
                          .exec = ExecPolicy::threaded(threads)});
}

TEST(ExecPolicy, FactoriesAndValidation) {
  EXPECT_FALSE(ExecPolicy::sequential().is_threaded());
  EXPECT_TRUE(ExecPolicy::threaded(4).is_threaded());
  EXPECT_FALSE(ExecPolicy::threaded(1).is_threaded());
  EXPECT_THROW(ExecPolicy::threaded(0), pup::ContractError);
  EXPECT_THROW(ExecPolicy::threaded(-3), pup::ContractError);
}

TEST(MachineThreaded, LocalPhaseRunsEveryRankExactlyOnce) {
  Machine m = make_threaded(8, 4);
  std::vector<std::atomic<int>> hits(8);
  m.local_phase([&](int rank) {
    hits[static_cast<std::size_t>(rank)].fetch_add(1);
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(hits[static_cast<std::size_t>(r)].load(), 1);
    EXPECT_GT(m.times(r).local_us(), 0.0);
  }
}

TEST(MachineThreaded, PoolIsReusedAcrossManyPhases) {
  Machine m = make_threaded(4, 4);
  std::vector<std::atomic<long>> sums(4);
  for (int iter = 0; iter < 100; ++iter) {
    m.local_phase([&](int rank) {
      sums[static_cast<std::size_t>(rank)].fetch_add(rank + 1);
    });
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(sums[static_cast<std::size_t>(r)].load(), 100L * (r + 1));
  }
}

TEST(MachineThreaded, LowestRankExceptionWinsDeterministically) {
  Machine m = make_threaded(8, 4);
  // Several ranks throw; the caller must always see rank 2's error no
  // matter how the pool schedules the bodies.
  for (int iter = 0; iter < 20; ++iter) {
    try {
      m.local_phase([&](int rank) {
        if (rank == 2 || rank == 5 || rank == 7) {
          throw std::runtime_error("rank " + std::to_string(rank));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 2");
    }
    // The machine stays usable after a throwing phase.
    m.local_phase([](int) {});
  }
}

TEST(MachineThreaded, MorePoolThreadsThanRanksIsFine) {
  Machine m = make_threaded(2, 16);
  std::vector<std::atomic<int>> hits(2);
  m.local_phase([&](int rank) {
    hits[static_cast<std::size_t>(rank)].fetch_add(1);
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(MachineThreaded, SingleProcessorFallsBackToSequential) {
  // nprocs == 1 never engages the pool regardless of policy.
  Machine m(1, {.cost = CostModel{1, 1}, .exec = ExecPolicy::threaded(8)});
  int hits = 0;
  m.local_phase([&](int) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(MachineThreaded, ChargesFromConcurrentRanksAllLand) {
  Machine m = make_threaded(8, 4);
  m.local_phase([&](int rank) { m.charge(rank, Category::kPrs, 1.0); });
  for (int r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(m.times(r)[Category::kPrs], 1.0);
  }
}

TEST(TimeBreakdown, Accumulates) {
  TimeBreakdown t;
  t[Category::kLocal] = 1.0;
  t[Category::kPrs] = 2.0;
  TimeBreakdown u;
  u[Category::kM2M] = 3.0;
  t += u;
  EXPECT_DOUBLE_EQ(t.total_us(), 6.0);
}

}  // namespace
}  // namespace pup::sim
