// Property test: every vector collective against a serial reference, over
// group sizes G in {1, 2, 3, 4, 5, 8, 16} (powers of two and not) and
// vector lengths M in {0, 1, 7, 128, 16384}, on a clean network and under
// a seeded fault plan.  The collectives fold received payloads where they
// lie, so the faulted runs prove that the reliable layer's retransmits,
// duplicates and truncation recovery still hand every fold the right
// bytes.  The direct algorithm is also run on poisoned storage, which
// shows any prefix slot it leaves unwritten.  Groups are embedded in a
// larger machine in reverse rank order, so rank_at() is never the identity
// and a non-member's buffer must stay untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coll/broadcast.hpp"
#include "coll/prefix_reduction_sum.hpp"
#include "coll/reduce.hpp"
#include "coll/scan.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "test_support.hpp"

namespace pup::coll {
namespace {

using Vec = std::vector<std::int64_t>;
using Bufs = std::vector<Vec>;

const int kGroupSizes[] = {1, 2, 3, 4, 5, 8, 16};
const std::size_t kLengths[] = {0, 1, 7, 128, 16384};
const char* const kFaultSpec =
    "seed=4242 drop=0.05 dup=0.03 delay=0.04 ticks=2 trunc=0.03";

/// Machine rank 0 stays outside the group; member i is machine rank G - i.
Group reversed_group(int g) {
  std::vector<int> ranks;
  for (int i = 0; i < g; ++i) ranks.push_back(g - i);
  return Group(std::move(ranks));
}

/// A machine of G + 1 processors, fault-free or with the seeded plan
/// (Machine cannot be moved, hence the pointer).
std::unique_ptr<sim::Machine> make_machine(int g, bool faulted) {
  auto m = std::make_unique<sim::Machine>(g + 1, test::test_options());
  if (faulted) m->set_fault_plan(sim::FaultPlan::parse(kFaultSpec));
  return m;
}

/// Inputs indexed by machine rank; the non-member gets a sentinel.
Bufs make_inputs(int g, std::size_t len, std::uint64_t seed) {
  Bufs bufs(static_cast<std::size_t>(g + 1));
  Xoshiro256 rng(seed);
  for (auto& v : bufs) {
    v.resize(len);
    for (auto& x : v) {
      x = static_cast<std::int64_t>(rng.next_below(1 << 20)) - (1 << 19);
    }
  }
  bufs[0].assign(3, -99);
  return bufs;
}

/// Sum of members [0, upto) of `group`, element-wise.
Vec ref_sum(const Bufs& in, const Group& group, int upto, std::size_t len) {
  Vec acc(len, 0);
  for (int i = 0; i < upto; ++i) {
    const Vec& v = in[static_cast<std::size_t>(group.rank_at(i))];
    for (std::size_t j = 0; j < len; ++j) acc[j] += v[j];
  }
  return acc;
}

std::string label(const char* what, int g, std::size_t len, bool faulted) {
  return std::string(what) + " G=" + std::to_string(g) +
         " M=" + std::to_string(len) + (faulted ? " faulted" : " clean");
}

class CollectiveProperty : public ::testing::TestWithParam<bool> {};

TEST_P(CollectiveProperty, PrefixReductionSumMatchesSerial) {
  const bool faulted = GetParam();
  for (const int g : kGroupSizes) {
    const Group group = reversed_group(g);
    for (const std::size_t len : kLengths) {
      const Bufs in =
          make_inputs(g, len, 17 * static_cast<std::uint64_t>(g) + len);
      const Vec total = ref_sum(in, group, g, len);
      for (const PrsAlgorithm alg :
           {PrsAlgorithm::kDirect, PrsAlgorithm::kSplit,
            PrsAlgorithm::kControlNetwork, PrsAlgorithm::kAuto}) {
        const std::string what =
            label("prs", g, len, faulted) + " alg=" +
            std::to_string(static_cast<int>(alg));
        auto machine = make_machine(g, faulted);
        sim::Machine& m = *machine;
        Bufs prefix = in;
        Bufs tot;
        prefix_reduction_sum(m, group, alg, prefix, tot);
        EXPECT_TRUE(m.mailboxes_empty()) << what;
        for (int i = 0; i < g; ++i) {
          const auto r = static_cast<std::size_t>(group.rank_at(i));
          ASSERT_EQ(prefix[r], ref_sum(in, group, i, len))
              << what << " i=" << i;
          ASSERT_EQ(tot[r], total) << what << " i=" << i;
        }
        EXPECT_EQ(prefix[0], in[0]) << what;
      }
    }
  }
}

/// An allocator whose fresh storage is poisoned and whose resize() leaves
/// it so (default-initialization, as support::UninitVector does): a PRS
/// that reads a prefix slot before writing it returns garbage.
template <typename T>
struct PoisonAllocator {
  using value_type = T;
  PoisonAllocator() = default;
  template <typename U>
  PoisonAllocator(const PoisonAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    T* p = std::allocator<T>{}.allocate(n);
    std::memset(static_cast<void*>(p), 0xa5, n * sizeof(T));
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const PoisonAllocator&, const PoisonAllocator&) {
    return true;
  }
};

TEST_P(CollectiveProperty, DirectPrsWritesEveryPrefixSlot) {
  // Recursive doubling sizes the prefixes without zero-filling them: a
  // member's first lower subcube is copied in, later ones are added, and
  // only member 0's prefix is zero-filled.  Poisoned fresh storage shows
  // any slot that path misses.
  using PVec = std::vector<std::int64_t, PoisonAllocator<std::int64_t>>;
  const bool faulted = GetParam();
  for (const int g : {2, 8, 16}) {
    const Group group = reversed_group(g);
    for (const std::size_t len : kLengths) {
      const std::string what = label("prs direct poisoned", g, len, faulted);
      const Bufs in =
          make_inputs(g, len, 29 * static_cast<std::uint64_t>(g) + len);
      std::vector<PVec> prefix;
      for (const Vec& v : in) prefix.emplace_back(v.begin(), v.end());
      std::vector<PVec> tot;
      auto machine = make_machine(g, faulted);
      prefix_reduction_sum(*machine, group, PrsAlgorithm::kDirect, prefix,
                           tot);
      EXPECT_TRUE(machine->mailboxes_empty()) << what;
      const Vec total = ref_sum(in, group, g, len);
      for (int i = 0; i < g; ++i) {
        const auto r = static_cast<std::size_t>(group.rank_at(i));
        ASSERT_EQ(Vec(prefix[r].begin(), prefix[r].end()),
                  ref_sum(in, group, i, len))
            << what << " i=" << i;
        ASSERT_EQ(Vec(tot[r].begin(), tot[r].end()), total)
            << what << " i=" << i;
      }
      EXPECT_EQ(Vec(prefix[0].begin(), prefix[0].end()), in[0]) << what;
    }
  }
}

TEST_P(CollectiveProperty, ExscanMatchesSerial) {
  const bool faulted = GetParam();
  for (const int g : kGroupSizes) {
    const Group group = reversed_group(g);
    for (const std::size_t len : kLengths) {
      const std::string what = label("exscan", g, len, faulted);
      const Bufs in =
          make_inputs(g, len, 31 * static_cast<std::uint64_t>(g) + len);
      auto machine = make_machine(g, faulted);
      sim::Machine& m = *machine;
      Bufs bufs = in;
      Bufs inclusive;
      exscan_sum(m, group, bufs, &inclusive);
      EXPECT_TRUE(m.mailboxes_empty()) << what;
      for (int i = 0; i < g; ++i) {
        const auto r = static_cast<std::size_t>(group.rank_at(i));
        ASSERT_EQ(bufs[r], ref_sum(in, group, i, len))
            << what << " i=" << i;
        ASSERT_EQ(inclusive[r], ref_sum(in, group, i + 1, len))
            << what << " i=" << i;
      }
      EXPECT_EQ(bufs[0], in[0]) << what;
    }
  }
}

TEST_P(CollectiveProperty, AllreduceMatchesSerial) {
  const bool faulted = GetParam();
  for (const int g : kGroupSizes) {
    const Group group = reversed_group(g);
    for (const std::size_t len : kLengths) {
      const std::string what = label("allreduce", g, len, faulted);
      const Bufs in =
          make_inputs(g, len, 43 * static_cast<std::uint64_t>(g) + len);
      Vec max(len, INT64_MIN);
      for (int i = 0; i < g; ++i) {
        const Vec& v = in[static_cast<std::size_t>(group.rank_at(i))];
        for (std::size_t j = 0; j < len; ++j) {
          max[j] = std::max(max[j], v[j]);
        }
      }
      auto machine = make_machine(g, faulted);
      sim::Machine& m = *machine;
      Bufs sums = in;
      allreduce_sum(m, group, sums);
      Bufs maxes = in;
      allreduce(m, group, maxes,
                [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
      EXPECT_TRUE(m.mailboxes_empty()) << what;
      for (int i = 0; i < g; ++i) {
        const auto r = static_cast<std::size_t>(group.rank_at(i));
        ASSERT_EQ(sums[r], ref_sum(in, group, g, len))
            << what << " i=" << i;
        ASSERT_EQ(maxes[r], max) << what << " i=" << i;
      }
      EXPECT_EQ(sums[0], in[0]) << what;
    }
  }
}

TEST_P(CollectiveProperty, BroadcastMatchesSerial) {
  const bool faulted = GetParam();
  for (const int g : kGroupSizes) {
    const Group group = reversed_group(g);
    for (const std::size_t len : kLengths) {
      for (const int root : {0, g / 2, g - 1}) {
        const std::string what =
            label("broadcast", g, len, faulted) + " root=" +
            std::to_string(root);
        const Bufs in =
          make_inputs(g, len, 59 * static_cast<std::uint64_t>(g) + len);
        auto machine = make_machine(g, faulted);
        sim::Machine& m = *machine;
        Bufs bufs = in;
        // Non-root members start with buffers of the wrong length: the
        // receive must size them, not assume them.
        for (int i = 0; i < g; ++i) {
          if (i != root) {
            bufs[static_cast<std::size_t>(group.rank_at(i))].assign(len + 3,
                                                                    5);
          }
        }
        broadcast(m, group, root, bufs);
        EXPECT_TRUE(m.mailboxes_empty()) << what;
        const Vec& want = in[static_cast<std::size_t>(group.rank_at(root))];
        for (int i = 0; i < g; ++i) {
          ASSERT_EQ(bufs[static_cast<std::size_t>(group.rank_at(i))], want)
              << what << " i=" << i;
        }
        EXPECT_EQ(bufs[0], in[0]) << what;
      }
    }
  }
}

TEST_P(CollectiveProperty, NonInt64VectorsFoldElementByElement) {
  // Only base-rank vectors (uint8, uint16, uint32, int64) take the
  // add_packed kernel; every other element type is memcpy'd out of the
  // payload one element at a time.
  const bool faulted = GetParam();
  for (const int g : {4, 5}) {
    const Group group = reversed_group(g);
    for (const std::size_t len : {std::size_t{1}, std::size_t{7}}) {
      std::vector<std::vector<double>> in(static_cast<std::size_t>(g + 1));
      for (std::size_t r = 0; r < in.size(); ++r) {
        for (std::size_t j = 0; j < len; ++j) {
          in[r].push_back(0.5 * static_cast<double>(r) + 0.25 *
                          static_cast<double>(j));
        }
      }
      for (const PrsAlgorithm alg : {PrsAlgorithm::kDirect,
                                     PrsAlgorithm::kSplit}) {
        const std::string what = label("prs<double>", g, len, faulted);
        auto machine = make_machine(g, faulted);
        sim::Machine& m = *machine;
        auto prefix = in;
        std::vector<std::vector<double>> tot;
        prefix_reduction_sum(m, group, alg, prefix, tot);
        EXPECT_TRUE(m.mailboxes_empty()) << what;
        std::vector<double> running(len, 0.0);
        for (int i = 0; i < g; ++i) {
          const auto r = static_cast<std::size_t>(group.rank_at(i));
          // Small dyadic values: every partial sum is exact in double.
          ASSERT_EQ(prefix[r], running) << what << " i=" << i;
          for (std::size_t j = 0; j < len; ++j) running[j] += in[r][j];
        }
        for (int i = 0; i < g; ++i) {
          ASSERT_EQ(tot[static_cast<std::size_t>(group.rank_at(i))], running)
              << what << " i=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Network, CollectiveProperty, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Faulted" : "Clean";
                         });

}  // namespace
}  // namespace pup::coll
