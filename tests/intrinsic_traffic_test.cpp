// Traffic pins for the intrinsics that move elements with one many-to-many
// exchange: CSHIFT, EOSHIFT, TRANSPOSE, permute_dims, both redistribution
// modes, and PACK with either preliminary redistribution (Red1, Red2).
//
// Each operation runs on a fresh machine and is pinned to its recorded
// analysis::TraceDigest -- message and byte counts in total and per
// category, per-rank sent and received bytes, and the modeled charge per
// rank and category -- plus a digest of its result.  A rewrite of how these
// intrinsics compose and place their messages may change what an index
// field holds, never how many messages and bytes move or what they cost.
//
// A case with no recorded row fails and prints the row to commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "core/api.hpp"
#include "test_support.hpp"

namespace pup {
namespace {

using test::make_machine;

struct TrafficPin {
  std::string key;
  std::string digest;
};

const std::vector<TrafficPin> kTrafficPins = {
#include "intrinsic_traffic_pins.inc"
};

std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t result_digest(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

template <typename V>
void put_list(std::ostringstream& os, const char* name, const V& v) {
  os << ' ' << name << '=';
  const char* sep = "";
  for (const auto& x : v) {
    os << sep << x;
    sep = ",";
  }
}

/// Canonical text of a digest: every count, and every nonzero modeled
/// charge as a hexfloat (so the comparison is bit-exact).
std::string render(const analysis::TraceDigest& d, std::uint64_t result) {
  std::ostringstream os;
  os << "msgs=" << d.messages << " bytes=" << d.bytes
     << " self=" << d.self_bytes;
  put_list(os, "cat_msgs", d.messages_by_cat);
  put_list(os, "cat_bytes", d.bytes_by_cat);
  put_list(os, "sent", d.sent_bytes);
  put_list(os, "recv", d.recv_bytes);
  os << " charged=" << std::hexfloat;
  const char* sep = "";
  for (std::size_t r = 0; r < d.charged_us.size(); ++r) {
    for (int c = 0; c < sim::kNumCategories; ++c) {
      const double us = d.charged_us[r][static_cast<std::size_t>(c)];
      if (us == 0.0) continue;
      os << sep << 'r' << r << 'c' << c << ':' << us;
      sep = ",";
    }
  }
  os << std::defaultfloat << " result=0x" << std::hex << result;
  return os.str();
}

/// Runs `op` on a fresh P-rank machine and renders its digest; `op` returns
/// the digest of its gathered result.
std::string run(int P, const std::function<std::uint64_t(sim::Machine&)>& op) {
  auto machine = make_machine(P);
  analysis::DigestRecorder recorder(machine);
  const std::uint64_t result = op(machine);
  EXPECT_TRUE(machine.mailboxes_empty());
  return render(recorder.digest(), result);
}

template <typename T>
dist::DistArray<T> iota_array(const dist::Distribution& d, T first) {
  std::vector<T> host(static_cast<std::size_t>(d.global().size()));
  std::iota(host.begin(), host.end(), first);
  return dist::DistArray<T>::scatter(d, host);
}

dist::Distribution layout(std::vector<dist::index_t> extents,
                          std::vector<int> procs,
                          std::vector<dist::index_t> blocks) {
  return dist::Distribution(dist::Shape(std::move(extents)),
                            dist::ProcessGrid(std::move(procs)),
                            std::move(blocks));
}

/// Every pinned operation, keyed.
std::map<std::string, std::string> observed() {
  std::map<std::string, std::string> out;
  // A ragged 1-D layout and a 2-D block-cyclic one.
  const auto d1 = layout({30}, {4}, {3});
  const auto d2 = layout({12, 10}, {2, 2}, {2, 3});

  struct Shift {
    const char* name;
    const dist::Distribution* d;
    int dim;
    dist::index_t shift;
  };
  const Shift shifts[] = {
      {"1d dim0 +5", &d1, 0, 5},  {"1d dim0 -7", &d1, 0, -7},
      {"2d dim0 +3", &d2, 0, 3},  {"2d dim0 -5", &d2, 0, -5},
      {"2d dim1 +4", &d2, 1, 4},  {"2d dim1 -2", &d2, 1, -2},
  };
  for (const Shift& s : shifts) {
    out[std::string("cshift ") + s.name] = run(4, [&](sim::Machine& m) {
      const auto a = iota_array<double>(*s.d, 0.5);
      return result_digest(cshift(m, a, s.dim, s.shift).gather());
    });
    out[std::string("eoshift ") + s.name] = run(4, [&](sim::Machine& m) {
      const auto a = iota_array<std::int32_t>(*s.d, 1);
      return result_digest(
          eoshift<std::int32_t>(m, a, s.dim, s.shift, -9).gather());
    });
  }

  out["transpose 12x10 on 2x2"] = run(4, [&](sim::Machine& m) {
    const auto a = iota_array<double>(d2, 0.25);
    return result_digest(transpose(m, a).gather());
  });
  out["permute_dims 6x4x5 perm 2,0,1"] = run(4, [&](sim::Machine& m) {
    const auto d3 = layout({6, 4, 5}, {2, 1, 2}, {1, 2, 2});
    const auto a = iota_array<std::int32_t>(d3, 3);
    const int perm[] = {2, 0, 1};
    return result_digest(permute_dims(m, a, perm).gather());
  });

  struct Move {
    const char* name;
    dist::Distribution from;
    dist::Distribution to;
  };
  const Move moves[] = {
      {"1d cyclic->block P=5", layout({60}, {5}, {1}), layout({60}, {5}, {12})},
      {"2d 16x12 (1,3)->(4,2)", layout({16, 12}, {2, 2}, {1, 3}),
       layout({16, 12}, {2, 2}, {4, 2})},
  };
  for (const Move& mv : moves) {
    for (const dist::RedistMode mode :
         {dist::RedistMode::kWithIndices, dist::RedistMode::kDetectBothSides}) {
      const char* tag =
          mode == dist::RedistMode::kWithIndices ? "indices" : "both-sides";
      out[std::string("redistribute ") + tag + ' ' + mv.name] =
          run(mv.from.nprocs(), [&](sim::Machine& m) {
            const auto a = iota_array<std::int64_t>(mv.from, 7);
            dist::DistArray<std::int64_t> b(mv.to);
            dist::redistribute(m, a, b, mode);
            return result_digest(b.gather());
          });
    }
  }

  struct Packed {
    const char* name;
    dist::Distribution d;
    double density;
  };
  const Packed packs[] = {
      {"1d 96 cyclic P=4", layout({96}, {4}, {1}), 0.3},
      {"2d 16x12 cyclic 2x2", layout({16, 12}, {2, 2}, {1, 1}), 0.6},
  };
  for (const Packed& pk : packs) {
    for (const RedistributionScheme scheme :
         {RedistributionScheme::kSelectedData,
          RedistributionScheme::kWholeArrays}) {
      const char* tag =
          scheme == RedistributionScheme::kSelectedData ? "red1" : "red2";
      out[std::string("pack ") + tag + ' ' + pk.name] =
          run(pk.d.nprocs(), [&](sim::Machine& m) {
            const auto a = iota_array<double>(pk.d, 1.0);
            const auto gm = random_mask(pk.d.global().size(), pk.density,
                                        0xabc + static_cast<std::uint64_t>(
                                                    pk.d.global().size()));
            const auto mask = dist::DistArray<mask_t>::scatter(pk.d, gm);
            return result_digest(
                pack_with_redistribution(m, a, mask, scheme).vector.gather());
          });
    }
  }
  return out;
}

TEST(IntrinsicTraffic, MatchesRecordedDigests) {
  std::map<std::string, std::string> pinned;
  for (const TrafficPin& p : kTrafficPins) pinned[p.key] = p.digest;
  const auto seen = observed();
  for (const auto& [key, digest] : seen) {
    const auto it = pinned.find(key);
    if (it == pinned.end()) {
      ADD_FAILURE() << "no recorded row; record:\n{\"" << key << "\",\n \""
                    << digest << "\"},";
      continue;
    }
    EXPECT_EQ(digest, it->second) << key;
  }
  EXPECT_EQ(seen.size(), pinned.size()) << "a recorded row has no case";
}

}  // namespace
}  // namespace pup
