// Many-to-many personalized communication (paper Sections 4, 7).
//
// Every group member holds one (possibly empty) coalesced message per
// destination.  The default schedule is the linear-permutation algorithm of
// ref [9]: G-1 rounds, in round r member i exchanges with members
// (i+r) mod G / (i-r) mod G, so each member sends and receives at most one
// message per round and the round costs tau + mu * max(sent, recv).
// Self-messages bypass the network entirely (no copy, no cost), matching
// the paper's CM-5 implementation note.
//
// The naive schedule posts every message back-to-back from each sender
// (cost tau + mu*m per message, serialized at both endpoints) and exists as
// the scheduling ablation baseline.
#pragma once

#include <cstddef>
#include <vector>

#include "coll/group.hpp"
#include "sim/machine.hpp"
#include "sim/message.hpp"

namespace pup::coll {

enum class M2MSchedule {
  kLinearPermutation,
  kNaive,
};

/// Per-member send buffers: send[i][j] is the payload member i ships to
/// member j (group indices).  Outer size must be G, inner size G.
using ByteBuffers = std::vector<std::vector<std::vector<std::byte>>>;

/// Exchanges personalized messages; returns recv where recv[i][j] is the
/// payload member i received from member j.  send is consumed (moved from).
ByteBuffers alltoallv(sim::Machine& m, const Group& g, ByteBuffers&& send,
                      M2MSchedule schedule = M2MSchedule::kLinearPermutation,
                      sim::Category cat = sim::Category::kM2M);

/// Typed convenience wrapper: element vectors instead of byte payloads.
template <typename T>
std::vector<std::vector<std::vector<T>>> alltoallv_typed(
    sim::Machine& m, const Group& g,
    std::vector<std::vector<std::vector<T>>>&& send,
    M2MSchedule schedule = M2MSchedule::kLinearPermutation,
    sim::Category cat = sim::Category::kM2M) {
  const int G = g.size();
  ByteBuffers raw(static_cast<std::size_t>(G));
  for (int i = 0; i < G; ++i) {
    raw[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(G));
    for (int j = 0; j < G; ++j) {
      auto& src = send[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      raw[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          sim::to_payload<T>(std::span<const T>(src));
      src.clear();
    }
  }
  ByteBuffers got = alltoallv(m, g, std::move(raw), schedule, cat);
  std::vector<std::vector<std::vector<T>>> out(static_cast<std::size_t>(G));
  for (int i = 0; i < G; ++i) {
    out[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(G));
    for (int j = 0; j < G; ++j) {
      sim::read_payload<T>(
          got[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
          out[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  return out;
}

}  // namespace pup::coll
