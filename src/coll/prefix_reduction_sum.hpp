// Combined vector prefix-reduction-sum (paper, Section 5.1).
//
// Given one equal-length vector V_i per group member, computes BOTH
//   prefix:  F_i[j] = sum_{k<i} V_k[j]   (exclusive, member 0 gets zeros)
//   total:   R[j]   = sum_k   V_k[j]     (in every member)
// in a single fused communication phase, because the ranking algorithm
// always needs both on the same input (PS_i = RS_i on entry to substep 1).
//
// Two algorithms are provided, following refs [1, 6] of the paper:
//
//  * DIRECT -- recursive doubling over a hypercube when the group size is a
//    power of two (log G rounds, each exchanging the full M-vector; the
//    prefix and the reduction ride the same exchanges), or dissemination
//    exscan plus a total-broadcast otherwise.
//    Cost: O(tau log G + mu M log G).
//
//  * SPLIT -- transpose algorithm: the vector is split into G chunks; chunk
//    c of every member is gathered at member c (one personalized exchange),
//    member c computes every member's prefix and the total for its chunk
//    locally, and a second personalized exchange returns the results.
//    Cost: O(G tau + mu M) with linear-permutation scheduling -- the mu
//    term is what matters for large vectors, which is why the paper's
//    selection rule prefers SPLIT once the vector outgrows the group.
//
//  * AUTO -- whichever of DIRECT and SPLIT the closed-form charges
//    (predict_prs) price lower for the busiest member at the call's group
//    size, vector length, wire width and cost model; ties go to DIRECT.
//
//  * PAPER_RULE -- the paper's rule (Section 7): DIRECT iff G <= 4 or
//    M < G, SPLIT otherwise.  Under the CM-5 parameters it picks SPLIT
//    for vectors far shorter than the length where SPLIT starts to pay.
//
// Every algorithm takes a wire width: the bytes per vector entry on the
// wire.  The default, sizeof(T), is the plain vector.  The ranking runs
// its int64 base ranks at the narrowest width its schedule proves enough
// (RankingStep::wire_bytes): payloads are composed by a checked narrowing
// kernel and consumed by widening ones, while prefixes, totals and
// accumulators stay int64 in memory, and every charge is priced at the
// wire width.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coll/broadcast.hpp"
#include "coll/group.hpp"
#include "coll/p2p.hpp"
#include "coll/reliable.hpp"
#include "coll/scan.hpp"
#include "sim/cost_model.hpp"
#include "sim/instrumentation.hpp"
#include "sim/machine.hpp"

namespace pup::coll {

enum class PrsAlgorithm {
  kDirect,
  kSplit,
  /// CM-5-style control network (paper Section 5.1 footnote): dedicated
  /// combine hardware performs the scan and the reduction in O(M) time
  /// with no software rounds.  Opt-in (never chosen by kAuto); models the
  /// paper's 1-D implementation, which used the CM-5 global operations.
  kControlNetwork,
  /// The cheaper of kDirect and kSplit by predicted modeled charge.
  kAuto,
  /// The paper's size rule: kDirect iff G <= 4 or M < G.
  kPaperRule,
};

/// Wire width of the integer fields PACK/UNPACK send: the ranking's PRS
/// entries and the redistribution stage's index fields.
enum class WireWidth {
  /// The narrowest of 1, 2, 4 or 8 bytes per field that the layout proves
  /// enough: per PRS level its compile-time bound
  /// (RankingStep::wire_bytes), for index fields the vector's largest
  /// local extent (index_wire_bytes).
  kAuto,
  /// Every field as 8 bytes, as the paper's implementation sends it.
  k64,
};

/// Predicted totals for one group member (indexed by group position).
struct MemberCost {
  std::int64_t posts = 0;     ///< messages this member puts on the wire
  std::int64_t recvs = 0;     ///< messages this member takes off the wire
  std::size_t bytes_out = 0;  ///< payload bytes posted
  std::size_t bytes_in = 0;   ///< payload bytes received
  double charge_us = 0.0;     ///< modeled time the member must be charged
};

/// Full-duplex exchange charge on the virtual crossbar: the max of the two
/// one-way times, zero terms dropped, zero when nothing moves (what
/// charge_exchange charges when every pair is equidistant).
double exchange_us(std::size_t sent, std::size_t recv,
                   const sim::CostModel& cost);

/// Closed-form prediction for one combined prefix-reduction-sum over a
/// group of G members whose per-member vector holds `vec_len` entries of
/// `elem_size` bytes on the wire (entry granularity matters: the split
/// algorithm's chunk boundaries are exact integer divisions of the entry
/// count).  `alg` must be concrete.  Message counts and tau + mu*m sums
/// follow from G and the vector length alone, never by walking rounds:
///
///   direct, G power of two: log2(G) full-duplex exchange rounds, each
///     tau + mu*(vec_len*elem_size) per member.
///   direct, G otherwise: dissemination exscan (ceil(log2 G) rounds, member
///     idx sends iff idx+o < G and receives iff idx-o >= 0, each one-way
///     message charging both endpoints) plus a binomial total-broadcast
///     rooted at the last member.
///   split: two linear-permutation phases of G-1 rounds over M/G chunks
///     (exact integer chunk boundaries); phase 2 payloads carry prefix and
///     total, hence the factor of two.
///   control network: zero messages; tau + mu*(vec_len*elem_size) streamed
///     per member.
///
/// All formulas assume the virtual crossbar of the paper's two-level model
/// (every pair equidistant); see sim/cost_model.hpp.
std::vector<MemberCost> predict_prs(PrsAlgorithm alg, int G,
                                    std::size_t vec_len,
                                    std::size_t elem_size,
                                    const sim::CostModel& cost);

/// The busiest member's predicted charge (predict_prs), in microseconds.
double predict_prs_us(PrsAlgorithm alg, int G, std::size_t vec_len,
                      std::size_t elem_size, const sim::CostModel& cost);

/// Resolves `alg` to the algorithm a call over `group_size` members with
/// `vector_len` entries of `wire_bytes` runs.  Concrete algorithms pass
/// through; kPaperRule applies the paper's size rule; kAuto picks split
/// only when its busiest member's predicted charge under `cost` is
/// strictly below direct's.
PrsAlgorithm resolve_prs(PrsAlgorithm alg, int group_size,
                         std::size_t vector_len, std::size_t wire_bytes,
                         const sim::CostModel& cost);

namespace detail {

constexpr bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// Recursive-doubling fused exscan+allreduce; requires power-of-two G.
template <typename T, typename A>
void prs_direct_pow2(sim::Machine& m, const Group& g,
                     std::vector<std::vector<T, A>>& prefix,
                     std::vector<std::vector<T, A>>& total, sim::Category cat,
                     std::size_t wire_bytes) {
  const int G = g.size();
  // Seed: total accumulates the subcube sum, starting from the input
  // (moved, not copied); prefix the in-subcube lower-rank sum.  Prefixes
  // are sized, not zero-filled: a member's first lower subcube arrives in
  // the round of its index's lowest set bit and is copied in whole; later
  // ones are added.  Only index 0 never has a lower subcube, and is
  // zero-filled at the end.
  std::vector<std::vector<T, A>> tot(prefix.size());
  for (int i = 0; i < G; ++i) {
    const auto r = static_cast<std::size_t>(g.rank_at(i));
    tot[r] = std::move(prefix[r]);
    prefix[r].clear();
    prefix[r].resize(tot[r].size());
  }

  constexpr int kTag = 0xdc1;
  sim::CollectiveScope scope(m, "prs.direct", {kTag},
                             sim::RoundDiscipline::kMaxOneExchange);
  for (int mask = 1; mask < G; mask <<= 1) {
    {
      sim::RoundScope round(m);
      for (int idx = 0; idx < G; ++idx) {
        const int partner = idx ^ mask;
        const int src = g.rank_at(idx);
        const int dst = g.rank_at(partner);
        auto payload = compose_payload<T>(
            tot[static_cast<std::size_t>(src)], wire_bytes);
        rpost(m, sim::Message{src, dst, kTag, std::move(payload)}, cat);
      }
      for (int idx = 0; idx < G; ++idx) {
        const int partner = idx ^ mask;
        const int rank = g.rank_at(idx);
        const int peer = g.rank_at(partner);
        auto msg = rrecv(m, rank, peer, kTag, cat);
        charge_exchange(m, rank, peer, peer,
                        tot[static_cast<std::size_t>(rank)].size() *
                            wire_bytes,
                        msg.payload.size(), cat);
        m.timed(rank, cat, [&] {
          auto& t = tot[static_cast<std::size_t>(rank)];
          // When the partner's whole subcube ranks below us it joins the
          // prefix too: added in the same pass over the payload, or, if it
          // is the first (mask is idx's lowest set bit), bulk-copied in
          // after the fold.  The copy measured faster than storing into the
          // unwritten prefix from the fold's pass, which stalls on its
          // uncached lines.
          T* p = partner < idx ? prefix[static_cast<std::size_t>(rank)].data()
                               : nullptr;
          const bool first = p != nullptr && (idx & (mask - 1)) == 0;
          fold_payload<T>(msg.payload, t.size(), t.data(),
                          first ? nullptr : p, wire_bytes);
          if (first) {
            widen_into<T>(msg.payload.data(), t.size(), wire_bytes, p);
          }
        });
      }
    }
    // Each completed PRS round is a consistent cut the recovery layer can
    // observe (plan/resilient.hpp rolls back to the operation entry; the
    // boundary marks where a future partial replay could resynchronize).
    m.mark_epoch_boundary();
  }
  rdrain(m);
  auto& first = prefix[static_cast<std::size_t>(g.rank_at(0))];
  std::fill(first.begin(), first.end(), T{});
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    total[static_cast<std::size_t>(r)] =
        std::move(tot[static_cast<std::size_t>(r)]);
  }
}

/// Dissemination exscan plus total-broadcast; any G.
template <typename T, typename A>
void prs_direct_general(sim::Machine& m, const Group& g,
                        std::vector<std::vector<T, A>>& prefix,
                        std::vector<std::vector<T, A>>& total,
                        sim::Category cat, std::size_t wire_bytes) {
  const int G = g.size();
  std::vector<std::vector<T, A>> inclusive;
  exscan_sum(m, g, prefix, &inclusive, cat, wire_bytes);
  // The last member's inclusive prefix is the reduction; broadcast it.
  const int last = g.rank_at(G - 1);
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    total[static_cast<std::size_t>(r)].clear();
  }
  total[static_cast<std::size_t>(last)] =
      std::move(inclusive[static_cast<std::size_t>(last)]);
  broadcast(m, g, /*root_index=*/G - 1, total, cat, wire_bytes);
}

/// Control-network model: the combine hardware streams every member's
/// vector through the network once; each member is busy for tau + mu*M and
/// no point-to-point messages exist.  Results are computed directly; the
/// stream is priced at `wire_bytes` per entry.
template <typename T, typename A>
void prs_control_network(sim::Machine& m, const Group& g,
                         std::vector<std::vector<T, A>>& prefix,
                         std::vector<std::vector<T, A>>& total,
                         sim::Category cat, std::size_t wire_bytes) {
  const int G = g.size();
  const std::size_t M = prefix[static_cast<std::size_t>(g.rank_at(0))].size();
  // Model cost: one streaming pass of the vector per member.
  for (int i = 0; i < G; ++i) {
    m.charge(g.rank_at(i), cat, m.cost().message_us(M * wire_bytes));
  }
  std::vector<T, A> running(M, T{});
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    m.timed(r, cat, [&] {
      auto& pre = prefix[static_cast<std::size_t>(r)];
      for (std::size_t j = 0; j < M; ++j) {
        const T v = pre[j];
        pre[j] = running[j];
        running[j] += v;
      }
    });
  }
  for (int i = 0; i < G; ++i) {
    total[static_cast<std::size_t>(g.rank_at(i))] = running;
  }
}

/// Transpose-based split algorithm; any G.
template <typename T, typename A>
void prs_split(sim::Machine& m, const Group& g,
               std::vector<std::vector<T, A>>& prefix,
               std::vector<std::vector<T, A>>& total, sim::Category cat,
               std::size_t wire_bytes) {
  const int G = g.size();
  const std::size_t M = prefix[static_cast<std::size_t>(g.rank_at(0))].size();
  auto chunk_lo = [&](int c) { return (M * static_cast<std::size_t>(c)) / static_cast<std::size_t>(G); };
  auto chunk_len = [&](int c) { return chunk_lo(c + 1) - chunk_lo(c); };

  constexpr int kTagGather = 0x591;
  constexpr int kTagReturn = 0x592;
  sim::CollectiveScope scope(m, "prs.split", {kTagGather, kTagReturn},
                             sim::RoundDiscipline::kMaxOneExchange);

  // Phase 1: member i ships chunk c of its own vector to member c, one
  // destination per linear-permutation round.  Received chunks stay in
  // their payloads until the local phase folds them.
  std::vector<std::vector<std::vector<std::byte>>> rows(
      static_cast<std::size_t>(G));  // rows[c][i] = V_i[chunk c], as bytes
  for (int c = 0; c < G; ++c) {
    rows[static_cast<std::size_t>(c)].resize(static_cast<std::size_t>(G));
  }
  for (int r = 1; r < G; ++r) {
    {
      sim::RoundScope round(m);
      for (int i = 0; i < G; ++i) {
        const int c = (i + r) % G;
        if (chunk_len(c) == 0) continue;
        const int src = g.rank_at(i);
        const int dst = g.rank_at(c);
        const auto& own = prefix[static_cast<std::size_t>(src)];
        rpost(m,
              sim::Message{src, dst, kTagGather,
                           compose_payload<T>(
                               std::span<const T>(own.data() + chunk_lo(c),
                                                  chunk_len(c)),
                               wire_bytes)},
              cat);
      }
      for (int i = 0; i < G; ++i) {
        const int c = (i + r) % G;          // chunk I sent this round
        const int from = (i - r + G) % G;   // member whose chunk-i data arrives
        const std::size_t sent = chunk_len(c) * wire_bytes;
        const std::size_t recv = chunk_len(i) * wire_bytes;
        const int rank = g.rank_at(i);
        charge_exchange(m, rank, g.rank_at(c), g.rank_at(from), sent, recv,
                        cat);
        if (recv > 0) {
          auto msg = rrecv(m, rank, g.rank_at(from), kTagGather, cat);
          rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(from)] =
              std::move(msg.payload);
        }
      }
    }
    m.mark_epoch_boundary();
  }

  // Local phase: member c computes, for its chunk, every member's exclusive
  // prefix and the total.  Other members' chunks fold straight from their
  // payloads; its own from its input vector.
  std::vector<std::vector<std::vector<T>>> pre_rows(
      static_cast<std::size_t>(G));  // pre_rows[c][i] = F_i[chunk c]
  std::vector<std::vector<T>> chunk_total(static_cast<std::size_t>(G));
  for (int c = 0; c < G; ++c) {
    if (chunk_len(c) == 0) continue;
    const int rank = g.rank_at(c);
    m.timed(rank, cat, [&] {
      auto& pr = pre_rows[static_cast<std::size_t>(c)];
      pr.resize(static_cast<std::size_t>(G));
      std::vector<T> running(chunk_len(c), T{});
      for (int i = 0; i < G; ++i) {
        pr[static_cast<std::size_t>(i)] = running;
        if (i == c) {
          const T* own =
              prefix[static_cast<std::size_t>(rank)].data() + chunk_lo(c);
          for (std::size_t j = 0; j < running.size(); ++j) running[j] += own[j];
        } else {
          fold_payload<T>(
              rows[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
              running.size(), running.data(), nullptr, wire_bytes);
        }
      }
      chunk_total[static_cast<std::size_t>(c)] = std::move(running);
    });
  }

  // Phase 2: member c returns F_i[chunk c] plus the chunk total to each i.
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    total[static_cast<std::size_t>(r)].assign(M, T{});
  }
  for (int r = 1; r < G; ++r) {
    {
      sim::RoundScope round(m);
      for (int c = 0; c < G; ++c) {
        if (chunk_len(c) == 0) continue;
        const int i = (c + r) % G;
        const int src = g.rank_at(c);
        const int dst = g.rank_at(i);
        // Composed once: F_i[chunk c] then the chunk total, written into
        // one sized payload.
        const std::span<const T> pre(
            pre_rows[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]);
        const std::span<const T> tot(chunk_total[static_cast<std::size_t>(c)]);
        std::vector<std::byte> payload((pre.size() + tot.size()) * wire_bytes);
        narrow_into<T>(pre, wire_bytes, payload.data());
        narrow_into<T>(tot, wire_bytes,
                       payload.data() + pre.size() * wire_bytes);
        rpost(m, sim::Message{src, dst, kTagReturn, std::move(payload)}, cat);
      }
      for (int i = 0; i < G; ++i) {
        // Member i acts as the owner of chunk i (sending to (i+r)%G) and as
        // the receiver of chunk c_in = (i-r)%G.  Payloads carry prefix+total,
        // hence the factor of two.
        const int c_in = (i - r + G) % G;
        const std::size_t out_bytes = chunk_len(i) * 2 * wire_bytes;
        const std::size_t in_bytes = chunk_len(c_in) * 2 * wire_bytes;
        const int rank = g.rank_at(i);
        charge_exchange(m, rank, g.rank_at((i + r) % G), g.rank_at(c_in),
                        out_bytes, in_bytes, cat);
        if (chunk_len(c_in) > 0) {
          auto msg = rrecv(m, rank, g.rank_at(c_in), kTagReturn, cat);
          m.timed(rank, cat, [&] {
            // Both halves copy (widen) straight into place.
            const std::size_t len = chunk_len(c_in);
            const std::size_t len_bytes = len * wire_bytes;
            PUP_CHECK(msg.payload.size() == 2 * len_bytes,
                      "PRS return payload of " << msg.payload.size()
                                               << " bytes, expected "
                                               << 2 * len_bytes);
            const std::byte* data = msg.payload.data();
            widen_into<T>(data, len, wire_bytes,
                          prefix[static_cast<std::size_t>(rank)].data() +
                              chunk_lo(c_in));
            widen_into<T>(data + len_bytes, len, wire_bytes,
                          total[static_cast<std::size_t>(rank)].data() +
                              chunk_lo(c_in));
          });
        }
      }
    }
    m.mark_epoch_boundary();
  }
  rdrain(m);

  // Self chunk: no communication.
  for (int i = 0; i < G; ++i) {
    if (chunk_len(i) == 0) continue;
    const int rank = g.rank_at(i);
    m.timed(rank, cat, [&] {
      auto& pre = prefix[static_cast<std::size_t>(rank)];
      auto& tot = total[static_cast<std::size_t>(rank)];
      const auto& mine =
          pre_rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
      const auto& ct = chunk_total[static_cast<std::size_t>(i)];
      const auto at = static_cast<std::ptrdiff_t>(chunk_lo(i));
      std::copy(mine.begin(), mine.end(), pre.begin() + at);
      std::copy(ct.begin(), ct.end(), tot.begin() + at);
    });
  }
}

}  // namespace detail

/// Fused exclusive-prefix + reduction.  `prefix` is indexed by machine rank
/// and holds V_i on entry, F_i on return; `total` receives R in every
/// member.  Returns the algorithm actually used (resolve_prs under the
/// machine's cost model).  The vectors may use any allocator (the ranking
/// passes support::UninitVector).  Payloads carry `wire_bytes` per entry:
/// an int64 vector may go narrower (1, 2 or 4) when every entry, prefix
/// and total fits; a payload entry that does not throws ContractError.
template <typename T, typename A>
PrsAlgorithm prefix_reduction_sum(sim::Machine& m, const Group& g,
                                  PrsAlgorithm alg,
                                  std::vector<std::vector<T, A>>& prefix,
                                  std::vector<std::vector<T, A>>& total,
                                  sim::Category cat = sim::Category::kPrs,
                                  std::size_t wire_bytes = sizeof(T)) {
  require_wire<T>(wire_bytes);
  const int G = g.size();
  const std::size_t M = prefix[static_cast<std::size_t>(g.rank_at(0))].size();
  for (int i = 0; i < G; ++i) {
    PUP_REQUIRE(prefix[static_cast<std::size_t>(g.rank_at(i))].size() == M,
                "prefix-reduction-sum vectors must have equal length");
  }
  if (total.size() < prefix.size()) total.resize(prefix.size());

  if (G == 1) {
    const auto r = static_cast<std::size_t>(g.rank_at(0));
    total[r] = std::move(prefix[r]);
    prefix[r].assign(M, T{});
    return PrsAlgorithm::kDirect;
  }

  const PrsAlgorithm chosen = resolve_prs(alg, G, M, wire_bytes, m.cost());
  switch (chosen) {
    case PrsAlgorithm::kDirect:
      if (detail::is_pow2(G)) {
        detail::prs_direct_pow2(m, g, prefix, total, cat, wire_bytes);
      } else {
        detail::prs_direct_general(m, g, prefix, total, cat, wire_bytes);
      }
      break;
    case PrsAlgorithm::kSplit:
      detail::prs_split(m, g, prefix, total, cat, wire_bytes);
      break;
    case PrsAlgorithm::kControlNetwork:
      detail::prs_control_network(m, g, prefix, total, cat, wire_bytes);
      break;
    case PrsAlgorithm::kAuto:
    case PrsAlgorithm::kPaperRule:
      PUP_CHECK(false, "AUTO must have been resolved");
  }
  return chosen;
}

}  // namespace pup::coll
