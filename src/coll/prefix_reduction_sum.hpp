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
// The ranking runs each level on base ranks stored at the narrowest width
// its schedule proves enough (RankingStep::wire_bytes: uint8, uint16,
// uint32 or int64); their sums -- every fold, the split's local prefixes,
// the control network's running total -- are checked adds (fold_entries),
// so a misstated width throws ContractError in every algorithm instead of
// wrapping.  Split, the control network and the non-power-of-two direct
// send their entries at the element's own width, so a payload is the
// vector's bytes.  The power-of-two direct may instead send each round at
// its own width (round_bits, from direct_round_bits): round k carries
// subcube totals of 2^k members, which the schedule bounds more tightly
// than the level, packed down to 1, 2 or 4 bits per entry where the bound
// allows.  Every charge is priced at the bytes actually sent.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Bits per entry of each round of a direct PRS over a power-of-two group
/// whose members' entries are at most `member_bound`: round k (mask 2^k)
/// sends subcube totals of at most 2^k * member_bound, at the narrowest of
/// 1, 2, 4, 8, 16, 32 or 64 bits that holds them.  Empty unless G is a
/// power of two above 1.
std::vector<std::uint8_t> direct_round_bits(int G, std::int64_t member_bound);

/// Closed-form prediction for one combined prefix-reduction-sum over a
/// group of G members whose per-member vector holds `vec_len` entries of
/// `elem_size` bytes on the wire (entry granularity matters: the split
/// algorithm's chunk boundaries are exact integer divisions of the entry
/// count).  `alg` must be concrete.  Message counts and tau + mu*m sums
/// follow from G and the vector length alone, never by walking rounds:
///
///   direct, G power of two: log2(G) full-duplex exchange rounds, round k
///     tau + mu*(vec_len*elem_size) per member, or, given `round_bits`,
///     tau + mu*packed_bytes(vec_len, round_bits[k]).
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
std::vector<MemberCost> predict_prs(
    PrsAlgorithm alg, int G, std::size_t vec_len, std::size_t elem_size,
    const sim::CostModel& cost, std::span<const std::uint8_t> round_bits = {});

/// The busiest member's predicted charge (predict_prs), in microseconds.
double predict_prs_us(PrsAlgorithm alg, int G, std::size_t vec_len,
                      std::size_t elem_size, const sim::CostModel& cost,
                      std::span<const std::uint8_t> round_bits = {});

/// Resolves `alg` to the algorithm a call over `group_size` members with
/// `vector_len` entries of `wire_bytes` runs, its direct rounds at
/// `round_bits` when given.  Concrete algorithms pass through; kPaperRule
/// applies the paper's size rule; kAuto picks split only when its busiest
/// member's predicted charge under `cost` is strictly below direct's.
PrsAlgorithm resolve_prs(PrsAlgorithm alg, int group_size,
                         std::size_t vector_len, std::size_t wire_bytes,
                         const sim::CostModel& cost,
                         std::span<const std::uint8_t> round_bits = {});

namespace detail {

constexpr bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// A direct round's payload: the accumulator's n entries at `bits` bits.
/// Only base ranks pack below their own width.
template <typename T>
std::vector<std::byte> compose_round(const T* acc, std::size_t n,
                                     unsigned bits) {
  if constexpr (kernels::BaseRank<T>) {
    if (bits != 8 * sizeof(T)) {  // a width past T's throws in pack_bits
      std::vector<std::byte> payload(kernels::packed_bytes(n, bits));
      kernels::pack_bits<T>(acc, n, bits, payload.data());
      return payload;
    }
  }
  return sim::to_payload<T>(std::span<const T>(acc, n));
}

/// Recursive-doubling fused exscan+allreduce; requires power-of-two G.
/// Round k sends its entries at round_bits[k] bits, or at T's width when
/// round_bits is empty.
template <typename T, typename A>
void prs_direct_pow2(sim::Machine& m, const Group& g,
                     std::vector<std::vector<T, A>>& prefix,
                     std::vector<std::vector<T, A>>& total,
                     sim::Category cat,
                     std::span<const std::uint8_t> round_bits) {
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
  const std::size_t rounds = static_cast<std::size_t>(std::countr_zero(
      static_cast<unsigned>(G)));
  PUP_REQUIRE(round_bits.empty() || round_bits.size() == rounds,
              round_bits.size() << " round widths for a " << rounds
                                << "-round direct PRS");
  for (int mask = 1, r = 0; mask < G; mask <<= 1, ++r) {
    const unsigned bits =
        round_bits.empty() ? 8 * sizeof(T)
                           : round_bits[static_cast<std::size_t>(r)];
    {
      sim::RoundScope round(m);
      for (int idx = 0; idx < G; ++idx) {
        const int partner = idx ^ mask;
        const int src = g.rank_at(idx);
        const int dst = g.rank_at(partner);
        const auto& t = tot[static_cast<std::size_t>(src)];
        rpost(m,
              sim::Message{src, dst, kTag,
                           compose_round<T>(t.data(), t.size(), bits)},
              cat);
      }
      for (int idx = 0; idx < G; ++idx) {
        const int partner = idx ^ mask;
        const int rank = g.rank_at(idx);
        const int peer = g.rank_at(partner);
        auto msg = rrecv(m, rank, peer, kTag, cat);
        auto& t = tot[static_cast<std::size_t>(rank)];
        charge_exchange(m, rank, peer, peer,
                        kernels::packed_bytes(t.size(), bits),
                        msg.payload.size(), cat);
        m.timed(rank, cat, [&] {
          // When the partner's whole subcube ranks below us it joins the
          // prefix too: added in the same pass over the payload, or, if it
          // is the first (mask is idx's lowest set bit), copied in after
          // the fold.  The copy measured faster than storing into the
          // unwritten prefix from the fold's pass, which stalls on its
          // uncached lines.
          T* p = partner < idx ? prefix[static_cast<std::size_t>(rank)].data()
                               : nullptr;
          const bool first = p != nullptr && (idx & (mask - 1)) == 0;
          T* also = first ? nullptr : p;
          if constexpr (kernels::BaseRank<T>) {
            PUP_CHECK(msg.payload.size() ==
                          kernels::packed_bytes(t.size(), bits),
                      "PRS round payload of " << msg.payload.size()
                                              << " bytes, expected "
                                              << kernels::packed_bytes(
                                                     t.size(), bits));
            kernels::add_packed<T>(t.data(), also, msg.payload.data(),
                                   t.size(), bits);
            if (first) {
              kernels::unpack_bits<T>(msg.payload.data(), t.size(), bits, p);
            }
          } else {
            fold_payload<T>(msg.payload, t.size(), t.data(), also);
            if (first && !t.empty()) {
              std::memcpy(p, msg.payload.data(), t.size() * sizeof(T));
            }
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
                        sim::Category cat) {
  const int G = g.size();
  std::vector<std::vector<T, A>> inclusive;
  exscan_sum(m, g, prefix, &inclusive, cat);
  // The last member's inclusive prefix is the reduction; broadcast it.
  const int last = g.rank_at(G - 1);
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    total[static_cast<std::size_t>(r)].clear();
  }
  total[static_cast<std::size_t>(last)] =
      std::move(inclusive[static_cast<std::size_t>(last)]);
  broadcast(m, g, /*root_index=*/G - 1, total, cat);
}

/// Control-network model: the combine hardware streams every member's
/// vector through the network once; each member is busy for tau + mu*M and
/// no point-to-point messages exist.  Results are computed directly: each
/// member's input is swapped with the running total, which then adds it.
template <typename T, typename A>
void prs_control_network(sim::Machine& m, const Group& g,
                         std::vector<std::vector<T, A>>& prefix,
                         std::vector<std::vector<T, A>>& total,
                         sim::Category cat) {
  const int G = g.size();
  const std::size_t M = prefix[static_cast<std::size_t>(g.rank_at(0))].size();
  // Model cost: one streaming pass of the vector per member.
  for (int i = 0; i < G; ++i) {
    m.charge(g.rank_at(i), cat, m.cost().message_us(M * sizeof(T)));
  }
  std::vector<T, A> running(M, T{});
  for (int i = 0; i < G; ++i) {
    const int r = g.rank_at(i);
    m.timed(r, cat, [&] {
      auto& pre = prefix[static_cast<std::size_t>(r)];
      std::swap_ranges(pre.begin(), pre.end(), running.begin());
      fold_entries<T>(reinterpret_cast<const std::byte*>(pre.data()), M,
                      running.data());
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
               std::vector<std::vector<T, A>>& total, sim::Category cat) {
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
                           sim::to_payload<T>(std::span<const T>(
                               own.data() + chunk_lo(c), chunk_len(c)))},
              cat);
      }
      for (int i = 0; i < G; ++i) {
        const int c = (i + r) % G;          // chunk I sent this round
        const int from = (i - r + G) % G;   // member whose chunk-i data arrives
        const std::size_t sent = chunk_len(c) * sizeof(T);
        const std::size_t recv = chunk_len(i) * sizeof(T);
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
          fold_entries<T>(reinterpret_cast<const std::byte*>(own),
                          running.size(), running.data());
        } else {
          fold_payload<T>(
              rows[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
              running.size(), running.data());
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
        std::vector<std::byte> payload(pre.size_bytes() + tot.size_bytes());
        std::memcpy(payload.data(), pre.data(), pre.size_bytes());
        std::memcpy(payload.data() + pre.size_bytes(), tot.data(),
                    tot.size_bytes());
        rpost(m, sim::Message{src, dst, kTagReturn, std::move(payload)}, cat);
      }
      for (int i = 0; i < G; ++i) {
        // Member i acts as the owner of chunk i (sending to (i+r)%G) and as
        // the receiver of chunk c_in = (i-r)%G.  Payloads carry prefix+total,
        // hence the factor of two.
        const int c_in = (i - r + G) % G;
        const std::size_t out_bytes = chunk_len(i) * 2 * sizeof(T);
        const std::size_t in_bytes = chunk_len(c_in) * 2 * sizeof(T);
        const int rank = g.rank_at(i);
        charge_exchange(m, rank, g.rank_at((i + r) % G), g.rank_at(c_in),
                        out_bytes, in_bytes, cat);
        if (chunk_len(c_in) > 0) {
          auto msg = rrecv(m, rank, g.rank_at(c_in), kTagReturn, cat);
          m.timed(rank, cat, [&] {
            // Both halves copy straight into place.
            const std::size_t len = chunk_len(c_in);
            const std::size_t len_bytes = len * sizeof(T);
            PUP_CHECK(msg.payload.size() == 2 * len_bytes,
                      "PRS return payload of " << msg.payload.size()
                                               << " bytes, expected "
                                               << 2 * len_bytes);
            const std::byte* data = msg.payload.data();
            std::memcpy(prefix[static_cast<std::size_t>(rank)].data() +
                            chunk_lo(c_in),
                        data, len_bytes);
            std::memcpy(total[static_cast<std::size_t>(rank)].data() +
                            chunk_lo(c_in),
                        data + len_bytes, len_bytes);
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
/// passes support::UninitVector).  Payloads carry sizeof(T) bytes per
/// entry, except that a power-of-two direct run with `round_bits`
/// (log2(G) widths, from direct_round_bits; base ranks only) packs round
/// k's entries at round_bits[k] bits: an entry that does not fit its
/// round throws ContractError.  For a base-rank element type
/// (kernels::BaseRank) every sum is checked: a prefix or total that
/// outgrows T throws ContractError.
template <typename T, typename A>
PrsAlgorithm prefix_reduction_sum(
    sim::Machine& m, const Group& g, PrsAlgorithm alg,
    std::vector<std::vector<T, A>>& prefix,
    std::vector<std::vector<T, A>>& total,
    sim::Category cat = sim::Category::kPrs,
    std::span<const std::uint8_t> round_bits = {}) {
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

  PUP_REQUIRE(round_bits.empty() || kernels::BaseRank<T>,
              "only base ranks pack a PRS round below their width");
  const PrsAlgorithm chosen =
      resolve_prs(alg, G, M, sizeof(T), m.cost(), round_bits);
  switch (chosen) {
    case PrsAlgorithm::kDirect:
      if (detail::is_pow2(G)) {
        detail::prs_direct_pow2(m, g, prefix, total, cat, round_bits);
      } else {
        detail::prs_direct_general(m, g, prefix, total, cat);
      }
      break;
    case PrsAlgorithm::kSplit:
      detail::prs_split(m, g, prefix, total, cat);
      break;
    case PrsAlgorithm::kControlNetwork:
      detail::prs_control_network(m, g, prefix, total, cat);
      break;
    case PrsAlgorithm::kAuto:
    case PrsAlgorithm::kPaperRule:
      PUP_CHECK(false, "AUTO must have been resolved");
  }
  return chosen;
}

}  // namespace pup::coll
