#include "analysis/static/expand.hpp"

#include <algorithm>
#include <sstream>

#include "coll/group.hpp"
#include "support/check.hpp"

namespace pup::analysis::statics {
namespace {

// Wire tags of the collective implementations (coll/*.hpp keep them as
// file-local constexprs).  The dynamic trace cross-check replays real
// executions against these values, so silent drift in either place fails a
// test rather than going unnoticed.
constexpr int kTagPrsDirect = 0xdc1;
constexpr int kTagExscan = 0xe5c;
constexpr int kTagBroadcast = 0x42c;
constexpr int kTagSplitGather = 0x591;
constexpr int kTagSplitReturn = 0x592;
constexpr int kTagM2M = 0xa2a;

double exchange_us(std::size_t sent, std::size_t recv,
                   const sim::CostModel& cost) {
  if (sent == 0 && recv == 0) return 0.0;
  const double out_us = sent > 0 ? cost.message_us(sent) : 0.0;
  const double in_us = recv > 0 ? cost.message_us(recv) : 0.0;
  return std::max(out_us, in_us);
}

void chain_deps(BlockIR& block) {
  for (std::size_t r = 1; r < block.rounds.size(); ++r) {
    block.rounds[r].deps.push_back(static_cast<int>(r) - 1);
  }
}

std::vector<int> group_ranks(const coll::Group& g) {
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(g.size()));
  for (int i = 0; i < g.size(); ++i) ranks.push_back(g.rank_at(i));
  return ranks;
}

void add_charge(RoundIR& round, int rank, double us) {
  if (us > 0.0) round.charges.push_back({rank, us});
}

BlockIR expand_prs_direct_pow2(const coll::Group& g, std::size_t vec_bytes,
                               const sim::CostModel& cost) {
  const int G = g.size();
  BlockIR block;
  block.name = "prs.direct";
  block.tags = {kTagPrsDirect};
  block.ranks = group_ranks(g);
  for (int mask = 1; mask < G; mask <<= 1) {
    RoundIR round;
    for (int idx = 0; idx < G; ++idx) {
      // Every member posts its accumulator to its hypercube partner, even
      // when the vector is empty (the implementation never skips).
      const int partner = idx ^ mask;
      round.posts.push_back(
          {g.rank_at(idx), g.rank_at(partner), kTagPrsDirect, vec_bytes,
           false});
      round.recvs.push_back(
          {g.rank_at(partner), g.rank_at(idx), kTagPrsDirect, vec_bytes,
           false});
      add_charge(round, g.rank_at(idx),
                 exchange_us(vec_bytes, vec_bytes, cost));
    }
    block.rounds.push_back(std::move(round));
  }
  chain_deps(block);
  return block;
}

BlockIR expand_exscan(const coll::Group& g, std::size_t vec_bytes,
                      const sim::CostModel& cost) {
  const int G = g.size();
  BlockIR block;
  block.name = "exscan";
  block.tags = {kTagExscan};
  block.ranks = group_ranks(g);
  const double oneway_us = cost.message_us(vec_bytes);
  for (int offset = 1; offset < G; offset <<= 1) {
    RoundIR round;
    for (int idx = 0; idx < G; ++idx) {
      if (idx + offset >= G) continue;
      const int src = g.rank_at(idx);
      const int dst = g.rank_at(idx + offset);
      round.posts.push_back({src, dst, kTagExscan, vec_bytes, false});
      round.recvs.push_back({src, dst, kTagExscan, vec_bytes, false});
      // charge_oneway holds both endpoints for tau + mu*m.
      add_charge(round, src, oneway_us);
      add_charge(round, dst, oneway_us);
    }
    block.rounds.push_back(std::move(round));
  }
  chain_deps(block);
  return block;
}

BlockIR expand_broadcast(const coll::Group& g, std::size_t vec_bytes,
                         const sim::CostModel& cost) {
  // Binomial broadcast rooted at the last member (the holder of the
  // reduction after exscan): rel = (idx + 1) mod G.
  const int G = g.size();
  BlockIR block;
  block.name = "broadcast";
  block.tags = {kTagBroadcast};
  block.ranks = group_ranks(g);
  const int root_index = G - 1;
  const double oneway_us = cost.message_us(vec_bytes);
  for (int mask = 1; mask < G; mask <<= 1) {
    RoundIR round;
    for (int idx = 0; idx < G; ++idx) {
      const int rel = (idx - root_index + G) % G;
      if (rel >= mask || rel + mask >= G) continue;
      const int dst_idx = (rel + mask + root_index) % G;
      const int src = g.rank_at(idx);
      const int dst = g.rank_at(dst_idx);
      round.posts.push_back({src, dst, kTagBroadcast, vec_bytes, false});
      round.recvs.push_back({src, dst, kTagBroadcast, vec_bytes, false});
      add_charge(round, src, oneway_us);
      add_charge(round, dst, oneway_us);
    }
    block.rounds.push_back(std::move(round));
  }
  chain_deps(block);
  return block;
}

BlockIR expand_prs_split(const coll::Group& g, std::size_t vec_len,
                         std::size_t elem_size, const sim::CostModel& cost) {
  const int G = g.size();
  BlockIR block;
  block.name = "prs.split";
  block.tags = {kTagSplitGather, kTagSplitReturn};
  block.ranks = group_ranks(g);
  auto chunk_lo = [&](int c) {
    return (vec_len * static_cast<std::size_t>(c)) /
           static_cast<std::size_t>(G);
  };
  auto chunk_bytes = [&](int c) {
    return (chunk_lo(c + 1) - chunk_lo(c)) * elem_size;
  };
  // Phase 1: member i ships chunk (i+r) mod G of its vector to that chunk's
  // owner; zero-length chunks are skipped on the wire.
  for (int r = 1; r < G; ++r) {
    RoundIR round;
    for (int i = 0; i < G; ++i) {
      const int c = (i + r) % G;
      const std::size_t sent = chunk_bytes(c);
      if (sent > 0) {
        round.posts.push_back(
            {g.rank_at(i), g.rank_at(c), kTagSplitGather, sent, false});
      }
      const int from = (i - r + G) % G;
      const std::size_t recv = chunk_bytes(i);
      if (recv > 0) {
        round.recvs.push_back(
            {g.rank_at(from), g.rank_at(i), kTagSplitGather, recv, false});
      }
      add_charge(round, g.rank_at(i), exchange_us(sent, recv, cost));
    }
    block.rounds.push_back(std::move(round));
  }
  // Phase 2: chunk owner c returns prefix+total (factor two) to member
  // (c+r) mod G.
  for (int r = 1; r < G; ++r) {
    RoundIR round;
    for (int i = 0; i < G; ++i) {
      const std::size_t sent = chunk_bytes(i) * 2;
      if (sent > 0) {
        round.posts.push_back({g.rank_at(i), g.rank_at((i + r) % G),
                               kTagSplitReturn, sent, false});
      }
      const int c_in = (i - r + G) % G;
      const std::size_t recv = chunk_bytes(c_in) * 2;
      if (recv > 0) {
        round.recvs.push_back(
            {g.rank_at(c_in), g.rank_at(i), kTagSplitReturn, recv, false});
      }
      add_charge(round, g.rank_at(i), exchange_us(sent, recv, cost));
    }
    block.rounds.push_back(std::move(round));
  }
  chain_deps(block);
  return block;
}

BlockIR expand_prs_control(const coll::Group& g, std::size_t vec_bytes,
                           const sim::CostModel& cost) {
  BlockIR block;
  block.name = "prs.control";
  block.ranks = group_ranks(g);
  for (int i = 0; i < g.size(); ++i) {
    block.direct_charges.push_back(
        {g.rank_at(i), cost.message_us(vec_bytes)});
  }
  return block;
}

/// Appends the block(s) of one PRS call, `wire_bytes` per vector entry,
/// plus their (spanning) expectation.
void expand_prs(ExpandedPlan& out, const coll::Group& g,
                coll::PrsAlgorithm alg, std::size_t vec_len,
                std::size_t wire_bytes, const sim::CostModel& cost) {
  const int G = g.size();
  if (G <= 1) return;  // the implementation returns before any scope
  PUP_CHECK(alg != coll::PrsAlgorithm::kAuto &&
                alg != coll::PrsAlgorithm::kPaperRule,
            "compiled plans carry concrete PRS algorithms");
  const std::size_t vec_bytes = vec_len * wire_bytes;

  BlockExpectation exp;
  exp.exact = true;
  exp.ranks = group_ranks(g);
  exp.expected = coll::predict_prs(alg, G, vec_len, wire_bytes, cost);

  switch (alg) {
    case coll::PrsAlgorithm::kDirect:
      if ((G & (G - 1)) == 0) {
        exp.blocks.push_back(out.schedule.blocks.size());
        out.schedule.blocks.push_back(
            expand_prs_direct_pow2(g, vec_bytes, cost));
      } else {
        exp.blocks.push_back(out.schedule.blocks.size());
        out.schedule.blocks.push_back(expand_exscan(g, vec_bytes, cost));
        exp.blocks.push_back(out.schedule.blocks.size());
        out.schedule.blocks.push_back(expand_broadcast(g, vec_bytes, cost));
      }
      break;
    case coll::PrsAlgorithm::kSplit:
      exp.blocks.push_back(out.schedule.blocks.size());
      out.schedule.blocks.push_back(
          expand_prs_split(g, vec_len, wire_bytes, cost));
      break;
    case coll::PrsAlgorithm::kControlNetwork:
      exp.blocks.push_back(out.schedule.blocks.size());
      out.schedule.blocks.push_back(
          expand_prs_control(g, vec_bytes, cost));
      break;
    case coll::PrsAlgorithm::kAuto:
    case coll::PrsAlgorithm::kPaperRule:
      PUP_CHECK(false, "unreachable");
  }
  out.expectations.push_back(std::move(exp));
}

/// Appends the ranking stage: per dimension step, one PRS per grid group at
/// the step's wire width, with the B requests' payloads concatenated.
void expand_ranking(ExpandedPlan& out, const RankingSchedule& sched,
                    std::size_t batch, const sim::CostModel& cost) {
  for (const RankingStep& step : sched.steps) {
    const std::size_t vec_len =
        batch * static_cast<std::size_t>(step.level_size);
    for (const coll::Group& group : step.groups) {
      expand_prs(out, group, step.prs, vec_len, step.wire_bytes, cost);
    }
  }
}

/// Per-element wire cost of a bounded block's bounds: all of an element's
/// bytes, and the part of them that is index fields.
struct ElementWire {
  std::size_t elem_bytes = 0;
  std::size_t index_bytes = 0;
};

/// Appends one bounded many-to-many block over the world group whose
/// bounds price each element at `wire` bytes per element.
void expand_m2m(ExpandedPlan& out, int P, coll::M2MSchedule schedule,
                const std::vector<std::vector<std::size_t>>& bound,
                ElementWire wire, const sim::CostModel& cost) {
  BlockIR block;
  block.tags = {kTagM2M};
  block.elem_bytes = wire.elem_bytes;
  block.index_bytes = wire.index_bytes;
  block.ranks.resize(static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) block.ranks[static_cast<std::size_t>(i)] = i;

  BlockExpectation exp;
  exp.exact = false;
  exp.ranks = block.ranks;
  exp.expected = predict_m2m(schedule, bound, cost);
  exp.blocks.push_back(out.schedule.blocks.size());

  switch (schedule) {
    case coll::M2MSchedule::kLinearPermutation: {
      block.name = "alltoallv.linear";
      block.discipline = Discipline::kMaxOneExchange;
      for (int r = 1; r < P; ++r) {
        RoundIR round;
        for (int i = 0; i < P; ++i) {
          const int to = (i + r) % P;
          const int from = (i - r + P) % P;
          const std::size_t sent =
              bound[static_cast<std::size_t>(i)][static_cast<std::size_t>(to)];
          const std::size_t recv = bound[static_cast<std::size_t>(from)]
                                        [static_cast<std::size_t>(i)];
          if (sent > 0) round.posts.push_back({i, to, kTagM2M, sent, true});
          if (recv > 0) round.recvs.push_back({from, i, kTagM2M, recv, true});
          add_charge(round, i, exchange_us(sent, recv, cost));
        }
        block.rounds.push_back(std::move(round));
      }
      chain_deps(block);
      break;
    }
    case coll::M2MSchedule::kNaive: {
      block.name = "alltoallv.naive";
      block.discipline = Discipline::kUnordered;
      // No round synchronization: all posts go out back to back and the
      // drain happens per source channel.  One IR round carries the whole
      // block; each message holds both endpoints for tau + mu*m.
      RoundIR round;
      std::vector<double> charge(static_cast<std::size_t>(P), 0.0);
      for (int i = 0; i < P; ++i) {
        for (int j = 0; j < P; ++j) {
          if (i == j) continue;
          const std::size_t m =
              bound[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (m == 0) continue;
          round.posts.push_back({i, j, kTagM2M, m, true});
          round.recvs.push_back({i, j, kTagM2M, m, true});
          const double us = cost.message_us(m);
          charge[static_cast<std::size_t>(i)] += us;
          charge[static_cast<std::size_t>(j)] += us;
        }
      }
      for (int i = 0; i < P; ++i) {
        add_charge(round, i, charge[static_cast<std::size_t>(i)]);
      }
      block.rounds.push_back(std::move(round));
      break;
    }
  }
  out.schedule.blocks.push_back(std::move(block));
  out.expectations.push_back(std::move(exp));
}

std::size_t ceil_div(std::size_t a, std::size_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// A PACK result rank's worst-case capacity when the plan pins no result
/// layout: the default block1d(true_count, P) never gives a rank more than
/// ceil(true_count/P) <= ceil(N/P) slots.
std::size_t unpinned_capacity(const plan::PackPlan& plan) {
  return ceil_div(static_cast<std::size_t>(plan.dist.global().size()),
                  static_cast<std::size_t>(plan.dist.nprocs()));
}

/// The index width of a PACK plan's redistribution: that of the pinned
/// result layout, else that of the worst-case capacity as the largest
/// share -- never narrower than the block1d(true_count, P) layout any
/// execution derives it from.
std::size_t pack_index_bytes(const plan::PackPlan& plan) {
  if (plan.result_dist.has_value()) {
    return index_wire_bytes(plan.result_dist->dim(0),
                            plan.options.wire_width);
  }
  return index_wire_bytes(static_cast<std::int64_t>(unpinned_capacity(plan)),
                          plan.options.wire_width);
}

ElementWire pack_element_wire(const plan::PackPlan& plan) {
  const std::size_t iw = pack_index_bytes(plan);
  const std::size_t fields =
      plan.options.scheme == PackScheme::kCompactMessage ? 2 : 1;
  return {fields * iw + static_cast<std::size_t>(plan.elem_width),
          fields * iw};
}

std::size_t unpack_index_bytes(const plan::UnpackPlan& plan) {
  return index_wire_bytes(plan.vector_dist.dim(0), plan.options.wire_width);
}

const char* pack_scheme_name(PackScheme s) {
  switch (s) {
    case PackScheme::kSimpleStorage: return "sss";
    case PackScheme::kCompactStorage: return "css";
    case PackScheme::kCompactMessage: return "cms";
    case PackScheme::kAuto: return "auto";
  }
  return "?";
}

const char* unpack_scheme_name(UnpackScheme s) {
  switch (s) {
    case UnpackScheme::kSimpleStorage: return "sss";
    case UnpackScheme::kCompactStorage: return "css";
    case UnpackScheme::kAuto: return "auto";
  }
  return "?";
}

const char* m2m_name(coll::M2MSchedule s) {
  return s == coll::M2MSchedule::kLinearPermutation ? "linear" : "naive";
}

const char* width_name(coll::WireWidth w) {
  return w == coll::WireWidth::k64 ? "64" : "auto";
}

}  // namespace

std::vector<std::vector<std::size_t>> pack_m2m_bounds(
    const plan::PackPlan& plan) {
  const int P = plan.dist.nprocs();
  const std::size_t per_elem = pack_element_wire(plan).elem_bytes;
  // Destination capacity: the pinned result layout when the plan fixes one,
  // else the worst case of the default layout.
  std::vector<std::size_t> cap(static_cast<std::size_t>(P));
  if (plan.result_dist.has_value()) {
    const dist::BlockCyclicDim vdim = plan.result_dist->dim(0);
    for (int j = 0; j < P; ++j) {
      cap[static_cast<std::size_t>(j)] =
          static_cast<std::size_t>(vdim.local_extent_on(j));
    }
  } else {
    for (auto& c : cap) c = unpinned_capacity(plan);
  }
  std::vector<std::vector<std::size_t>> bound(
      static_cast<std::size_t>(P),
      std::vector<std::size_t>(static_cast<std::size_t>(P), 0));
  for (int i = 0; i < P; ++i) {
    const std::size_t li = static_cast<std::size_t>(plan.dist.local_size(i));
    for (int j = 0; j < P; ++j) {
      if (i == j) continue;  // self-messages bypass the network
      bound[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          std::min(li, cap[static_cast<std::size_t>(j)]) * per_elem;
    }
  }
  return bound;
}

std::vector<std::vector<std::size_t>> unpack_request_bounds(
    const plan::UnpackPlan& plan) {
  const int P = plan.dist.nprocs();
  const dist::BlockCyclicDim vdim = plan.vector_dist.dim(0);
  const std::size_t iw = unpack_index_bytes(plan);
  std::vector<std::vector<std::size_t>> bound(
      static_cast<std::size_t>(P),
      std::vector<std::size_t>(static_cast<std::size_t>(P), 0));
  for (int i = 0; i < P; ++i) {
    const std::size_t li = static_cast<std::size_t>(plan.dist.local_size(i));
    for (int j = 0; j < P; ++j) {
      if (i == j) continue;
      // Requested ranks are distinct, so at most min(requester's mask
      // extent, owner's vector capacity) of them land on owner j; each is
      // one index field.
      bound[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          std::min(li, static_cast<std::size_t>(vdim.local_extent_on(j))) *
          iw;
    }
  }
  return bound;
}

std::vector<std::vector<std::size_t>> unpack_reply_bounds(
    const plan::UnpackPlan& plan) {
  const int P = plan.dist.nprocs();
  const dist::BlockCyclicDim vdim = plan.vector_dist.dim(0);
  const std::size_t w = static_cast<std::size_t>(plan.elem_width);
  std::vector<std::vector<std::size_t>> bound(
      static_cast<std::size_t>(P),
      std::vector<std::size_t>(static_cast<std::size_t>(P), 0));
  for (int j = 0; j < P; ++j) {
    const std::size_t capj =
        static_cast<std::size_t>(vdim.local_extent_on(j));
    for (int i = 0; i < P; ++i) {
      if (i == j) continue;
      // Owner j answers requester i with one value per requested rank.
      bound[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          std::min(static_cast<std::size_t>(plan.dist.local_size(i)), capj) *
          w;
    }
  }
  return bound;
}

ExpandedPlan expand_pack_plan(const plan::PackPlan& plan,
                              const sim::CostModel& cost,
                              std::size_t batch) {
  PUP_REQUIRE(batch >= 1, "batch must be at least 1");
  ExpandedPlan out;
  out.schedule.nprocs = plan.dist.nprocs();
  {
    std::ostringstream os;
    os << "pack plan (scheme=" << pack_scheme_name(plan.options.scheme)
       << ", m2m=" << m2m_name(plan.options.schedule)
       << ", wire=" << width_name(plan.options.wire_width) << ", d="
       << plan.schedule.d << ", P=" << plan.dist.nprocs() << ", B=" << batch
       << ")";
    out.schedule.origin = os.str();
  }
  expand_ranking(out, plan.schedule, batch, cost);
  const auto bound = pack_m2m_bounds(plan);
  for (std::size_t b = 0; b < batch; ++b) {
    expand_m2m(out, plan.dist.nprocs(), plan.options.schedule, bound,
               pack_element_wire(plan), cost);
  }
  return out;
}

ExpandedPlan expand_unpack_plan(const plan::UnpackPlan& plan,
                                const sim::CostModel& cost) {
  ExpandedPlan out;
  out.schedule.nprocs = plan.dist.nprocs();
  {
    std::ostringstream os;
    os << "unpack plan (scheme=" << unpack_scheme_name(plan.options.scheme)
       << ", m2m=" << m2m_name(plan.options.schedule)
       << ", wire=" << width_name(plan.options.wire_width) << ", d="
       << plan.schedule.d << ", P=" << plan.dist.nprocs() << ")";
    out.schedule.origin = os.str();
  }
  expand_ranking(out, plan.schedule, /*batch=*/1, cost);
  const std::size_t iw = unpack_index_bytes(plan);
  expand_m2m(out, plan.dist.nprocs(), plan.options.schedule,
             unpack_request_bounds(plan), {iw, iw}, cost);
  expand_m2m(out, plan.dist.nprocs(), plan.options.schedule,
             unpack_reply_bounds(plan),
             {static_cast<std::size_t>(plan.elem_width), 0}, cost);
  return out;
}

}  // namespace pup::analysis::statics
