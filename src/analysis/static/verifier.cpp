#include "analysis/static/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

namespace pup::analysis::statics {
namespace {

using XferKey = std::tuple<int, int, int, std::size_t>;

XferKey key_of(const Xfer& x) { return {x.src, x.dst, x.tag, x.bytes}; }

std::string xfer_str(const XferKey& k) {
  std::ostringstream os;
  os << std::get<0>(k) << "->" << std::get<1>(k) << " tag 0x" << std::hex
     << std::get<2>(k) << std::dec << " (" << std::get<3>(k) << " bytes)";
  return os.str();
}

void issue(VerifyReport& report, const char* rule, const std::string& where,
           const std::string& detail) {
  report.issues.push_back({rule, where + ": " + detail});
}

std::string at(const BlockIR& block, std::size_t block_idx, int round) {
  std::ostringstream os;
  os << "block " << block_idx << " (" << block.name << ")";
  if (round >= 0) os << " round " << round;
  return os.str();
}

/// Rounds within a block must admit a topological order; a cycle means the
/// schedule can never start some round (every member of the cycle waits on
/// another), i.e. a static deadlock.
void check_deps_acyclic(VerifyReport& report, const BlockIR& block,
                        std::size_t block_idx) {
  const int n = static_cast<int>(block.rounds.size());
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    for (int dep : block.rounds[static_cast<std::size_t>(r)].deps) {
      if (dep < 0 || dep >= n) {
        issue(report, "structure", at(block, block_idx, r),
              "dependency on nonexistent round " + std::to_string(dep));
        continue;
      }
      if (dep == r) {
        issue(report, "deadlock", at(block, block_idx, r),
              "round depends on itself");
        continue;
      }
      out[static_cast<std::size_t>(dep)].push_back(r);
      ++indeg[static_cast<std::size_t>(r)];
    }
  }
  // Kahn's algorithm; any round never released is part of (or downstream
  // of) a dependency cycle.
  std::vector<int> ready;
  for (int r = 0; r < n; ++r) {
    if (indeg[static_cast<std::size_t>(r)] == 0) ready.push_back(r);
  }
  int released = 0;
  while (!ready.empty()) {
    const int r = ready.back();
    ready.pop_back();
    ++released;
    for (int next : out[static_cast<std::size_t>(r)]) {
      if (--indeg[static_cast<std::size_t>(next)] == 0) ready.push_back(next);
    }
  }
  if (released < n) {
    std::vector<int> stuck;
    for (int r = 0; r < n; ++r) {
      if (indeg[static_cast<std::size_t>(r)] > 0) stuck.push_back(r);
    }
    std::ostringstream os;
    os << "dependency cycle leaves " << (n - released)
       << " round(s) unreachable (first stuck round " << stuck.front() << ")";
    issue(report, "deadlock", at(block, block_idx, -1), os.str());
  }
}

void check_round(VerifyReport& report, const CommSchedule& schedule,
                 const BlockIR& block, std::size_t block_idx, int round_idx,
                 const RoundIR& round) {
  const std::string where = at(block, block_idx, round_idx);

  // Structure: endpoints in range, tags declared.
  auto check_endpoints = [&](const Xfer& x, const char* side) {
    if (x.src < 0 || x.src >= schedule.nprocs || x.dst < 0 ||
        x.dst >= schedule.nprocs) {
      std::ostringstream os;
      os << side << " " << xfer_str(key_of(x)) << " has endpoints outside "
         << "[0, " << schedule.nprocs << ")";
      issue(report, "structure", where, os.str());
    }
    if (std::find(block.tags.begin(), block.tags.end(), x.tag) ==
        block.tags.end()) {
      std::ostringstream os;
      os << side << " " << xfer_str(key_of(x))
         << " uses a tag the block never declared";
      issue(report, "tag-discipline", where, os.str());
    }
  };
  for (const Xfer& x : round.posts) check_endpoints(x, "post");
  for (const Xfer& x : round.recvs) check_endpoints(x, "receive");

  // Communication matching: the post multiset must equal the receive
  // multiset.  An unmatched receive is a statically provable deadlock (the
  // blocking rrecv can never be satisfied); an unmatched post is a frame
  // no receive drains before the round barrier.
  std::map<XferKey, int> balance;
  for (const Xfer& x : round.posts) ++balance[key_of(x)];
  for (const Xfer& x : round.recvs) --balance[key_of(x)];
  for (const auto& [k, count] : balance) {
    if (count > 0) {
      std::ostringstream os;
      os << count << " post(s) of " << xfer_str(k)
         << " have no matching receive in the round";
      issue(report, "comm-matching", where, os.str());
    } else if (count < 0) {
      std::ostringstream os;
      os << -count << " receive(s) of " << xfer_str(k)
         << " have no matching post in the round (blocking receive can "
         << "never complete)";
      issue(report, "comm-matching", where, os.str());
    }
  }

  // Round discipline: at most one send and one receive per rank.
  if (block.discipline == Discipline::kMaxOneExchange) {
    std::map<int, int> sends, recvs;
    for (const Xfer& x : round.posts) ++sends[x.src];
    for (const Xfer& x : round.recvs) ++recvs[x.dst];
    for (const auto& [rank, n] : sends) {
      if (n > 1) {
        std::ostringstream os;
        os << "rank " << rank << " sends " << n
           << " messages in a kMaxOneExchange round";
        issue(report, "round-discipline", where, os.str());
      }
    }
    for (const auto& [rank, n] : recvs) {
      if (n > 1) {
        std::ostringstream os;
        os << "rank " << rank << " receives " << n
           << " messages in a kMaxOneExchange round";
        issue(report, "round-discipline", where, os.str());
      }
    }
  }

  // Mailbox: in-flight bytes into each rank while the round drains.
  std::map<int, std::size_t> in_flight;
  for (const Xfer& x : round.posts) in_flight[x.dst] += x.bytes;
  for (const auto& [rank, bytes] : in_flight) {
    if (rank < 0 || rank >= schedule.nprocs) continue;
    auto& peak = report.peak_in_flight[static_cast<std::size_t>(rank)];
    peak = std::max(peak, bytes);
    if (bytes > report.peak.bytes) {
      report.peak = {rank, bytes, block.name, round_idx};
    }
  }
}

/// Per-rank totals accumulated from the IR for one expectation's blocks.
struct IrTotals {
  std::int64_t posts = 0;
  std::int64_t recvs = 0;
  std::size_t bytes_out = 0;
  std::size_t bytes_in = 0;
  double charge_us = 0.0;
};

void check_conformance(VerifyReport& report, const CommSchedule& schedule,
                       const BlockExpectation& exp, std::size_t exp_idx,
                       const VerifyOptions& options) {
  std::ostringstream whereos;
  whereos << "expectation " << exp_idx << " (blocks";
  std::map<int, IrTotals> totals;
  for (int rank : exp.ranks) totals[rank];  // participating ranks
  bool bad_block = false;
  for (std::size_t bi : exp.blocks) {
    whereos << " " << bi;
    if (bi >= schedule.blocks.size()) {
      issue(report, "structure", "expectation " + std::to_string(exp_idx),
            "references nonexistent block " + std::to_string(bi));
      bad_block = true;
      continue;
    }
    const BlockIR& block = schedule.blocks[bi];
    auto charge_rank = [&](int rank, double us, const char* what) {
      auto it = totals.find(rank);
      if (it == totals.end()) {
        std::ostringstream os;
        os << what << " touches rank " << rank
           << ", which is not a member of the collective";
        issue(report, "cost-conformance", at(block, bi, -1), os.str());
        return;
      }
      it->second.charge_us += us;
    };
    for (const RankCharge& c : block.direct_charges) {
      charge_rank(c.rank, c.us, "direct charge");
    }
    for (const RoundIR& round : block.rounds) {
      for (const RankCharge& c : round.charges) {
        charge_rank(c.rank, c.us, "round charge");
      }
      for (const Xfer& x : round.posts) {
        auto it = totals.find(x.src);
        if (it == totals.end()) continue;  // structure check reports it
        it->second.posts += 1;
        it->second.bytes_out += x.bytes;
      }
      for (const Xfer& x : round.recvs) {
        auto it = totals.find(x.dst);
        if (it == totals.end()) continue;
        it->second.recvs += 1;
        it->second.bytes_in += x.bytes;
      }
    }
  }
  if (bad_block) return;
  const std::string where = whereos.str() + ")";

  PUP_CHECK(exp.ranks.size() == exp.expected.size(),
            "expectation ranks/predictions size mismatch");
  for (std::size_t k = 0; k < exp.ranks.size(); ++k) {
    const int rank = exp.ranks[k];
    const coll::MemberCost& want = exp.expected[k];
    const IrTotals& got = totals[rank];
    std::ostringstream os;
    bool bad = false;
    if (got.posts != want.posts || got.recvs != want.recvs) {
      os << "rank " << rank << ": IR has " << got.posts << " posts / "
         << got.recvs << " recvs, closed form predicts " << want.posts
         << " / " << want.recvs << "; ";
      bad = true;
    }
    if (got.bytes_out != want.bytes_out || got.bytes_in != want.bytes_in) {
      os << "rank " << rank << ": IR moves " << got.bytes_out << "B out / "
         << got.bytes_in << "B in, closed form predicts " << want.bytes_out
         << "B / " << want.bytes_in << "B; ";
      bad = true;
    }
    if (std::abs(got.charge_us - want.charge_us) > options.tolerance_us) {
      os << "rank " << rank << ": IR charges " << got.charge_us
         << "us, closed form predicts " << want.charge_us << "us";
      bad = true;
    }
    if (bad) issue(report, "cost-conformance", where, os.str());
  }
}

}  // namespace

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << (ok() ? "verified" : "FAILED") << ": " << blocks << " block(s), "
     << rounds << " round(s), " << posts << " post(s)";
  if (peak.rank >= 0) {
    os << "; peak in-flight " << peak.bytes << "B into rank " << peak.rank
       << " (" << peak.block << " round " << peak.round << ")";
  }
  if (!ok()) os << "; " << issues.size() << " issue(s)";
  return os.str();
}

VerifyReport verify_schedule(const CommSchedule& schedule,
                             const std::vector<BlockExpectation>& expect,
                             const VerifyOptions& options) {
  VerifyReport report;
  report.peak_in_flight.assign(
      schedule.nprocs > 0 ? static_cast<std::size_t>(schedule.nprocs) : 0, 0);
  if (schedule.nprocs <= 0) {
    report.issues.push_back({"structure", "schedule has no processors"});
    return report;
  }

  for (std::size_t bi = 0; bi < schedule.blocks.size(); ++bi) {
    const BlockIR& block = schedule.blocks[bi];
    ++report.blocks;
    check_deps_acyclic(report, block, bi);
    for (std::size_t ri = 0; ri < block.rounds.size(); ++ri) {
      ++report.rounds;
      report.posts +=
          static_cast<std::int64_t>(block.rounds[ri].posts.size());
      check_round(report, schedule, block, bi, static_cast<int>(ri),
                  block.rounds[ri]);
    }
  }

  for (std::size_t ei = 0; ei < expect.size(); ++ei) {
    check_conformance(report, schedule, expect[ei], ei, options);
  }

  if (options.mailbox_budget_bytes > 0 &&
      report.peak.bytes > options.mailbox_budget_bytes) {
    std::ostringstream os;
    os << "peak in-flight " << report.peak.bytes << "B into rank "
       << report.peak.rank << " (" << report.peak.block << " round "
       << report.peak.round << ") exceeds the "
       << options.mailbox_budget_bytes << "B budget";
    report.issues.push_back({"mailbox-budget", os.str()});
  }
  return report;
}

VerifyReport verify_plan(const plan::PackPlan& plan,
                         const sim::CostModel& cost, std::size_t batch,
                         const VerifyOptions& options) {
  const ExpandedPlan expanded = expand_pack_plan(plan, cost, batch);
  VerifyReport report =
      verify_schedule(expanded.schedule, expanded.expectations, options);
  check_prs_picks(report, plan.schedule, plan.options.prs, cost);
  return report;
}

VerifyReport verify_plan(const plan::UnpackPlan& plan,
                         const sim::CostModel& cost,
                         const VerifyOptions& options) {
  const ExpandedPlan expanded = expand_unpack_plan(plan, cost);
  VerifyReport report =
      verify_schedule(expanded.schedule, expanded.expectations, options);
  check_prs_picks(report, plan.schedule, plan.options.prs, cost);
  return report;
}

void check_prs_picks(VerifyReport& report, const RankingSchedule& sched,
                     coll::PrsAlgorithm requested,
                     const sim::CostModel& cost) {
  using coll::PrsAlgorithm;
  if (requested != PrsAlgorithm::kAuto &&
      requested != PrsAlgorithm::kPaperRule) {
    return;
  }
  for (std::size_t i = 0; i < sched.steps.size(); ++i) {
    const RankingStep& step = sched.steps[i];
    const int G = step.groups.empty() ? 1 : step.groups.front().size();
    const auto M = static_cast<std::size_t>(step.level_size);
    const double direct_us =
        coll::predict_prs_us(PrsAlgorithm::kDirect, G, M, step.wire_bytes,
                             cost, step.round_bits);
    const double split_us = coll::predict_prs_us(PrsAlgorithm::kSplit, G, M,
                                                 step.wire_bytes, cost);
    const PrsAlgorithm want =
        requested == PrsAlgorithm::kAuto
            ? (split_us < direct_us ? PrsAlgorithm::kSplit
                                    : PrsAlgorithm::kDirect)
            : (G > 4 && M >= static_cast<std::size_t>(G)
                   ? PrsAlgorithm::kSplit
                   : PrsAlgorithm::kDirect);
    if (step.prs == want) continue;
    auto name = [](PrsAlgorithm a) {
      return a == PrsAlgorithm::kDirect  ? "direct"
             : a == PrsAlgorithm::kSplit ? "split"
                                         : "a non-candidate algorithm";
    };
    std::ostringstream os;
    os << (requested == PrsAlgorithm::kAuto ? "kAuto" : "kPaperRule")
       << " resolved to " << name(step.prs) << " for G=" << G << ", M=" << M
       << ", " << step.wire_bytes << "-byte wire, where " << name(want)
       << " is required (predicted busiest-member charge: direct "
       << direct_us << "us, split " << split_us << "us)";
    issue(report, "prs-pick", "ranking step " + std::to_string(i), os.str());
  }
}

void require_verified(const VerifyReport& report, const char* what) {
  if (report.ok()) return;
  std::ostringstream os;
  os << what << " failed static verification (" << report.issues.size()
     << " issue(s)):";
  for (const VerifyIssue& i : report.issues) {
    os << "\n  [" << i.rule << "] " << i.detail;
  }
  PUP_CHECK(false, os.str());
}

}  // namespace pup::analysis::statics
