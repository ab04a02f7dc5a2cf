#include "analysis/static/trace_check.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

namespace pup::analysis::statics {
namespace {

using XferKey = std::tuple<int, int, int, std::size_t>;

XferKey key_of(const Xfer& x) { return {x.src, x.dst, x.tag, x.bytes}; }

std::string xfer_str(int src, int dst, int tag, std::size_t bytes) {
  std::ostringstream os;
  os << src << "->" << dst << " tag 0x" << std::hex << tag << std::dec << " ("
     << bytes << " bytes)";
  return os.str();
}

bool close(double a, double b, double tol) {
  return std::abs(a - b) <= tol + 1e-9 * std::max(std::abs(a), std::abs(b));
}

bool block_is_bounded(const BlockIR& block) {
  for (const RoundIR& round : block.rounds) {
    for (const Xfer& x : round.posts) {
      if (x.bounded) return true;
    }
  }
  return false;
}

void add(std::vector<std::string>& issues, const std::string& where,
         const std::string& detail) {
  issues.push_back(where + ": " + detail);
}

/// Exact comparison: recorded multisets and charges equal the IR's.
void compare_exact_round(std::vector<std::string>& issues,
                         const std::string& where, const RoundIR& ir,
                         const ScheduleRecorder::Round& rec, double tol) {
  auto diff_multisets = [&](const std::vector<Xfer>& a,
                            const std::vector<Xfer>& b, const char* what) {
    std::map<XferKey, int> balance;
    for (const Xfer& x : a) ++balance[key_of(x)];
    for (const Xfer& x : b) --balance[key_of(x)];
    for (const auto& [k, n] : balance) {
      if (n == 0) continue;
      std::ostringstream os;
      os << what << " "
         << xfer_str(std::get<0>(k), std::get<1>(k), std::get<2>(k),
                     std::get<3>(k))
         << (n > 0 ? " predicted but never executed" : " executed but never "
                                                       "predicted");
      add(issues, where, os.str());
    }
  };
  diff_multisets(ir.posts, rec.posts, "post");
  diff_multisets(ir.recvs, rec.recvs, "receive");

  std::map<int, double> ir_charge;
  for (const RankCharge& c : ir.charges) ir_charge[c.rank] += c.us;
  for (const auto& [rank, us] : rec.charges) ir_charge[rank] -= us;
  for (const auto& [rank, us] : ir_charge) {
    if (close(us, 0.0, tol)) continue;
    std::ostringstream os;
    os << "rank " << rank << " charge differs from the prediction by " << us
       << "us";
    add(issues, where, os.str());
  }
}

/// Bounded comparison: every recorded transfer must fit under a distinct IR
/// bound with the same endpoints+tag, and charges must not exceed the IR's.
void compare_bounded_round(std::vector<std::string>& issues,
                           const std::string& where, const RoundIR& ir,
                           const ScheduleRecorder::Round& rec, double tol) {
  auto fit_under = [&](const std::vector<Xfer>& bounds,
                       const std::vector<Xfer>& actual, const char* what) {
    // Endpoint pairs are unique within an M2M round, so (src, dst, tag)
    // identifies the bound.
    std::map<std::tuple<int, int, int>, std::size_t> remaining;
    for (const Xfer& x : bounds) remaining[{x.src, x.dst, x.tag}] = x.bytes;
    for (const Xfer& x : actual) {
      auto it = remaining.find({x.src, x.dst, x.tag});
      if (it == remaining.end()) {
        add(issues, where,
            std::string(what) + " " +
                xfer_str(x.src, x.dst, x.tag, x.bytes) +
                " executed with no static bound covering it");
        continue;
      }
      if (x.bytes > it->second) {
        std::ostringstream os;
        os << what << " " << xfer_str(x.src, x.dst, x.tag, x.bytes)
           << " exceeds its static bound of " << it->second << " bytes";
        add(issues, where, os.str());
      }
      remaining.erase(it);  // each bound covers one message
    }
  };
  fit_under(ir.posts, rec.posts, "post");
  fit_under(ir.recvs, rec.recvs, "receive");

  std::map<int, double> ir_charge;
  for (const RankCharge& c : ir.charges) ir_charge[c.rank] += c.us;
  for (const auto& [rank, us] : rec.charges) {
    const double bound = ir_charge.count(rank) ? ir_charge[rank] : 0.0;
    if (us <= bound + tol) continue;
    std::ostringstream os;
    os << "rank " << rank << " charged " << us
       << "us, exceeding the static bound of " << bound << "us";
    add(issues, where, os.str());
  }
}

}  // namespace

ScheduleRecorder::Round& ScheduleRecorder::sink() {
  Block& block = blocks_.back();
  if (in_round_) return block.rounds.back();
  return block.loose;
}

void ScheduleRecorder::reset() {
  blocks_.clear();
  outside_charges_.clear();
  in_collective_ = false;
  in_round_ = false;
}

void ScheduleRecorder::on_post(const sim::Message& m, sim::Category) {
  if (!in_collective_) return;
  sink().posts.push_back({m.src, m.dst, m.tag, m.payload.size(), false});
}

void ScheduleRecorder::on_receive(int rank, const sim::Message& m) {
  if (!in_collective_) return;
  sink().recvs.push_back({m.src, rank, m.tag, m.payload.size(), false});
}

void ScheduleRecorder::on_charge(int rank, sim::Category, double us) {
  if (!in_collective_) {
    outside_charges_[rank] += us;
    return;
  }
  sink().charges[rank] += us;
}

void ScheduleRecorder::on_collective_begin(const sim::CollectiveInfo& info) {
  Block block;
  block.name = info.name;
  block.tags = info.tags;
  block.discipline = info.discipline;
  blocks_.push_back(std::move(block));
  in_collective_ = true;
}

void ScheduleRecorder::on_round_begin() {
  if (!in_collective_) return;
  blocks_.back().rounds.emplace_back();
  in_round_ = true;
}

void ScheduleRecorder::on_round_end() { in_round_ = false; }

void ScheduleRecorder::on_collective_end() {
  in_collective_ = false;
  in_round_ = false;
}

void ScheduleRecorder::on_reset() { reset(); }

TraceCheckResult check_trace(const ScheduleRecorder& recorder,
                             const CommSchedule& schedule,
                             double tolerance_us) {
  TraceCheckResult result;
  std::map<int, double> expected_outside;
  std::size_t next_recorded = 0;
  const auto& recorded = recorder.blocks();

  for (std::size_t bi = 0; bi < schedule.blocks.size(); ++bi) {
    const BlockIR& ir = schedule.blocks[bi];
    std::ostringstream whereos;
    whereos << "block " << bi << " (" << ir.name << ")";
    const std::string where = whereos.str();

    // Charge-only blocks (control-network PRS) run outside any collective
    // scope; their charges land in the outside-collective bucket.  A block
    // with no rounds is not one of them: a one-member many-to-many opens
    // its scope and runs zero rounds.
    if (!ir.direct_charges.empty()) {
      for (const RankCharge& c : ir.direct_charges) {
        expected_outside[c.rank] += c.us;
      }
      continue;
    }

    if (next_recorded >= recorded.size()) {
      add(result.issues, where,
          "predicted but the execution ran no further collectives");
      continue;
    }
    const ScheduleRecorder::Block& rec = recorded[next_recorded++];
    if (rec.name != ir.name) {
      add(result.issues, where,
          "execution ran collective \"" + rec.name + "\" here instead");
      continue;
    }
    std::vector<int> want_tags = ir.tags;
    std::vector<int> got_tags = rec.tags;
    std::sort(want_tags.begin(), want_tags.end());
    std::sort(got_tags.begin(), got_tags.end());
    if (want_tags != got_tags) {
      add(result.issues, where, "declared tag set differs from the IR's");
    }

    const bool bounded = block_is_bounded(ir);
    if (ir.discipline == Discipline::kUnordered) {
      // No round structure: the IR's single round against everything the
      // collective did (rounds would be empty, but fold any in anyway).
      ScheduleRecorder::Round all = rec.loose;
      for (const auto& r : rec.rounds) {
        all.posts.insert(all.posts.end(), r.posts.begin(), r.posts.end());
        all.recvs.insert(all.recvs.end(), r.recvs.begin(), r.recvs.end());
        for (const auto& [rank, us] : r.charges) all.charges[rank] += us;
      }
      if (ir.rounds.size() != 1) {
        add(result.issues, where, "unordered IR block must have one round");
        continue;
      }
      if (bounded) {
        compare_bounded_round(result.issues, where, ir.rounds[0], all,
                              tolerance_us);
      } else {
        compare_exact_round(result.issues, where, ir.rounds[0], all,
                            tolerance_us);
      }
      continue;
    }

    if (rec.rounds.size() != ir.rounds.size()) {
      std::ostringstream os;
      os << "execution ran " << rec.rounds.size() << " round(s), IR predicts "
         << ir.rounds.size();
      add(result.issues, where, os.str());
      continue;
    }
    if (!rec.loose.posts.empty() || !rec.loose.recvs.empty()) {
      add(result.issues, where,
          "round-synchronized collective moved messages outside any round");
    }
    for (const auto& [rank, us] : rec.loose.charges) {
      if (close(us, 0.0, tolerance_us)) continue;
      std::ostringstream os;
      os << "round-synchronized collective charged rank " << rank << " "
         << us << "us outside any round";
      add(result.issues, where, os.str());
    }
    for (std::size_t ri = 0; ri < ir.rounds.size(); ++ri) {
      std::ostringstream ros;
      ros << where << " round " << ri;
      if (bounded) {
        compare_bounded_round(result.issues, ros.str(), ir.rounds[ri],
                              rec.rounds[ri], tolerance_us);
      } else {
        compare_exact_round(result.issues, ros.str(), ir.rounds[ri],
                            rec.rounds[ri], tolerance_us);
      }
    }
  }

  if (next_recorded < recorded.size()) {
    std::ostringstream os;
    os << "execution ran " << recorded.size() - next_recorded
       << " collective(s) beyond the static schedule (first: \""
       << recorded[next_recorded].name << "\")";
    result.issues.push_back(os.str());
  }

  // Outside-collective charges: only the charge-only blocks may produce
  // them.  Loose charges inside round-synchronized collectives (exscan's
  // charge_oneway fires at post time, inside the round) are part of the
  // per-round comparison above, so this closes the ledger.
  std::map<int, double> outside = recorder.outside_charges();
  for (const auto& [rank, us] : expected_outside) outside[rank] -= us;
  for (const auto& [rank, us] : outside) {
    if (close(us, 0.0, tolerance_us)) continue;
    std::ostringstream os;
    os << "rank " << rank << " outside-collective charge differs from the "
       << "prediction by " << us << "us";
    result.issues.push_back(os.str());
  }

  return result;
}

}  // namespace pup::analysis::statics
