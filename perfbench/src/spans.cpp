#include "spans.hpp"

#include <optional>
#include <string_view>

namespace perfbench {

void SpanRecorder::open(const char* name, Kind kind) {
  Span s;
  s.name = name;
  s.kind = kind;
  s.start_us = us_between(epoch_, Clock::now());
  if (stack_.empty()) {
    s.op = next_op_++;
  } else {
    s.parent = stack_.back();
    s.op = spans_[static_cast<std::size_t>(s.parent)].op;
  }
  stack_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(std::move(s));
}

void SpanRecorder::close() {
  if (stack_.empty()) return;
  spans_[static_cast<std::size_t>(stack_.back())].end_us =
      us_between(epoch_, Clock::now());
  stack_.pop_back();
}

void SpanRecorder::end_op() {
  // A local phase whose body threw never reports its end; closing down to
  // the root keeps the next operation's spans parented correctly.
  while (!stack_.empty()) {
    const bool root =
        spans_[static_cast<std::size_t>(stack_.back())].kind == Kind::kOp;
    close();
    if (root) break;
  }
}

std::vector<OpRollup> rollup(const std::vector<SpanRecorder::Span>& spans) {
  using Kind = SpanRecorder::Kind;
  std::vector<OpRollup> ops;
  std::vector<std::size_t> op_slot(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = s.end_us - s.start_us;
    if (s.parent < 0) {
      op_slot[i] = ops.size();
      OpRollup r;
      r.root = s.name;
      r.wall_us = dur;
      ops.push_back(std::move(r));
    } else {
      op_slot[i] = op_slot[static_cast<std::size_t>(s.parent)];
    }
    OpRollup& op = ops[op_slot[i]];
    const std::string_view name = s.name;
    if (name == "local_phase") {
      op.local_phase_us += dur;
      ++op.local_phases;
      continue;
    }
    if (s.kind == Kind::kCollective) {
      if (name.starts_with("prs.")) op.prs_us += dur;
      if (name.starts_with("alltoallv.")) op.m2m_us += dur;
    }
    if (s.kind == Kind::kPhase) op.stage_us[s.name] += dur;
    // A named phase or collective is carved out of its parent stage.
    if (s.parent >= 0 && s.kind != Kind::kRound) {
      const auto& p = spans[static_cast<std::size_t>(s.parent)];
      if (p.kind == Kind::kPhase) op.stage_us[p.name] -= dur;
    }
  }
  return ops;
}

void put_span_metrics(Sheet& sheet, const std::vector<OpRollup>& ops,
                      const std::string& main_root) {
  // Median of value(op) over main-root ops for which it is defined, else
  // over every op for which it is defined.
  auto over = [&](auto&& value) {
    for (const bool main_only : {true, false}) {
      std::vector<double> v;
      for (const OpRollup& op : ops) {
        if (main_only && op.root != main_root) continue;
        if (const auto x = value(op)) v.push_back(*x);
      }
      if (!v.empty()) return median(std::move(v));
    }
    return 0.0;
  };
  auto stage = [&](const char* name) {
    return over([name](const OpRollup& op) -> std::optional<double> {
      const auto it = op.stage_us.find(name);
      if (it == op.stage_us.end()) return std::nullopt;
      return it->second;
    });
  };
  sheet.set("core.pack.compose_us", stage("pack.compose"), "us");
  sheet.set("core.pack.decompose_us", stage("pack.decompose"), "us");
  sheet.set("core.ranking.initial_us", stage("ranking.initial"), "us");
  sheet.set("core.ranking.final_us", stage("ranking.final"), "us");
  sheet.set("core.unpack.requests_us", stage("unpack.requests"), "us");
  sheet.set("core.unpack.replies_us", stage("unpack.replies"), "us");
  sheet.set("core.unpack.place_us", stage("unpack.place"), "us");
  sheet.set("coll.prs_us",
            over([](const OpRollup& op) -> std::optional<double> {
              if (op.prs_us <= 0.0) return std::nullopt;
              return op.prs_us;
            }),
            "us");
  sheet.set("coll.m2m_us",
            over([](const OpRollup& op) -> std::optional<double> {
              if (op.m2m_us <= 0.0) return std::nullopt;
              return op.m2m_us;
            }),
            "us");

  std::vector<double> local;
  std::vector<double> serial;
  std::vector<double> phases;
  for (const OpRollup& op : ops) {
    if (op.root != main_root) continue;
    local.push_back(op.local_phase_us);
    serial.push_back(op.wall_us - op.local_phase_us);
    phases.push_back(op.local_phases);
  }
  sheet.set("sim.local_phase_us", median(local), "us");
  sheet.set("sim.serial_us", median(serial), "us");
  sheet.set("sim.local_phases", median(phases), "count");
  sheet.note("spans: " + std::to_string(ops.size()) + " operations, " +
             std::to_string(local.size()) + " with root " + main_root);
}

}  // namespace perfbench
