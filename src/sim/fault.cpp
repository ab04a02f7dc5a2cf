#include "sim/fault.hpp"

#include <cstdlib>
#include <optional>
#include <string>

#include "support/check.hpp"

namespace pup::sim {
namespace {

bool is_sep(char c) { return c == ' ' || c == '\t' || c == ','; }

/// Location of one key=value token inside the full spec, carried through
/// the parsing helpers so every diagnostic can point at the exact byte.
struct Token {
  std::string text;    ///< the full "key=value" field
  std::size_t offset;  ///< byte offset of the field in the spec
};

double parse_probability(const std::string& key, const std::string& value,
                         const Token& tok) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  PUP_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
              "PUP_FAULTS: bad number for " << key << "=" << value
                                            << " (token \"" << tok.text
                                            << "\" at byte " << tok.offset
                                            << ')');
  PUP_REQUIRE(p >= 0.0 && p <= 1.0,
              "PUP_FAULTS: " << key << "=" << value
                             << " must be a probability in [0, 1] (token \""
                             << tok.text << "\" at byte " << tok.offset
                             << ')');
  return p;
}

long parse_int(const std::string& key, const std::string& value,
               const Token& tok) {
  char* end = nullptr;
  // Base 0 so tag scopes can be written in hex ("tag=0xa2a").
  const long v = std::strtol(value.c_str(), &end, 0);
  PUP_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
              "PUP_FAULTS: bad integer for " << key << "=" << value
                                             << " (token \"" << tok.text
                                             << "\" at byte " << tok.offset
                                             << ')');
  return v;
}

}  // namespace

bool FaultRule::matches(const Message& m,
                        const std::vector<std::string>& scopes) const {
  if (src >= 0 && m.src != src) return false;
  if (dst >= 0 && m.dst != dst) return false;
  if (tag >= 0 && m.tag != tag) return false;
  if (!phase.empty()) {
    for (const auto& scope : scopes) {
      if (scope.find(phase) != std::string::npos) return true;
    }
    return false;
  }
  return true;
}

FaultPlan::FaultPlan(std::uint64_t seed, std::vector<FaultRule> rules)
    : seed_(seed), rules_(std::move(rules)), rng_(seed) {
  kill_remaining_.reserve(rules_.size());
  for (const auto& r : rules_) {
    PUP_REQUIRE(r.probability_sum() <= 1.0 + 1e-12,
                "fault rule probabilities sum past 1");
    PUP_REQUIRE(r.delay_ticks >= 1, "fault delay needs >= 1 tick");
    PUP_REQUIRE(!r.is_kill() || r.probability_sum() == 0.0,
                "a kill rule may not carry drop/dup/delay/trunc "
                "probabilities");
    PUP_REQUIRE(!r.is_kill() || r.after >= 1,
                "kill rule needs after >= 1, got " << r.after);
    kill_remaining_.push_back(r.is_kill() ? r.after : 0);
  }
}

std::unique_ptr<FaultPlan> FaultPlan::parse(const std::string& spec) {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;
  FaultRule rule;
  bool any_field = false;
  std::optional<Token> after_tok;  // after= seen in the current rule
  const auto finish_rule = [&] {
    PUP_REQUIRE(!after_tok.has_value() || rule.is_kill(),
                "PUP_FAULTS: after= scopes a kill rule; this rule has no "
                "kill= (token \""
                    << after_tok->text << "\" at byte " << after_tok->offset
                    << ')');
    // A segment that only carries seed= (or is empty between '|') adds no
    // injection; keep only rules that can fire.
    if (any_field && (rule.probability_sum() > 0.0 || rule.is_kill())) {
      rules.push_back(std::move(rule));
    }
    rule = FaultRule{};
    any_field = false;
    after_tok.reset();
  };
  std::size_t i = 0;
  while (i <= spec.size()) {
    if (i == spec.size() || spec[i] == '|') {
      finish_rule();
      ++i;
      continue;
    }
    if (is_sep(spec[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < spec.size() && !is_sep(spec[j]) && spec[j] != '|') ++j;
    const Token tok{spec.substr(i, j - i), i};
    i = j;
    const std::size_t eq = tok.text.find('=');
    PUP_REQUIRE(eq != std::string::npos && eq > 0,
                "PUP_FAULTS: expected key=value (token \""
                    << tok.text << "\" at byte " << tok.offset << ')');
    const std::string key = tok.text.substr(0, eq);
    const std::string value = tok.text.substr(eq + 1);
    any_field = true;
    if (key == "seed") {
      seed = static_cast<std::uint64_t>(parse_int(key, value, tok));
    } else if (key == "drop") {
      rule.drop = parse_probability(key, value, tok);
    } else if (key == "dup") {
      rule.duplicate = parse_probability(key, value, tok);
    } else if (key == "delay") {
      rule.delay = parse_probability(key, value, tok);
    } else if (key == "trunc") {
      rule.truncate = parse_probability(key, value, tok);
    } else if (key == "ticks") {
      rule.delay_ticks = static_cast<int>(parse_int(key, value, tok));
      PUP_REQUIRE(rule.delay_ticks >= 1,
                  "PUP_FAULTS: ticks must be >= 1 (token \""
                      << tok.text << "\" at byte " << tok.offset << ')');
    } else if (key == "kill") {
      rule.kill = static_cast<int>(parse_int(key, value, tok));
      PUP_REQUIRE(rule.kill >= 0,
                  "PUP_FAULTS: kill needs a rank >= 0 (token \""
                      << tok.text << "\" at byte " << tok.offset << ')');
    } else if (key == "after") {
      rule.after = static_cast<int>(parse_int(key, value, tok));
      PUP_REQUIRE(rule.after >= 1,
                  "PUP_FAULTS: after must be >= 1 (token \""
                      << tok.text << "\" at byte " << tok.offset << ')');
      after_tok = tok;
    } else if (key == "src") {
      rule.src = static_cast<int>(parse_int(key, value, tok));
    } else if (key == "dst") {
      rule.dst = static_cast<int>(parse_int(key, value, tok));
    } else if (key == "tag") {
      rule.tag = static_cast<int>(parse_int(key, value, tok));
    } else if (key == "phase") {
      PUP_REQUIRE(!value.empty(),
                  "PUP_FAULTS: phase= needs a name (token \""
                      << tok.text << "\" at byte " << tok.offset << ')');
      rule.phase = value;
    } else {
      PUP_REQUIRE(false, "PUP_FAULTS: unknown key \""
                             << key << "\" (token \"" << tok.text
                             << "\" at byte " << tok.offset << ')');
    }
    PUP_REQUIRE(!rule.is_kill() || rule.probability_sum() == 0.0,
                "PUP_FAULTS: a kill rule may not mix with "
                "drop/dup/delay/trunc (token \""
                    << tok.text << "\" at byte " << tok.offset << ')');
  }
  PUP_REQUIRE(!rules.empty(),
              "PUP_FAULTS: \"" << spec << "\" defines no injection rule");
  return std::make_unique<FaultPlan>(seed, std::move(rules));
}

FaultEvent FaultPlan::decide(const Message& m,
                             const std::vector<std::string>& scopes) {
  if (is_dead(m.src)) {
    ++stats_.dead_dropped;
    FaultEvent ev;
    ev.action = FaultAction::kDeadSource;
    return ev;
  }
  FaultEvent ev;
  // Kill countdowns tick in a pre-pass over every matching post, so a
  // fail-stop schedule fires no matter where its rule sits in the list: a
  // probability rule that decides first (and breaks the scan below) must
  // not shadow a kill queued behind it, and vice versa.
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FaultRule& rule = rules_[r];
    if (!rule.is_kill() || !rule.matches(m, scopes)) continue;
    if (kill_remaining_[r] > 0 && --kill_remaining_[r] == 0) {
      dead_.insert(rule.kill);
      ++stats_.kills;
      if (ev.killed_rank < 0) ev.killed_rank = rule.kill;
    }
  }
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FaultRule& rule = rules_[r];
    if (rule.is_kill() || !rule.matches(m, scopes)) continue;
    ++stats_.decisions;
    const double u = rng_.next_double();
    double acc = rule.drop;
    if (u < acc) {
      ++stats_.drops;
      ev.action = FaultAction::kDrop;
      break;
    }
    acc += rule.duplicate;
    if (u < acc) {
      ++stats_.duplicates;
      ev.action = FaultAction::kDuplicate;
      break;
    }
    acc += rule.delay;
    if (u < acc) {
      ++stats_.delays;
      ev.action = FaultAction::kDelay;
      ev.delay_ticks = rule.delay_ticks;
      break;
    }
    acc += rule.truncate;
    if (u < acc && !m.payload.empty()) {
      ++stats_.truncations;
      ev.action = FaultAction::kTruncate;
      ev.truncate_to = m.payload.size() / 2;
      break;
    }
    break;  // the first matching probability rule decides alone
  }
  // A kill fired by this very post may have just claimed the poster
  // itself; the message dies with its sender.
  if (ev.killed_rank >= 0 && is_dead(m.src)) {
    ++stats_.dead_dropped;
    ev.action = FaultAction::kDeadSource;
    ev.delay_ticks = 0;
    ev.truncate_to = 0;
  }
  return ev;
}

}  // namespace pup::sim
