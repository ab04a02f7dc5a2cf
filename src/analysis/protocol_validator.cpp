#include "analysis/protocol_validator.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace pup::analysis {

bool ProtocolValidator::reliability_exempt(const sim::Message& m) {
  return m.tag == sim::kReliableNakTag || m.wire.retransmit ||
         m.wire.duplicate;
}

bool ProtocolValidator::drain_relaxed(const sim::Message& m) {
  return reliability_exempt(m) || m.wire.delayed;
}

ProtocolValidator::ProtocolValidator(sim::Machine& machine,
                                     ValidatorOptions options)
    : machine_(machine),
      opts_(options),
      round_(static_cast<std::size_t>(machine.nprocs())) {
  machine_.add_observer(this);
}

ProtocolValidator::~ProtocolValidator() {
  in_destructor_ = true;  // never throw from a destructor
  finish();
  machine_.remove_observer(this);
}

void ProtocolValidator::finish() {
  if (finished_) return;
  finished_ = true;
  if (in_flight_count_ > 0) {
    check_no_inflight("orphaned-message", "at end of validation");
  }
  check_no_delayed("at end of validation");
}

std::string ProtocolValidator::report() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) os << '\n';
    os << violations_[i].rule << ": " << violations_[i].detail;
  }
  return os.str();
}

void ProtocolValidator::violate(const char* rule, std::string detail) {
  violations_.push_back(Violation{rule, std::move(detail)});
  // Never throw from a destructor or while another exception unwinds: the
  // instrumentation scope guards emit round/collective end annotations
  // during the unwind of a transport failure, and the resulting records
  // (made moot by the upcoming epoch rollback anyway) must not terminate
  // the program.
  if (opts_.fail_fast && !in_destructor_ && std::uncaught_exceptions() == 0) {
    throw ContractError("protocol violation -- " + violations_.back().rule +
                        ": " + violations_.back().detail);
  }
}

std::string ProtocolValidator::context() const {
  std::ostringstream os;
  if (!scopes_.empty()) {
    os << " [collective=" << scopes_.back().info.name
       << " round=" << scopes_.back().round;
    if (!in_round_) os << " (between rounds)";
    os << ']';
  }
  if (!phases_.empty()) os << " [phase=" << phases_.back() << ']';
  return os.str();
}

bool ProtocolValidator::tag_allowed(const Scope& scope, int tag) const {
  const auto& tags = scope.info.tags;
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

void ProtocolValidator::check_no_inflight(const char* rule, const char* when,
                                          bool strict) {
  // Relaxed records (reliability/fault traffic) may legitimately straddle
  // round boundaries; the reliable layer's collective-end drain receives
  // them, so strict boundaries still see a zero count.
  const std::size_t count =
      strict ? in_flight_count_ : in_flight_count_ - in_flight_relaxed_;
  if (count == 0) return;
  std::ostringstream os;
  os << count << " undelivered message(s) " << when << ':';
  for (const auto& [key, records] : in_flight_) {
    std::size_t counted = records.size();
    if (!strict) {
      counted = static_cast<std::size_t>(
          std::count_if(records.begin(), records.end(),
                        [](const PostRecord& r) { return !r.relaxed; }));
    }
    if (counted == 0) continue;
    os << " (src=" << std::get<0>(key) << " dst=" << std::get<1>(key)
       << " tag=" << std::get<2>(key) << " x" << counted << ')';
  }
  os << context();
  violate(rule, os.str());
}

void ProtocolValidator::check_no_delayed(const char* when) {
  const std::size_t pending = machine_.delayed_pending();
  if (pending == 0) return;
  std::ostringstream os;
  os << pending << " delay-faulted message(s) still held by the machine "
     << when << context();
  violate("delayed-queue-leak", os.str());
}

void ProtocolValidator::on_post(const sim::Message& m, sim::Category /*cat*/) {
  ++stats_.posts;
  const bool relaxed = drain_relaxed(m);
  in_flight_[{m.src, m.dst, m.tag}].push_back(
      PostRecord{m.size_bytes(), relaxed});
  ++in_flight_count_;
  if (relaxed) ++in_flight_relaxed_;

  if (scopes_.empty()) {
    if (opts_.require_collective_scope && !reliability_exempt(m)) {
      std::ostringstream os;
      os << "post src=" << m.src << " dst=" << m.dst << " tag=" << m.tag
         << " outside any collective scope" << context();
      violate("unscoped-post", os.str());
    }
    return;
  }
  // NAK control frames and retransmissions/duplicates are the recovery
  // protocol's own traffic: declared by no collective and not bound by the
  // one-exchange-per-round discipline.
  if (reliability_exempt(m)) return;
  const Scope& scope = scopes_.back();
  if (!tag_allowed(scope, m.tag)) {
    std::ostringstream os;
    os << "post src=" << m.src << " dst=" << m.dst << " uses tag " << m.tag
       << " not declared by the collective" << context();
    violate("tag-discipline", os.str());
  }
  if (scope.info.discipline == sim::RoundDiscipline::kMaxOneExchange) {
    if (!in_round_) {
      std::ostringstream os;
      os << "post src=" << m.src << " dst=" << m.dst << " tag=" << m.tag
         << " outside a round of a round-synchronized collective"
         << context();
      violate("exchange-outside-round", os.str());
      return;
    }
    RankRound& rr = round_[static_cast<std::size_t>(m.src)];
    if (++rr.sends > 1) {
      std::ostringstream os;
      os << "rank " << m.src << " sent " << rr.sends
         << " messages in one round" << context();
      violate("multiple-sends-per-round", os.str());
    }
    rr.max_sent_us = std::max(
        rr.max_sent_us, machine_.message_us(m.src, m.dst, m.size_bytes()));
  }
}

void ProtocolValidator::on_receive(int rank, const sim::Message& m) {
  ++stats_.receives;
  const bool relaxed = drain_relaxed(m);
  auto it = in_flight_.find({m.src, m.dst, m.tag});
  if (it == in_flight_.end() || it->second.empty()) {
    std::ostringstream os;
    os << "rank " << rank << " received a message (src=" << m.src
       << " tag=" << m.tag << ") that was never posted under validation"
       << context();
    violate("unmatched-receive", os.str());
  } else {
    // Delay faults reorder delivery within a channel, so FIFO pairing can
    // cross a relaxed record with a normal message (or vice versa); match
    // the earliest record of the same kind to keep the relaxed count exact.
    auto& records = it->second;
    auto match = std::find_if(
        records.begin(), records.end(),
        [&](const PostRecord& r) { return r.relaxed == relaxed; });
    if (match == records.end()) match = records.begin();
    if (match->relaxed) --in_flight_relaxed_;
    records.erase(match);
    if (records.empty()) in_flight_.erase(it);
    --in_flight_count_;
  }

  if (scopes_.empty()) return;
  // Recovery traffic and delay-released copies are dealt with by the
  // reliable layer (dedup or drain); they are outside the round discipline.
  if (reliability_exempt(m) || m.wire.delayed) return;
  const Scope& scope = scopes_.back();
  if (!tag_allowed(scope, m.tag)) {
    std::ostringstream os;
    os << "rank " << rank << " received tag " << m.tag
       << " not declared by the collective" << context();
    violate("tag-discipline", os.str());
  }
  if (scope.info.discipline == sim::RoundDiscipline::kMaxOneExchange) {
    if (!in_round_) {
      std::ostringstream os;
      os << "rank " << rank << " received src=" << m.src << " tag=" << m.tag
         << " outside a round of a round-synchronized collective"
         << context();
      violate("exchange-outside-round", os.str());
      return;
    }
    RankRound& rr = round_[static_cast<std::size_t>(rank)];
    if (++rr.recvs > 1) {
      std::ostringstream os;
      os << "rank " << rank << " received " << rr.recvs
         << " messages in one round" << context();
      violate("multiple-receives-per-round", os.str());
    }
    rr.max_recv_us = std::max(
        rr.max_recv_us, machine_.message_us(m.src, rank, m.size_bytes()));
  }
}

void ProtocolValidator::on_expire(const sim::Message& m) {
  // The machine discarded a delay-faulted message unreceived at the end of
  // the outermost scope; retire its in-flight record so the discard is not
  // misread as an orphaned message.
  auto it = in_flight_.find({m.src, m.dst, m.tag});
  if (it == in_flight_.end() || it->second.empty()) {
    std::ostringstream os;
    os << "machine expired a delayed message (src=" << m.src
       << " dst=" << m.dst << " tag=" << m.tag
       << ") that was never posted under validation" << context();
    violate("unmatched-expiry", os.str());
    return;
  }
  auto& records = it->second;
  auto match =
      std::find_if(records.begin(), records.end(),
                   [](const PostRecord& r) { return r.relaxed; });
  if (match == records.end()) match = records.begin();
  if (match->relaxed) --in_flight_relaxed_;
  records.erase(match);
  if (records.empty()) in_flight_.erase(it);
  --in_flight_count_;
}

void ProtocolValidator::on_charge(int rank, sim::Category /*cat*/,
                                  double us) {
  if (in_round_) round_[static_cast<std::size_t>(rank)].charged_us += us;
}

void ProtocolValidator::on_collective_begin(const sim::CollectiveInfo& info) {
  ++stats_.collectives;
  check_no_inflight("cross-phase-leakage",
                    "when a new collective began");
  check_no_delayed("when a new collective began");
  scopes_.push_back(Scope{info, 0});
}

void ProtocolValidator::on_round_begin() {
  ++stats_.rounds;
  if (scopes_.empty()) {
    violate("round-outside-collective",
            "round annotation outside any collective scope");
  }
  in_round_ = true;
  std::fill(round_.begin(), round_.end(), RankRound{});
}

void ProtocolValidator::on_round_end() {
  // A synchronized round must fully drain: a message still in flight was
  // either orphaned or is a wrong-round exchange.  Reliability/fault
  // traffic may straddle rounds (non-strict); the collective-end drain
  // sweeps it before the strict boundary checks run.
  check_no_inflight("orphaned-message", "at end of round", /*strict=*/false);
  // Payload-size/cost conformance: each processor must have been charged at
  // least the modeled cost of its largest message this round.
  for (int rank = 0; rank < machine_.nprocs(); ++rank) {
    const RankRound& rr = round_[static_cast<std::size_t>(rank)];
    const double bound = std::max(rr.max_sent_us, rr.max_recv_us);
    if (bound > 0.0 && rr.charged_us + opts_.cost_tolerance_us < bound) {
      std::ostringstream os;
      os << "rank " << rank << " moved payload worth " << bound
         << "us (tau + mu*m) this round but was charged only "
         << rr.charged_us << "us" << context();
      violate("undercharged-exchange", os.str());
    }
  }
  in_round_ = false;
  if (!scopes_.empty()) ++scopes_.back().round;
}

void ProtocolValidator::on_collective_end() {
  if (scopes_.empty()) {
    violate("unbalanced-collective-scope",
            "collective end without a matching begin");
    return;
  }
  // All schedules -- including unordered ones -- must drain before the
  // collective returns; leftover messages would leak into the next phase.
  check_no_inflight("orphaned-message", "at end of collective");
  scopes_.pop_back();
}

void ProtocolValidator::on_phase_begin(const char* name) {
  ++stats_.phases;
  phases_.push_back(name);
  check_no_inflight("cross-phase-leakage", "when a phase began");
  check_no_delayed("when a phase began");
}

void ProtocolValidator::on_phase_end(const char* /*name*/) {
  if (!phases_.empty()) phases_.pop_back();
}

void ProtocolValidator::on_checkpoint() {
  epoch_ = EpochSnapshot{in_flight_, in_flight_count_, in_flight_relaxed_,
                         scopes_,    phases_,          in_round_,
                         round_,     violations_};
}

void ProtocolValidator::on_rollback() {
  if (!epoch_.has_value()) {
    violate("unmatched-rollback",
            "epoch rollback without a preceding checkpoint under validation");
    return;
  }
  in_flight_ = epoch_->in_flight;
  in_flight_count_ = epoch_->in_flight_count;
  in_flight_relaxed_ = epoch_->in_flight_relaxed;
  scopes_ = epoch_->scopes;
  phases_ = epoch_->phases;
  in_round_ = epoch_->in_round;
  round_ = epoch_->round;
  violations_ = epoch_->violations;
}

void ProtocolValidator::on_reset() {
  check_no_inflight("cross-phase-leakage", "when accounting was reset");
  check_no_delayed("when accounting was reset");
}

}  // namespace pup::analysis
