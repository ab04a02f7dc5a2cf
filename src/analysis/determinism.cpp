#include "analysis/determinism.hpp"

#include <cstring>
#include <sstream>

#include "support/check.hpp"

namespace pup::analysis {

DigestRecorder::DigestRecorder(sim::Machine& machine)
    : machine_(machine),
      charged_(static_cast<std::size_t>(machine.nprocs())) {
  prev_ = machine_.set_observer(this);
}

DigestRecorder::~DigestRecorder() { machine_.set_observer(prev_); }

void DigestRecorder::on_charge(int rank, sim::Category cat, double us) {
  if (prev_ != nullptr) prev_->on_charge(rank, cat, us);
  charged_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(cat)] +=
      us;
}

void DigestRecorder::on_post(const sim::Message& m, sim::Category cat) {
  if (prev_ != nullptr) prev_->on_post(m, cat);
}
void DigestRecorder::on_receive(int rank, const sim::Message& m) {
  if (prev_ != nullptr) prev_->on_receive(rank, m);
}
void DigestRecorder::on_expire(const sim::Message& m) {
  if (prev_ != nullptr) prev_->on_expire(m);
}
void DigestRecorder::on_collective_begin(const sim::CollectiveInfo& info) {
  if (prev_ != nullptr) prev_->on_collective_begin(info);
}
void DigestRecorder::on_round_begin() {
  if (prev_ != nullptr) prev_->on_round_begin();
}
void DigestRecorder::on_round_end() {
  if (prev_ != nullptr) prev_->on_round_end();
}
void DigestRecorder::on_collective_end() {
  if (prev_ != nullptr) prev_->on_collective_end();
}
void DigestRecorder::on_phase_begin(const char* name) {
  if (prev_ != nullptr) prev_->on_phase_begin(name);
}
void DigestRecorder::on_phase_end(const char* name) {
  if (prev_ != nullptr) prev_->on_phase_end(name);
  // Mirror Machine::rollback_epoch for the recorder's own accumulators;
  // see the class comment.  The machine emits the marker after acting, so
  // the end annotation is the synchronization point.
  if (std::strcmp(name, "epoch.checkpoint") == 0) {
    epoch_charged_ = charged_;
    epoch_valid_ = true;
  } else if (std::strcmp(name, "epoch.rollback") == 0 && epoch_valid_) {
    charged_ = epoch_charged_;
  }
}
void DigestRecorder::on_reset() {
  if (prev_ != nullptr) prev_->on_reset();
}

TraceDigest DigestRecorder::digest() const {
  TraceDigest d;
  const sim::Trace& t = machine_.trace();
  const int P = machine_.nprocs();
  d.messages = t.messages();
  d.bytes = t.bytes();
  d.self_bytes = t.self_bytes();
  for (int c = 0; c < sim::kNumCategories; ++c) {
    const auto cat = static_cast<sim::Category>(c);
    d.messages_by_cat[static_cast<std::size_t>(c)] = t.messages_in(cat);
    d.bytes_by_cat[static_cast<std::size_t>(c)] = t.bytes_in(cat);
  }
  d.sent_bytes.resize(static_cast<std::size_t>(P));
  d.recv_bytes.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    d.sent_bytes[static_cast<std::size_t>(r)] = t.sent_bytes(r);
    d.recv_bytes[static_cast<std::size_t>(r)] = t.recv_bytes(r);
  }
  d.charged_us = charged_;
  return d;
}

std::string diff_digests(const TraceDigest& a, const TraceDigest& b) {
  std::ostringstream os;
  auto scalar = [&](const char* name, auto va, auto vb) {
    os << name << ": " << va << " vs " << vb;
  };
  if (a.messages != b.messages) {
    scalar("message count", a.messages, b.messages);
  } else if (a.bytes != b.bytes) {
    scalar("byte total", a.bytes, b.bytes);
  } else if (a.self_bytes != b.self_bytes) {
    scalar("self-traffic bytes", a.self_bytes, b.self_bytes);
  } else if (a.messages_by_cat != b.messages_by_cat) {
    os << "per-category message counts differ";
  } else if (a.bytes_by_cat != b.bytes_by_cat) {
    os << "per-category byte totals differ";
  } else if (a.sent_bytes != b.sent_bytes) {
    os << "per-rank sent-byte totals differ";
  } else if (a.recv_bytes != b.recv_bytes) {
    os << "per-rank received-byte totals differ";
  } else if (a.charged_us != b.charged_us) {
    os << "modeled time buckets differ";
  }
  return os.str();
}

DeterminismReport check_determinism(
    const std::function<std::unique_ptr<sim::Machine>()>& make_machine,
    const std::function<void(sim::Machine&)>& op) {
  auto run = [&]() {
    std::unique_ptr<sim::Machine> machine = make_machine();
    PUP_REQUIRE(machine != nullptr,
                "determinism check needs a machine factory that returns a "
                "machine");
    DigestRecorder recorder(*machine);
    op(*machine);
    return recorder.digest();
  };
  DeterminismReport rep;
  rep.first = run();
  rep.second = run();
  rep.diff = diff_digests(rep.first, rep.second);
  rep.deterministic = rep.diff.empty();
  return rep;
}

DeterminismReport check_determinism(
    int nprocs, const sim::MachineOptions& options,
    const std::function<void(sim::Machine&)>& op) {
  return check_determinism(
      [nprocs, &options] {
        return std::make_unique<sim::Machine>(nprocs, options);
      },
      op);
}

}  // namespace pup::analysis
