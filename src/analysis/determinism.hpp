// Determinism regression checker.
//
// The simulator's contract is bit-for-bit reproducibility: running the same
// operation on the same machine configuration must produce the same message
// counts, the same per-rank byte totals, and the same modeled time charges.
// Nondeterminism (iteration over pointer-keyed containers, uninitialized
// reads, wall-clock leaking into control flow) breaks the test suite's exact
// assertions and every comparative claim the benches make.
//
// check_determinism() replays an operation twice, each time on a fresh
// machine, records a TraceDigest of everything deterministic -- message and
// byte counts (global, per category, per rank), self-traffic, and the
// *modeled* time buckets accumulated through Machine::charge (real
// wall-clock timers are deliberately excluded) -- and compares the two
// digests, reporting the first difference found.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "sim/observer.hpp"

namespace pup::analysis {

/// Deterministic summary of one run's communication behaviour.
struct TraceDigest {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t self_bytes = 0;
  std::array<std::int64_t, sim::kNumCategories> messages_by_cat{};
  std::array<std::int64_t, sim::kNumCategories> bytes_by_cat{};
  std::vector<std::int64_t> sent_bytes;  ///< per rank
  std::vector<std::int64_t> recv_bytes;  ///< per rank
  /// Modeled time charged per rank and category (microseconds).  Fed by
  /// Machine::charge only, so identical runs produce identical sums.
  std::vector<std::array<double, sim::kNumCategories>> charged_us;

  bool operator==(const TraceDigest&) const = default;
};

/// Observer that accumulates the modeled time charges of a run; combined
/// with the machine's Trace it yields the run's TraceDigest.  It attaches
/// itself on construction and detaches on destruction, so it stacks with
/// (e.g.) a ProtocolValidator on the same machine.
///
/// Epoch rollback awareness: the machine's trace is restored by
/// Machine::rollback_epoch, but the recorder's charge accumulators live
/// outside the machine, so the recorder mirrors the same protocol -- it
/// parks a copy of its accumulators on on_checkpoint and restores it on
/// on_rollback.  Without this, charges of an aborted, rolled-back attempt
/// would stick to the digest and break the recovered-run == fault-free-run
/// identity.
class DigestRecorder final : public sim::MachineObserver {
 public:
  explicit DigestRecorder(sim::Machine& machine);
  ~DigestRecorder() override;

  DigestRecorder(const DigestRecorder&) = delete;
  DigestRecorder& operator=(const DigestRecorder&) = delete;

  /// Digest of everything observed so far plus the machine's current trace.
  TraceDigest digest() const;

  void on_charge(int rank, sim::Category cat, double us) override;
  void on_checkpoint() override;
  void on_rollback() override;

 private:
  using Charges = std::vector<std::array<double, sim::kNumCategories>>;

  sim::Machine& machine_;
  Charges charged_;
  /// Accumulators parked at the last on_checkpoint; restored on every
  /// on_rollback.
  std::optional<Charges> epoch_charged_;
};

/// Human-readable first-difference description; "" when the digests match.
std::string diff_digests(const TraceDigest& a, const TraceDigest& b);

struct DeterminismReport {
  bool deterministic = false;
  std::string diff;  ///< "" when deterministic
  TraceDigest first;
  TraceDigest second;
};

/// Replays `op` twice, each run on a fresh machine from `make_machine`, and
/// compares the two digests.
DeterminismReport check_determinism(
    const std::function<std::unique_ptr<sim::Machine>()>& make_machine,
    const std::function<void(sim::Machine&)>& op);

/// Convenience overload: fresh `nprocs`-processor machines built from
/// `options`.
DeterminismReport check_determinism(
    int nprocs, const sim::MachineOptions& options,
    const std::function<void(sim::Machine&)>& op);

}  // namespace pup::analysis
