// Shared vocabulary of the pup benchmark driver: command-line arguments,
// the metric sheet a workload fills, timing and percentile helpers, and the
// one fixed machine configuration every workload runs on.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one oracle entry so the gate must fire.
  bool corrupt_oracle = false;
  /// When the process entered main(); the first set-up is timed from here.
  Clock::time_point process_start;
};

/// Everything one run measured.  Metrics keep insertion order; a name set
/// twice keeps its last value.
class Sheet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Free-form lines printed before the metrics (sample counts, probes).
  void note(std::string line) { notes_.push_back(std::move(line)); }
  const std::vector<std::string>& notes() const { return notes_; }

  /// Counts a failed check and notes why; `oracle` marks a mismatch
  /// against the serial oracle.
  void expect(bool ok, bool oracle, const std::string& what);

  /// Operations attempted, and those that failed: exceptions, oracle
  /// mismatches, non-ok service responses, and modeled accounting that
  /// differs between two executions of the same input.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Oracle mismatches alone (a subset of `failed`); any makes the run
  /// exit nonzero.
  std::int64_t mismatches = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// The fixed machine configuration: the paper's raw CM-5 constants (never
/// the host-calibrated preset, whose value changes per process), sequential
/// local phases, and the simulator backend.
std::unique_ptr<pup::sim::Machine> make_machine(int nprocs);

/// Set-ups per run; setup_s is their median.  The first is timed from
/// process start.
constexpr int kSetups = 7;

/// A machine's modeled time and message/byte counts since its last
/// accounting reset.
struct Accounting {
  double modeled_us = 0.0;
  std::int64_t prs_msgs = 0, prs_bytes = 0;
  std::int64_t m2m_msgs = 0, m2m_bytes = 0, self_bytes = 0;
  friend bool operator==(const Accounting&, const Accounting&) = default;
  Accounting& operator+=(const Accounting& o);
};

Accounting accounting(const pup::sim::Machine& m);

/// Sets modeled_comm_us and the coll.* counts: `total` per op.
void put_accounting(Sheet& sheet, const Accounting& total, double ops);

double median(std::vector<double> v);

/// Median wall time of `reps` calls body(i), i = 0..reps-1.
template <typename F>
double median_time_us(std::size_t reps, F&& body) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    body(i);
    v.push_back(us_between(t0, Clock::now()));
  }
  return median(std::move(v));
}

/// The ops of one timed loop in the order they completed: each op's wall
/// time, and its share of the loop's measured wall time (the span since the
/// previous op ended, oracle checks excluded), so the shares of a loop sum
/// to its measured wall time.
struct OpTimes {
  std::vector<double> op_us;
  std::vector<double> wall_us;
  void add(double op, double wall) {
    op_us.push_back(op);
    wall_us.push_back(wall);
  }
  std::size_t size() const { return op_us.size(); }
};

/// The shared host slows down for seconds to minutes at a time, by up to
/// 40%.  The timed metrics therefore come from the least-disturbed part of
/// the loop: its ops cut into kSlices consecutive slices of equal count, of
/// which the kKeptSlices with the lowest median op time are pooled.  A
/// slowdown that covers less than two thirds of the run leaves them as they
/// are; a change to the code moves every slice alike.
constexpr std::size_t kSlices = 12;
constexpr std::size_t kKeptSlices = 4;
/// Ops an untraced loop runs at least, so the kept part holds 1000 and its
/// p99 has 10 samples beyond it.
constexpr std::size_t kMinSamples = 1000 * kSlices / kKeptSlices;

/// The kKeptSlices slices of `t` with the lowest median, pooled; all of `t`
/// when it has fewer than kSlices ops.
OpTimes least_disturbed(const OpTimes& t);

/// Sets op_us.p50, op_us.p99 and ops_per_s from the least-disturbed part of
/// `t`, noting the sample counts and the tail size.
void put_latency(Sheet& sheet, const OpTimes& t);

/// Sets setup_s (median of the repeated set-ups), peak_rss_mb, and
/// ok_frac / failed_frac from the sheet's counters.
void put_process_metrics(Sheet& sheet, const std::vector<double>& setup_s);

/// Seeds derived from the run seed: stream `k` of seed `s`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(const void* data, std::size_t n, std::uint64_t h);

/// n seeded non-negative int64 values.
std::vector<std::int64_t> random_elems(std::int64_t n, std::uint64_t seed);

/// Bytes the local kernels touch in one PACK (CMS) or UNPACK (CSS) of N
/// int64 elements with E selected -- computed from the sizes, not
/// measured.  PACK: ranking scan N + compose scan N + E values read,
/// written to the payload, and read and written by the decode (2N + 32E).
/// UNPACK: ranking scan N + request scan N and E ranks written + E ranks
/// read, E values read and written for the replies + field, mask, E values
/// and the result in the place phase (19N + 40E).
double bytes_computed(bool pack, std::int64_t n, std::int64_t e);

// --- workloads (direct.cpp, service_mix.cpp) --------------------------------

/// fig4_pack and cyclic2d_unpack.
void run_direct(const Args& args, Sheet& sheet);
std::uint64_t direct_inputs_digest(const std::string& workload,
                                   std::uint64_t seed);

void run_service_mix(const Args& args, Sheet& sheet);
std::uint64_t service_inputs_digest(std::uint64_t seed);

}  // namespace perfbench
