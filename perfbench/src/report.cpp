#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/kernels/kernels.hpp"
#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace perfbench {

// --- Sheet and helpers -------------------------------------------------------

void Sheet::set(const std::string& name, double value,
                const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Sheet::Metric* Sheet::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Sheet::expect(bool ok, bool oracle, const std::string& what) {
  if (ok) return;
  ++failed;
  if (oracle) ++mismatches;
  note("FAILED: " + what);
}

std::unique_ptr<pup::sim::Machine> make_machine(int nprocs) {
  return std::make_unique<pup::sim::Machine>(
      nprocs, pup::sim::CostModel::cm5(),
      pup::sim::Topology::crossbar(nprocs), pup::sim::ExecPolicy::sequential(),
      pup::backend::Kind::kSim);
}

Accounting& Accounting::operator+=(const Accounting& o) {
  modeled_us += o.modeled_us;
  prs_msgs += o.prs_msgs;
  prs_bytes += o.prs_bytes;
  m2m_msgs += o.m2m_msgs;
  m2m_bytes += o.m2m_bytes;
  self_bytes += o.self_bytes;
  return *this;
}

Accounting accounting(const pup::sim::Machine& m) {
  using pup::sim::Category;
  const auto& t = m.trace();
  return Accounting{m.modeled_total_us(),         t.messages_in(Category::kPrs),
                    t.bytes_in(Category::kPrs),   t.messages_in(Category::kM2M),
                    t.bytes_in(Category::kM2M),   t.self_bytes()};
}

void put_accounting(Sheet& sheet, const Accounting& total, double ops) {
  auto per_op = [ops](auto v) { return static_cast<double>(v) / ops; };
  sheet.set("modeled_comm_us", per_op(total.modeled_us), "us");
  sheet.set("coll.prs_msgs", per_op(total.prs_msgs), "count");
  sheet.set("coll.prs_bytes", per_op(total.prs_bytes), "B");
  sheet.set("coll.m2m_msgs", per_op(total.m2m_msgs), "count");
  sheet.set("coll.m2m_bytes", per_op(total.m2m_bytes), "B");
  sheet.set("coll.self_bytes", per_op(total.self_bytes), "B");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

OpTimes least_disturbed(const OpTimes& t) {
  const std::size_t n = t.size();
  if (n < kSlices) return t;
  auto bound = [n](std::size_t j) { return j * n / kSlices; };
  std::vector<std::pair<double, std::size_t>> by_median;
  for (std::size_t j = 0; j < kSlices; ++j) {
    by_median.emplace_back(
        median(std::vector<double>(
            t.op_us.begin() + static_cast<std::ptrdiff_t>(bound(j)),
            t.op_us.begin() + static_cast<std::ptrdiff_t>(bound(j + 1)))),
        j);
  }
  std::sort(by_median.begin(), by_median.end());
  OpTimes kept;
  for (std::size_t r = 0; r < kKeptSlices; ++r) {
    const std::size_t j = by_median[r].second;
    for (std::size_t i = bound(j); i < bound(j + 1); ++i) {
      kept.add(t.op_us[i], t.wall_us[i]);
    }
  }
  return kept;
}

void put_latency(Sheet& sheet, const OpTimes& t) {
  const OpTimes kept = least_disturbed(t);
  std::vector<double> sorted = kept.op_us;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  sheet.set("op_us.p50", median(sorted), "us");
  // Nearest-rank p99; the samples above it are its support.
  const std::size_t idx =
      n == 0 ? 0
             : static_cast<std::size_t>(
                   std::ceil(0.99 * static_cast<double>(n))) - 1;
  const std::size_t beyond = n == 0 ? 0 : n - idx - 1;
  sheet.set("op_us.p99", n == 0 ? 0.0 : sorted[idx], "us");
  sheet.note("op_us from the " + std::to_string(n) + " ops of the " +
             std::to_string(kKeptSlices) + " least-disturbed of " +
             std::to_string(kSlices) + " slices; " + std::to_string(t.size()) +
             " timed in all, op_us.p50 over all " +
             std::to_string(median(t.op_us)) + " us");
  sheet.note("op_us.p99 from " + std::to_string(n) + " samples, " +
             std::to_string(beyond) + " beyond it" +
             (beyond < 10 ? " (fewer than 10: only an upper tail estimate)"
                          : ""));
  double wall_us = 0.0;
  for (const double w : kept.wall_us) wall_us += w;
  sheet.set("ops_per_s",
            wall_us > 0.0 ? static_cast<double>(n) / (wall_us * 1e-6) : 0.0,
            "1/s");
}

void put_process_metrics(Sheet& sheet, const std::vector<double>& setup_s) {
  sheet.set("setup_s", median(setup_s), "s");
  std::string runs;
  for (const double s : setup_s) runs += " " + std::to_string(s);
  sheet.note("setup_s median of " + std::to_string(setup_s.size()) +
             " set-ups:" + runs);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  sheet.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  const double failed_frac =
      sheet.attempted > 0 ? static_cast<double>(sheet.failed) /
                                static_cast<double>(sheet.attempted)
                          : 1.0;
  sheet.set("failed_frac", failed_frac, "frac");
  sheet.set("ok_frac", 1.0 - failed_frac, "frac");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + (k + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::int64_t> random_elems(std::int64_t n, std::uint64_t seed) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  pup::Xoshiro256 rng(seed);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next() >> 1);
  return v;
}

double bytes_computed(bool pack, std::int64_t n, std::int64_t e) {
  const double N = static_cast<double>(n);
  const double E = static_cast<double>(e);
  return pack ? 2.0 * N + 32.0 * E : 19.0 * N + 40.0 * E;
}

// --- manifest ----------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"op_us.p50", "us"},       {"op_us.p99", "us"},
      {"ops_per_s", "1/s"},      {"modeled_comm_us", "us"},
      {"ok_frac", "frac"},       {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.pack.compose_us", "us"},
      {"core.pack.decompose_us", "us"},
      {"core.kernels.ns_per_elem", "ns"},
      {"core.kernels.bytes_computed", "B"},
      {"core.ranking.us", "us"},
      {"core.ranking.initial_us", "us"},
      {"core.ranking.final_us", "us"},
      {"coll.prs_us", "us"},
      {"coll.prs_msgs", "count"},
      {"coll.prs_bytes", "B"},
      {"core.unpack.requests_us", "us"},
      {"core.unpack.replies_us", "us"},
      {"core.unpack.place_us", "us"},
      {"coll.m2m_us", "us"},
      {"coll.m2m_msgs", "count"},
      {"coll.m2m_bytes", "B"},
      {"coll.self_bytes", "B"},
      {"sim.local_phase_us", "us"},
      {"sim.serial_us", "us"},
      {"sim.local_phases", "count"},
      {"plan.compile_us", "us"},
      {"plan.lookup_us", "us"},
      {"plan.cache_hit_rate", "frac"},
      {"dist.scatter_us", "us"},
      {"dist.gather_us", "us"},
      {"service.queue_us.p50", "us"},
      {"service.exec_us.p50", "us"},
      {"service.direct_us", "us"},
      {"service.batch_size.mean", "count"},
      {"service.fusion_rate", "frac"},
      {"trace.overhead_us", "us"},
  };
  return defs;
}

// --- output ------------------------------------------------------------------

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000U, nullptr);
  if (max_ext >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

long llc_kib() {
  long bytes = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return bytes > 0 ? bytes / 1024 : -1;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void print_stamp(std::ostream& out, const Args& args) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  const char* git = std::getenv("PERFBENCH_GIT_COMMIT");
  out << "# workload=" << args.workload << " seed=" << args.seed
      << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
      << "\n";
  out << "# host nproc=" << std::thread::hardware_concurrency()
      << " cpu=\"" << cpu_model() << "\" llc_kib=" << llc_kib() << "\n";
  out << "# build compiler=\"" << __VERSION__ << "\" build_type="
      << PERFBENCH_BUILD_TYPE << " ndebug=" << (ndebug ? "yes" : "no")
      << " kernels=" << pup::kernels::path_name(pup::kernels::active_path())
      << " git=" << (git != nullptr && *git != '\0' ? git : "unknown")
      << "\n";
  out << "# machine cost=cm5(tau=" << pup::sim::CostModel::cm5().tau_us
      << "us,mu=" << pup::sim::CostModel::cm5().mu_us_per_byte
      << "us/B) backend=sim\n";
  if (!ndebug) {
    out << "# WARNING: built without NDEBUG -- debug checks run and the "
           "service verifies every plan on dispatch; do not compare these "
           "times with an optimized build\n";
  }
}

bool print_result(std::ostream& out, const Args& args, const Sheet& sheet) {
  for (const std::string& n : sheet.notes()) out << "# " << n << "\n";
  for (const auto& m : sheet.metrics()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %-24.17g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << line;
  }
  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": ";
  json += sheet.failed == 0 && sheet.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(sheet.attempted);
  json += ", \"failed\": " + std::to_string(sheet.failed);
  json += ", \"metrics\": {";
  bool complete = true;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const Sheet::Metric* m = sheet.find(defs[i].name);
    if (m == nullptr) {
      out << "# missing metric " << defs[i].name << "\n";
      complete = false;
      continue;
    }
    if (i > 0) json += ", ";
    json += "\"" + m->name + "\": {\"value\": " + number(m->value) +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  if (!complete) return false;
  out << json << std::endl;
  return true;
}

}  // namespace perfbench
