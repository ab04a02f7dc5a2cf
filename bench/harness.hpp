// The measurement harness of the paper-reproduction benches, and the
// workloads they share.
//
// Two clocks.  *Modeled* time is the paper's metric: tau + mu * m per
// message, charged by the machine from its cost model.  *Real* time is
// what the host spent in local computation.  Every bench machine runs on
// plain sim::CostModel::cm5(), so each modeled number is exact and the same
// in every process.
//
// A 2026 core runs the local kernels far faster than a 33 MHz CM-5 node,
// so raw CM-5 communication would swamp the local work the paper
// measures.  The tables therefore scale communication at render time by
// s = (host us per mask-scan op) / (0.3 us, the assumed CM-5 node cost),
// measured once per process here and nowhere else.  Every modeled charge
// is linear in (tau, mu), and in the per-hop term of a non-crossbar
// topology, so s * modeled is exactly what a machine running on
// (s * tau, s * mu) would charge.  A rendered comm column is real compute
// inside the collective plus s * its modeled charge; a rendered total is
// the max over ranks of real + s * modeled.  The tables print s in their
// titles.
//
// Harness::run warms every case up once, then repeats the cases,
// interleaved, until a minimum real time has passed (one rep with
// --smoke).  It fails the process when a case's modeled charges, message
// count or bytes differ between two reps.  Output: text tables on stdout
// and, with --json PATH, one JSON document.  Its "modeled" section holds
// the exact per-case modeled charges; its "real" section holds rep counts,
// p10/p50/p90 of the busiest rank's real time and of each rep's wall
// clock, minor page faults per rep, and the rendered (scaled) columns.
//
//   <bench> [--smoke] [--json PATH]
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "support/rng.hpp"
#include "table.hpp"

namespace pup::bench {

// --- workloads ------------------------------------------------------------

using Element = std::int64_t;  // 8-byte elements, like double-precision data

struct Workload {
  dist::Distribution dist;
  dist::DistArray<Element> array;
  dist::DistArray<mask_t> mask;
};

/// Density identifiers: fractions 0.1..0.9 plus the deterministic LT mask.
struct Density {
  double value = 0.5;  // ignored when lt == true
  bool lt = false;

  std::string label() const {
    if (lt) return "LT";
    return std::to_string(static_cast<int>(value * 100 + 0.5)) + "%";
  }
};

inline std::vector<mask_t> make_mask(const dist::Shape& shape, Density d,
                                     std::uint64_t seed = 0x5eedULL) {
  if (!d.lt) return random_mask(shape.size(), d.value, seed);
  if (shape.rank() == 1) return lt_mask_1d(shape.extent(0));
  return lt_mask(shape);
}

inline Workload make_workload(std::vector<dist::index_t> extents,
                              std::vector<int> procs,
                              std::vector<dist::index_t> blocks, Density d) {
  Workload w;
  w.dist = dist::Distribution(dist::Shape(std::move(extents)),
                              dist::ProcessGrid(std::move(procs)),
                              std::move(blocks));
  std::vector<Element> data(static_cast<std::size_t>(w.dist.global().size()));
  std::iota(data.begin(), data.end(), 0);
  w.array = dist::DistArray<Element>::scatter(w.dist, data);
  w.mask = dist::DistArray<mask_t>::scatter(w.dist,
                                            make_mask(w.dist.global(), d));
  return w;
}

inline int product(const std::vector<int>& procs) {
  return std::accumulate(procs.begin(), procs.end(), 1, std::multiplies<>());
}

/// Block sizes 1, 2, 4, ... up to the dimension-0 local extent (cyclic to
/// block) that divide every dimension's local extent, thinned out in the
/// middle to at most `max_points`.
inline std::vector<dist::index_t> block_sweep(
    const std::vector<dist::index_t>& extents, const std::vector<int>& procs,
    int max_points = 8) {
  const dist::index_t local0 = extents[0] / procs[0];
  std::vector<dist::index_t> ws;
  for (dist::index_t w = 1; w <= local0; w <<= 1) ws.push_back(w);
  if (ws.back() != local0) ws.push_back(local0);
  while (static_cast<int>(ws.size()) > max_points) {
    std::vector<dist::index_t> thin;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (i == 0 || i + 1 == ws.size() || i % 2 == 1) thin.push_back(ws[i]);
    }
    ws = std::move(thin);
  }
  std::erase_if(ws, [&](dist::index_t w) {
    for (std::size_t k = 0; k < extents.size(); ++k) {
      if (extents[k] / procs[k] % w != 0) return true;
    }
    return false;
  });
  return ws;
}

inline const std::vector<Density>& paper_densities() {
  static const std::vector<Density> ds = {
      {0.1, false}, {0.3, false}, {0.5, false},
      {0.7, false}, {0.9, false}, {0.0, true}};
  return ds;
}

inline std::string scheme_label(PackScheme s) {
  switch (s) {
    case PackScheme::kSimpleStorage:
      return "SSS";
    case PackScheme::kCompactStorage:
      return "CSS";
    case PackScheme::kCompactMessage:
      return "CMS";
    case PackScheme::kAuto:
      return "AUTO";
  }
  return "?";
}

// --- measurement ----------------------------------------------------------

/// Host microseconds per element of a mask scan with a data-dependent
/// branch, deliberately similar to the ranking's initial-scan kernel: the
/// fastest of nine passes, which damps the host's noise.
inline double host_scan_op_us() {
  constexpr std::size_t kElems = 1 << 20;
  std::vector<std::uint8_t> mask(kElems);
  Xoshiro256 rng(0x9e3779b97f4a7c15ULL);
  for (auto& m : mask) m = static_cast<std::uint8_t>(rng.next() & 1);
  // Re-reading the pointer each pass keeps the compiler from reusing one
  // pass's count for the next.
  const std::uint8_t* volatile data = mask.data();
  volatile std::int64_t sink = 0;
  double best_us = 0;
  for (int pass = 0; pass < 9; ++pass) {
    const std::uint8_t* m = data;
    const auto t0 = std::chrono::steady_clock::now();
    std::int64_t count = 0;
    for (std::size_t i = 0; i < kElems; ++i) {
      if (m[i]) ++count;
    }
    sink = count;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (pass == 0 || us < best_us) best_us = us;
  }
  (void)sink;
  return best_us / static_cast<double>(kElems);
}

/// Assumed per-element local scan cost of a CM-5 node (33 MHz SPARC, a
/// few instructions plus a memory touch per element).
inline constexpr double kCm5LocalOpUs = 0.3;

/// A rendered column: one time category, or the total.
enum class Col { kLocal, kPrs, kM2M, kRedist, kTotal };

/// The exact modeled side of one rep.
struct Modeled {
  /// Per rank, per category: modeled charges only (no wall clock).
  std::vector<std::array<double, sim::kNumCategories>> by_rank;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t self_bytes = 0;

  friend bool operator==(const Modeled&, const Modeled&) = default;

  double max_us(sim::Category c) const {
    double m = 0;
    for (const auto& r : by_rank) m = std::max(m, r[static_cast<int>(c)]);
    return m;
  }
  double max_total_us() const {
    double m = 0;
    for (const auto& r : by_rank) {
      m = std::max(m, std::accumulate(r.begin(), r.end(), 0.0));
    }
    return m;
  }
};

/// The real side of one rep.
struct Sample {
  double real_us = 0;  ///< busiest rank's real (non-modeled) time
  double wall_us = 0;  ///< the op, end to end
  double minflt = 0;   ///< minor page faults of the process during the op
  std::array<double, 5> rendered_ms{};  ///< by Col, comm scaled by s
};

struct Percentiles {
  double p10 = 0, p50 = 0, p90 = 0;
};

inline Percentiles percentiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  return {at(0.10), at(0.50), at(0.90)};
}

struct Result {
  std::string name;
  Modeled modeled;
  std::vector<Sample> samples;

  template <typename F>
  Percentiles stat(F field) const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(field(s));
    return percentiles(std::move(v));
  }
  Percentiles real_us() const {
    return stat([](const Sample& s) { return s.real_us; });
  }
  Percentiles wall_us() const {
    return stat([](const Sample& s) { return s.wall_us; });
  }
  double minflt() const {
    return stat([](const Sample& s) { return s.minflt; }).p50;
  }
  /// Median over reps of a rendered column, in milliseconds.
  double ms(Col c) const {
    return stat([c](const Sample& s) {
             return s.rendered_ms[static_cast<int>(c)];
           }).p50;
  }
};

/// The paper's implementation sends every PRS base rank as int64 and picks
/// the PRS algorithm by its size rule, so the paper-figure benches pin both
/// (the k64 wire, and kPaperRule in place of the default kAuto; a case
/// that names a concrete algorithm keeps it): their modeled numbers stay
/// comparable with the paper's tables (EXPERIMENTS.md).
template <typename Options>
Options paper_options(Options opt) {
  opt.wire_width = coll::WireWidth::k64;
  if (opt.prs == coll::PrsAlgorithm::kAuto) {
    opt.prs = coll::PrsAlgorithm::kPaperRule;
  }
  return opt;
}

/// One measured case: `op` runs one operation on `machine`.
struct Case {
  std::string name;
  sim::Machine* machine;
  std::function<void()> op;
};

/// A case running one PACK of `wl` on `m` with `opt`, on the paper's
/// int64 PRS wire and PRS rule.
inline Case pack_case(std::string name, sim::Machine& m, const Workload& wl,
                      PackOptions opt) {
  opt = paper_options(opt);
  return {std::move(name), &m,
          [&m, &wl, opt] { (void)pack(m, wl.array, wl.mask, opt); }};
}

class Harness {
 public:
  Harness(int argc, char** argv, std::string bench, double min_ms = 200.0)
      : bench_(std::move(bench)), min_ms_(min_ms) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        smoke_ = true;
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path_ = argv[++i];
      } else {
        std::cerr << "usage: " << bench_
                  << " [--smoke] [--json PATH]\n";
        std::exit(2);
      }
    }
    host_op_us_ = host_scan_op_us();
    s_ = host_op_us_ / kCm5LocalOpUs;
  }

  /// A table whose title carries s.
  TextTable table(const std::string& title) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  [comm x s, s = %.4g]", s_);
    return TextTable(title + buf);
  }

  /// Measures `cases`, interleaved rep by rep; results in case order.
  std::vector<Result> run(const std::vector<Case>& cases) {
    std::vector<Result> out(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      out[i].name = cases[i].name;
      if (!names_.insert(cases[i].name).second) {
        fail("duplicate case name '" + cases[i].name + "'");
      }
      out[i].modeled = rep(cases[i]).first;  // warm-up
    }
    const auto start = std::chrono::steady_clock::now();
    for (int reps = 0;; ++reps) {
      const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
      if (smoke_ ? reps >= 1 : (reps >= 5 && elapsed_ms >= min_ms_)) break;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        auto [modeled, sample] = rep(cases[i]);
        if (!(modeled == out[i].modeled)) {
          fail("modeled charges of '" + cases[i].name +
               "' changed between reps");
        }
        out[i].samples.push_back(sample);
      }
    }
    results_.insert(results_.end(), out.begin(), out.end());
    return out;
  }

  Result run(const std::string& name, sim::Machine& machine,
             std::function<void()> op) {
    return run({Case{name, &machine, std::move(op)}})[0];
  }

  /// Writes the JSON document (with --json) and returns the exit code.
  int finish() const {
    if (json_path_.empty()) return 0;
    std::ofstream os(json_path_);
    os << "{\n  \"bench\": \"" << bench_ << "\",\n  \"smoke\": "
       << (smoke_ ? "true" : "false") << ",\n  \"host\": {\"op_us\": "
       << num(host_op_us_) << ", \"s\": " << num(s_)
       << "},\n  \"modeled\": {";
    const char* sep = "\n";
    for (const Result& r : results_) {
      const Modeled& m = r.modeled;
      os << sep << "    \"" << r.name << "\": {\"prs_us\": "
         << num(m.max_us(sim::Category::kPrs))
         << ", \"m2m_us\": " << num(m.max_us(sim::Category::kM2M))
         << ", \"redist_us\": " << num(m.max_us(sim::Category::kRedist))
         << ", \"total_us\": " << num(m.max_total_us())
         << ", \"msgs\": " << m.msgs << ", \"bytes\": " << m.bytes
         << ", \"self_bytes\": " << m.self_bytes << "}";
      sep = ",\n";
    }
    os << "\n  },\n  \"real\": {";
    sep = "\n";
    for (const Result& r : results_) {
      os << sep << "    \"" << r.name << "\": {\"reps\": " << r.samples.size()
         << ", \"real_us\": " << json(r.real_us())
         << ", \"wall_us\": " << json(r.wall_us())
         << ", \"minflt\": " << num(r.minflt()) << ", \"rendered_ms\": {";
      const char* cols[] = {"local", "prs", "m2m", "redist", "total"};
      for (int c = 0; c < 5; ++c) {
        os << (c ? ", " : "") << "\"" << cols[c]
           << "\": " << num(r.ms(static_cast<Col>(c)));
      }
      os << "}}";
      sep = ",\n";
    }
    os << "\n  }\n}\n";
    return os ? 0 : 1;
  }

 private:
  /// Collects the modeled charges per rank and category.
  class ChargeRecorder final : public sim::MachineObserver {
   public:
    explicit ChargeRecorder(int nprocs)
        : by_rank(static_cast<std::size_t>(nprocs)) {}
    void on_charge(int rank, sim::Category cat, double us) override {
      by_rank[static_cast<std::size_t>(rank)][static_cast<int>(cat)] += us;
    }
    std::vector<std::array<double, sim::kNumCategories>> by_rank;
  };

  static long minflt_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
  }

  std::pair<Modeled, Sample> rep(const Case& c) const {
    sim::Machine& m = *c.machine;
    m.reset_accounting();
    ChargeRecorder rec(m.nprocs());
    m.add_observer(&rec);
    const long flt0 = minflt_now();
    const auto t0 = std::chrono::steady_clock::now();
    c.op();
    const auto t1 = std::chrono::steady_clock::now();
    const long flt1 = minflt_now();
    m.remove_observer(&rec);

    Modeled mod{std::move(rec.by_rank), m.trace().messages(),
                m.trace().bytes(), m.trace().self_bytes()};
    Sample s;
    s.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    s.minflt = static_cast<double>(flt1 - flt0);
    for (int r = 0; r < m.nprocs(); ++r) {
      const auto& charged = mod.by_rank[static_cast<std::size_t>(r)];
      double real = 0, total = 0;
      for (int k = 0; k < sim::kNumCategories; ++k) {
        const double real_k = m.times(r).us[k] - charged[k];
        const double shown = real_k + s_ * charged[k];
        s.rendered_ms[k] = std::max(s.rendered_ms[k], shown / 1000.0);
        real += real_k;
        total += shown;
      }
      s.real_us = std::max(s.real_us, real);
      s.rendered_ms[static_cast<int>(Col::kTotal)] =
          std::max(s.rendered_ms[static_cast<int>(Col::kTotal)],
                   total / 1000.0);
    }
    return {std::move(mod), s};
  }

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string json(const Percentiles& p) {
    return "{\"p10\": " + num(p.p10) + ", \"p50\": " + num(p.p50) +
           ", \"p90\": " + num(p.p90) + "}";
  }

  [[noreturn]] void fail(const std::string& what) const {
    std::cerr << bench_ << ": " << what << "\n";
    std::exit(1);
  }

  std::string bench_;
  double min_ms_;
  bool smoke_ = false;
  std::string json_path_;
  double host_op_us_ = 0;
  double s_ = 1;
  std::set<std::string> names_;
  std::vector<Result> results_;
};

}  // namespace pup::bench
