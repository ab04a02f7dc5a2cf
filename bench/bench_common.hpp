// Shared workload/measurement helpers for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper as a text
// table.  Times are reported in milliseconds, split the way the paper
// reports them: local computation (real wall-clock of the busiest virtual
// processor), prefix-reduction-sum, many-to-many personalized communication,
// and preliminary redistribution (the latter three modeled by the two-level
// cost model, calibrated so the local/communication balance matches a
// CM-5-class machine; see sim::CostModel::calibrated_cm5()).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "support/table.hpp"

namespace pup::bench {

using Element = std::int64_t;  // 8-byte elements, like double-precision data

struct Workload {
  dist::Distribution dist;
  dist::DistArray<Element> array;
  dist::DistArray<mask_t> mask;
  std::int64_t n = 0;
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
                                     std::uint64_t seed) {
  if (!d.lt) return random_mask(shape.size(), d.value, seed);
  if (shape.rank() == 1) return lt_mask_1d(shape.extent(0));
  return lt_mask(shape);
}

inline Workload make_workload(std::vector<dist::index_t> extents,
                              std::vector<int> procs,
                              std::vector<dist::index_t> blocks, Density d,
                              std::uint64_t seed = 0x5eedULL) {
  Workload w;
  w.dist = dist::Distribution(dist::Shape(std::move(extents)),
                              dist::ProcessGrid(std::move(procs)),
                              std::move(blocks));
  w.n = w.dist.global().size();
  std::vector<Element> data(static_cast<std::size_t>(w.n));
  std::iota(data.begin(), data.end(), 0);
  w.array = dist::DistArray<Element>::scatter(w.dist, data);
  w.mask = dist::DistArray<mask_t>::scatter(
      w.dist, make_mask(w.dist.global(), d, seed));
  return w;
}

/// Per-run time breakdown in milliseconds (max over virtual processors per
/// category, like the paper's plots).
struct Times {
  double local_ms = 0;
  double prs_ms = 0;
  double m2m_ms = 0;
  double redist_ms = 0;
  double total_ms = 0;
};

inline Times snapshot(const sim::Machine& m) {
  Times t;
  t.local_ms = m.max_us(sim::Category::kLocal) / 1000.0;
  t.prs_ms = m.max_us(sim::Category::kPrs) / 1000.0;
  t.m2m_ms = m.max_us(sim::Category::kM2M) / 1000.0;
  t.redist_ms = m.max_us(sim::Category::kRedist) / 1000.0;
  t.total_ms = m.max_total_us() / 1000.0;
  return t;
}

/// Runs `op(machine)` `reps` times on fresh accounting and returns the
/// minimum-total-time run (minimum damps scheduler noise in the wall-clock
/// local component; the modeled parts are deterministic).
template <typename Op>
Times measure(sim::Machine& machine, Op&& op, int reps = 3) {
  Times best;
  best.total_ms = -1.0;
  for (int i = 0; i < reps; ++i) {
    machine.reset_accounting();
    op(machine);
    const Times t = snapshot(machine);
    if (best.total_ms < 0 || t.total_ms < best.total_ms) best = t;
  }
  return best;
}

/// Like measure(), but repeats until `min_wall_ms` of real time has been
/// sampled (up to `max_reps`) and returns the *average* run.  Use for
/// crossover comparisons where per-run noise would flip the sign.
template <typename Op>
Times measure_avg(sim::Machine& machine, Op&& op, double min_wall_ms = 2.0,
                  int max_reps = 400) {
  Times acc;
  int reps = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    machine.reset_accounting();
    op(machine);
    const Times t = snapshot(machine);
    acc.local_ms += t.local_ms;
    acc.prs_ms += t.prs_ms;
    acc.m2m_ms += t.m2m_ms;
    acc.redist_ms += t.redist_ms;
    acc.total_ms += t.total_ms;
    ++reps;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if ((reps >= 3 && wall_ms >= min_wall_ms) || reps >= max_reps) break;
  }
  acc.local_ms /= reps;
  acc.prs_ms /= reps;
  acc.m2m_ms /= reps;
  acc.redist_ms /= reps;
  acc.total_ms /= reps;
  return acc;
}

inline sim::Machine make_paper_machine(int p) {
  return sim::Machine(p, {.cost = sim::CostModel::calibrated_cm5()});
}

/// Block-size sweep 1, 2, 4, ..., local_extent (cyclic to block).
inline std::vector<dist::index_t> block_size_sweep(dist::index_t local_extent,
                                                   int max_points = 16) {
  std::vector<dist::index_t> ws;
  for (dist::index_t w = 1; w <= local_extent; w <<= 1) ws.push_back(w);
  if (ws.back() != local_extent) ws.push_back(local_extent);
  // Thin out the middle if the sweep is too long.
  while (static_cast<int>(ws.size()) > max_points) {
    std::vector<dist::index_t> thin;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (i == 0 || i + 1 == ws.size() || i % 2 == 1) thin.push_back(ws[i]);
    }
    ws = std::move(thin);
  }
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

}  // namespace pup::bench
