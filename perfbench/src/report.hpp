// The benchmark's metric manifest and its output: the host/build stamp, one
// human-readable line per metric, and the final JSON result line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (--trace 0), in this order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by every traced run (--trace 1), in this order.
const std::vector<MetricDef>& per_layer_metrics();

/// Host and build facts, one "# " comment line each.
void print_stamp(std::ostream& out, const Args& args);

/// Prints every metric of the sheet with its unit, then the JSON result
/// line holding the manifest's metrics for the run's mode.  Returns false
/// when the sheet lacks a manifest metric (a benchmark bug).
bool print_result(std::ostream& out, const Args& args, const Sheet& sheet);

}  // namespace perfbench
