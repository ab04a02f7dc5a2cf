// Fixed-width text-table printer used by the benchmark harness.
//
// Every bench binary reproduces one table or figure of the paper as a plain
// text table (the paper's figures are line plots; we print the underlying
// series).  This helper keeps the formatting consistent across benches.
#pragma once

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace pup {

/// A simple column-aligned table with a title, a header row, and data rows.
/// Cells are strings; numeric helpers format with fixed precision.
class TextTable {
 public:
  explicit TextTable(std::string title) : title_(std::move(title)) {}

  /// Sets the header row (column names).
  void header(std::vector<std::string> names) { header_ = std::move(names); }

  /// Appends a data row; must match the header width if a header was set.
  void row(std::vector<std::string> cells) {
    PUP_REQUIRE(header_.empty() || cells.size() == header_.size(),
                "row width " << cells.size() << " != header width "
                             << header_.size());
    rows_.push_back(std::move(cells));
  }

  /// Formats a double with `precision` digits after the decimal point.
  static std::string num(double v, int precision = 3) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }
  static std::string num(long long v) { return std::to_string(v); }

  /// Renders the table to `os` with column alignment and a rule under the
  /// header.
  void print(std::ostream& os) const {
    std::vector<std::size_t> widths(header_.size());
    auto widen = [&](const std::vector<std::string>& cells) {
      if (cells.size() > widths.size()) widths.resize(cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i)
        widths[i] = std::max(widths[i], cells[i].size());
    };
    widen(header_);
    for (const auto& r : rows_) widen(r);

    os << "## " << title_ << '\n';
    auto emit = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        os << (i == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[i]))
           << cells[i];
      }
      os << '\n';
    };
    if (!header_.empty()) {
      emit(header_);
      std::size_t total = 0;
      for (std::size_t w : widths) total += w;
      os << std::string(total + 2 * (widths.empty() ? 0 : widths.size() - 1),
                        '-')
         << '\n';
    }
    for (const auto& r : rows_) emit(r);
    os << '\n';
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pup
