#pragma once
/// \file table.hpp
/// Console table rendering for benchmark reports. Every experiment binary
/// prints a "paper claim vs measured" table; this keeps the formatting in
/// one place so all reports look alike.

#include <string>
#include <vector>

namespace gap {

/// A simple text table: set headers once, append rows, render aligned.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have the same arity as the headers.
  void add_row(std::vector<std::string> cells);

  /// Render with column alignment and a header rule.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `digits` decimal places.
[[nodiscard]] std::string fmt(double v, int digits = 2);

/// Format as a multiplier, e.g. "x1.50".
[[nodiscard]] std::string fmt_factor(double v, int digits = 2);

/// Format as a percentage, e.g. "25.0%".
[[nodiscard]] std::string fmt_pct(double fraction, int digits = 1);

/// Shape verdict for experiment reports: is `measured` within the
/// inclusive band [lo, hi]? Returns "PASS", "NEAR" (within 20% of the
/// nearer bound), or "FAIL".
[[nodiscard]] std::string verdict(double measured, double lo, double hi);

}  // namespace gap
