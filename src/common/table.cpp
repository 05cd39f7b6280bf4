#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace gap {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  GAP_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  GAP_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      out += row[c];
      out += std::string(widths[c] - row[c].size(), ' ');
      out += " |";
    }
    out += '\n';
    return out;
  };

  std::string out = render_row(headers_);
  std::string rule = "|";
  for (std::size_t c = 0; c < headers_.size(); ++c)
    rule += std::string(widths[c] + 2, '-') + "|";
  out += rule + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_factor(double v, int digits) { return "x" + fmt(v, digits); }

std::string fmt_pct(double fraction, int digits) {
  return fmt(fraction * 100.0, digits) + "%";
}

std::string verdict(double measured, double lo, double hi) {
  GAP_EXPECTS(lo <= hi);
  if (measured >= lo && measured <= hi) return "PASS";
  const double nearer = measured < lo ? lo : hi;
  if (std::abs(measured - nearer) <= 0.20 * std::abs(nearer)) return "NEAR";
  return "FAIL";
}

}  // namespace gap
