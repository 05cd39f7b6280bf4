#include "common/cli.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.hpp"
#include "common/source_reader.hpp"

namespace gap::common::cli {
namespace {

/// Usage layout: help text starts at this column and wraps at the width.
constexpr std::size_t kHelpColumn = 26;
constexpr std::size_t kWidth = 79;

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string s;
  for (const std::string& item : items) {
    if (!s.empty()) s += sep;
    s += item;
  }
  return s;
}

/// What a value of `f` must look like, for its rejection message.
std::string expected(const Flag& f) {
  if (f.kind == Kind::kChoice) return "one of " + join(f.choices, ", ");
  const std::string what =
      f.kind == Kind::kInteger ? "an integer" : "a finite number";
  const Range& r = f.range;
  if (std::isfinite(r.lo) && std::isfinite(r.hi))
    return what + " in [" + json::number(r.lo) + ", " + json::number(r.hi) +
           "]";
  return std::isfinite(r.lo) ? what + " >= " + json::number(r.lo) : what;
}

/// Check `text` against `f` and store it; false if it does not fit.
bool store(const Flag& f, std::string_view text) {
  std::optional<double> v = 0.0;
  if (f.kind == Kind::kInteger || f.kind == Kind::kReal)
    v = read_number(text, f.kind == Kind::kInteger).value;
  if (f.kind == Kind::kChoice) {
    const auto it = std::find(f.choices.begin(), f.choices.end(), text);
    if (it == f.choices.end()) return false;
    v = static_cast<double>(it - f.choices.begin());
  }
  if (!v || *v < f.range.lo || *v > f.range.hi) return false;
  f.store(text, *v);
  return true;
}

/// Append `help` to `out`, which is at kHelpColumn, wrapped at kWidth
/// with continuation lines indented to kHelpColumn.
void wrap(std::string& out, const std::string& help) {
  std::istringstream words(help);
  std::size_t col = kHelpColumn;
  for (std::string word; words >> word;) {
    if (col > kHelpColumn && col + 1 + word.size() > kWidth) {
      out += '\n' + std::string(kHelpColumn, ' ');
      col = kHelpColumn;
    } else if (col > kHelpColumn) {
      out += ' ';
      ++col;
    }
    out += word;
    col += word.size();
  }
  out += '\n';
}

}  // namespace

Flag switch_flag(std::string name, bool& dst, std::string help, bool set_to) {
  return {std::move(name), Kind::kSwitch, {}, std::move(help), {}, {},
          [&dst, set_to](std::string_view, double) { dst = set_to; }};
}

Flag help_flag(bool& dst) { return switch_flag("--help", dst, "this text"); }

Status parse(std::span<const std::string> args, std::span<const Flag> table,
             std::vector<std::string>* operands, std::size_t max_operands) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (operands == nullptr || operands->size() >= max_operands)
        return Status::error(ErrorCode::kUsage,
                             "unexpected operand '" + arg + "'");
      operands->push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    if (name == "-h") name = "--help";
    const Flag* flag = nullptr;
    for (const Flag& f : table)
      if (f.name == name) flag = &f;
    if (flag == nullptr)
      return Status::error(ErrorCode::kUsage, "unknown flag '" + name + "'");

    std::string_view text;
    if (eq != std::string::npos) {
      if (flag->kind == Kind::kSwitch)
        return Status::error(ErrorCode::kInvalidValue,
                             name + " takes no value");
      text = std::string_view(arg).substr(eq + 1);
    } else if (flag->kind != Kind::kSwitch) {
      if (i + 1 == args.size())
        return Status::error(ErrorCode::kMissingValue,
                             "missing value for " + name);
      text = args[++i];
    }
    if (!store(*flag, text))
      return Status::error(ErrorCode::kInvalidValue,
                           "bad " + name + " value '" + std::string(text) +
                               "' (needs " + expected(*flag) + ")");
  }
  return Status();
}

std::string usage(std::string_view synopsis,
                  std::initializer_list<Section> sections,
                  std::string_view epilogue) {
  std::string out(synopsis);
  std::vector<std::string_view> listed;
  for (const Section& section : sections) {
    std::string block;
    for (const Flag& f : section.flags) {
      if (std::find(listed.begin(), listed.end(), f.name) != listed.end())
        continue;
      listed.push_back(f.name);
      std::string left = f.name == "--help" ? "  -h, --help" : "  " + f.name;
      if (f.kind == Kind::kChoice) left += " " + join(f.choices, "|");
      else if (f.kind != Kind::kSwitch) left += " " + f.metavar;
      const bool own_line = left.size() + 2 > kHelpColumn;
      block += left + (own_line ? "\n" : "");
      block.append(own_line ? kHelpColumn : kHelpColumn - left.size(), ' ');
      wrap(block, f.help);
    }
    if (!block.empty())
      out += "\n" + std::string(section.heading) + "\n" + block;
  }
  if (!epilogue.empty()) out += "\n" + std::string(epilogue);
  return out;
}

}  // namespace gap::common::cli
