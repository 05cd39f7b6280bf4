#pragma once
/// \file cli.hpp
/// One command-line syntax for every gap tool: a flag table, one parser
/// over it, and usage text generated from the same table.
///
/// The rule: `--flag VALUE` or `--flag=VALUE` (a switch takes no value);
/// `-h` is `--help`; other tokens starting with '-' (but "-") are flags,
/// the rest operands; a repeated flag keeps its last value. Numbers
/// follow the one rule of common::read_number (source_reader.hpp).
/// parse() never throws: a bad line is a Status coded kUsage (unknown
/// flag, extra operand), kMissingValue or kInvalidValue (malformed, out of
/// range, not a choice); each tool maps the code to its exit number.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gap::common::cli {

/// Exit numbers every tool shares; each tool defines its own others next
/// to its entry point (docs/diagnostics.md).
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;  ///< malformed command line
inline constexpr int kExitIo = 5;     ///< a file unreadable or unwritable

enum class Kind : std::uint8_t { kSwitch, kString, kInteger, kReal, kChoice };

/// Inclusive bounds of an integer or real flag; infinite means unbounded.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// One table entry, built by the *_flag functions below; the destination
/// it binds must outlive parse().
struct Flag {
  std::string name;  ///< "--design"
  Kind kind = Kind::kSwitch;
  std::string metavar;               ///< value placeholder in the usage
  std::string help;                  ///< one line; usage() wraps it
  Range range;                       ///< kInteger, kReal
  std::vector<std::string> choices;  ///< kChoice spellings
  /// Stores a checked value: the token, plus the number (kInteger,
  /// kReal) or the index into `choices` (kChoice).
  std::function<void(std::string_view, double)> store;
};

[[nodiscard]] Flag switch_flag(std::string name, bool& dst, std::string help,
                               bool set_to = true);

/// `--help` and `-h`, described as "this text".
[[nodiscard]] Flag help_flag(bool& dst);

/// `T` is std::string or std::optional<std::string>.
template <typename T>
[[nodiscard]] Flag string_flag(std::string name, T& dst, std::string metavar,
                               std::string help) {
  return {std::move(name), Kind::kString, std::move(metavar), std::move(help),
          {}, {}, [&dst](std::string_view s, double) { dst = std::string(s); }};
}

template <typename T> struct Unwrap { using type = T; };
template <typename T> struct Unwrap<std::optional<T>> { using type = T; };

/// `T` is an integer or floating type, or a std::optional of one, and
/// decides the kind (kInteger or kReal); `range` must fit it.
template <typename T>
[[nodiscard]] Flag number_flag(std::string name, T& dst, std::string metavar,
                               Range range, std::string help) {
  using V = typename Unwrap<T>::type;
  if constexpr (std::is_integral_v<V>)
    GAP_EXPECTS(range.lo >= double(std::numeric_limits<V>::lowest()) &&
                range.hi <= double(std::numeric_limits<V>::max()));
  return {std::move(name), std::is_integral_v<V> ? Kind::kInteger : Kind::kReal,
          std::move(metavar), std::move(help), range, {},
          [&dst](std::string_view, double v) { dst = static_cast<V>(v); }};
}

/// One of a fixed list of spellings; the usage shows the list itself.
template <typename T>
[[nodiscard]] Flag choice_flag(std::string name, T& dst,
                               std::vector<std::pair<std::string, T>> options,
                               std::string help) {
  Flag f{std::move(name), Kind::kChoice, {}, std::move(help), {}, {}, {}};
  for (const auto& option : options) f.choices.push_back(option.first);
  f.store = [&dst, options = std::move(options)](std::string_view, double i) {
    dst = options[static_cast<std::size_t>(i)].second;
  };
  return f;
}

/// Parse `args` (no program name, no subcommand) against `table`, storing
/// each flag as it is read. Operands go to `operands`; more than
/// `max_operands`, or any at all when it is null, is kUsage.
[[nodiscard]] Status parse(std::span<const std::string> args,
                           std::span<const Flag> table,
                           std::vector<std::string>* operands = nullptr,
                           std::size_t max_operands = SIZE_MAX);

/// A headed block of the usage text, e.g. {"diff options:", diff_table}.
struct Section {
  std::string_view heading;
  std::span<const Flag> flags;
};

/// `synopsis`, each section's flags (one already listed is not repeated,
/// an emptied section is dropped), then `epilogue`.
[[nodiscard]] std::string usage(std::string_view synopsis,
                                std::initializer_list<Section> sections,
                                std::string_view epilogue);

}  // namespace gap::common::cli
