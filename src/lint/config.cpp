/// \file config.cpp
/// Parser for the gaplint.toml-subset configuration: `[rules]` severity
/// overrides, `[constraints]` numbers, `[[waive]]` blocks, and
/// `[[domain]]` clock-domain declarations. This is an
/// untrusted-input path: every malformed line becomes a located Status,
/// never an abort.

#include <cctype>
#include <optional>
#include <utility>

#include "common/source_reader.hpp"
#include "lint/lint.hpp"

namespace gap::lint {

namespace {

using common::ErrorCode;
using common::Result;
using common::SourceLoc;
using common::Status;

constexpr const char* kWhere = "gaplint-config";

Status err(ErrorCode code, std::string message, int line, int column) {
  return Status::error(code, std::move(message), SourceLoc{line, column},
                       kWhere);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Strip a trailing comment that is outside any quoted string.
std::string strip_comment(const std::string& s) {
  bool quoted = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '"') quoted = !quoted;
    if (s[i] == '#' && !quoted) return s.substr(0, i);
  }
  return s;
}

std::optional<SeverityOverride> parse_level(const std::string& v) {
  if (v == "off") return SeverityOverride::kOff;
  if (v == "note") return SeverityOverride::kNote;
  if (v == "warn" || v == "warning") return SeverityOverride::kWarning;
  if (v == "error") return SeverityOverride::kError;
  return std::nullopt;
}

/// A pending [[waive]] block being accumulated.
struct WaiverDraft {
  Waiver w;
  bool has_rule = false;
  bool has_anchor = false;
  bool has_justify = false;
  int line = 0;  ///< line of the opening [[waive]]
};

/// A pending [[domain]] block being accumulated.
struct DomainDraft {
  DomainDecl d;
  bool has_name = false;
  bool has_phase = false;
  int line = 0;  ///< line of the opening [[domain]]
};

class Parser {
 public:
  Parser(const std::string& text, const RuleRegistry& registry)
      : text_(text), registry_(registry) {}

  Result<LintConfig> run() {
    std::size_t pos = 0;
    int line_no = 0;
    while (pos <= text_.size()) {
      const std::size_t eol = text_.find('\n', pos);
      const std::string raw =
          text_.substr(pos, eol == std::string::npos ? eol : eol - pos);
      ++line_no;
      Status s = parse_line(trim(strip_comment(raw)), line_no);
      if (!s.ok()) return s;
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
    Status s = finish_waiver(line_no);
    if (!s.ok()) return s;
    s = finish_domain(line_no);
    if (!s.ok()) return s;
    return std::move(config_);
  }

 private:
  enum class Section : std::uint8_t {
    kNone,
    kRules,
    kConstraints,
    kWaive,
    kDomain,
  };

  Status parse_line(const std::string& line, int line_no) {
    if (line.empty()) return Status{};
    if (line.front() == '[') return enter_section(line, line_no);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return err(ErrorCode::kParse, "expected 'key = value': '" + line + "'",
                 line_no, 1);
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return err(ErrorCode::kParse, "missing key before '='", line_no, 1);
    }
    if (value.empty()) {
      return err(ErrorCode::kMissingValue, "missing value for '" + key + "'",
                 line_no, static_cast<int>(eq) + 2);
    }
    const int vcol = static_cast<int>(line.find(value, eq + 1)) + 1;
    switch (section_) {
      case Section::kRules: return rule_line(key, value, line_no, vcol);
      case Section::kConstraints:
        return constraint_line(key, value, line_no, vcol);
      case Section::kWaive: return waive_line(key, value, line_no, vcol);
      case Section::kDomain: return domain_line(key, value, line_no, vcol);
      case Section::kNone:
        return err(ErrorCode::kParse,
                   "'" + key + "' appears before any section header",
                   line_no, 1);
    }
    return Status{};
  }

  Status enter_section(const std::string& line, int line_no) {
    Status s = finish_waiver(line_no);
    if (!s.ok()) return s;
    s = finish_domain(line_no);
    if (!s.ok()) return s;
    if (line == "[rules]") {
      section_ = Section::kRules;
    } else if (line == "[constraints]") {
      section_ = Section::kConstraints;
    } else if (line == "[[waive]]") {
      section_ = Section::kWaive;
      draft_ = WaiverDraft{};
      draft_->line = line_no;
    } else if (line == "[[domain]]") {
      section_ = Section::kDomain;
      domain_draft_ = DomainDraft{};
      domain_draft_->line = line_no;
    } else {
      return err(ErrorCode::kUnknownName, "unknown section '" + line + "'",
                 line_no, 1);
    }
    return Status{};
  }

  Status rule_line(const std::string& key, const std::string& value,
                   int line_no, int vcol) {
    if (registry_.find(key) == nullptr) {
      return err(ErrorCode::kUnknownName, "unknown rule id '" + key + "'",
                 line_no, 1);
    }
    Result<std::string> text = string_value(value, line_no, vcol);
    if (!text.ok()) return text.status();
    const auto level = parse_level(text.value());
    if (!level.has_value()) {
      return err(ErrorCode::kInvalidValue,
                 "invalid level '" + text.value() +
                     "' (want off, note, warn or error)",
                 line_no, vcol);
    }
    config_.rule_levels.emplace_back(key, *level);
    return Status{};
  }

  Status constraint_line(const std::string& key, const std::string& value,
                         int line_no, int vcol) {
    const common::Number n = common::read_number(value, /*integer=*/false);
    if (n.out_of_range)
      return err(ErrorCode::kInvalidValue,
                 "constraint '" + key + "' must be finite, got '" + value + "'",
                 line_no, vcol);
    if (!n.value) {
      return err(ErrorCode::kParse, "expected a number, got '" + value + "'",
                 line_no, vcol);
    }
    const double v = *n.value;
    // Finite out-of-range values (e.g. a negative period) are accepted
    // here and reported by the constraint rules, so they show up in the
    // lint report rather than as a config error.
    if (key == "period_tau") {
      config_.constraints.period_tau = v;
    } else if (key == "skew_fraction") {
      config_.constraints.skew_fraction = v;
    } else {
      return err(ErrorCode::kUnknownName,
                 "unknown constraint '" + key + "'", line_no, 1);
    }
    return Status{};
  }

  Status waive_line(const std::string& key, const std::string& value,
                    int line_no, int vcol) {
    Result<std::string> text = string_value(value, line_no, vcol);
    if (!text.ok()) return text.status();
    WaiverDraft& d = *draft_;
    if (key == "rule") {
      if (registry_.find(text.value()) == nullptr) {
        return err(ErrorCode::kUnknownName,
                   "unknown rule id '" + text.value() + "'", line_no, vcol);
      }
      d.w.rule = text.value();
      d.has_rule = true;
    } else if (key == "net" || key == "instance" || key == "port") {
      if (d.has_anchor) {
        return err(ErrorCode::kDuplicate,
                   "waiver already has an anchor; only one of net, "
                   "instance or port is allowed",
                   line_no, 1);
      }
      d.w.kind = key == "net"        ? AnchorKind::kNet
                 : key == "instance" ? AnchorKind::kInstance
                                     : AnchorKind::kPort;
      d.w.pattern = text.value();
      d.has_anchor = true;
    } else if (key == "justify") {
      if (trim(text.value()).empty()) {
        return err(ErrorCode::kInvalidValue,
                   "waiver justification must not be empty", line_no, vcol);
      }
      d.w.justify = text.value();
      d.has_justify = true;
    } else {
      return err(ErrorCode::kUnknownName, "unknown waiver key '" + key + "'",
                 line_no, 1);
    }
    return Status{};
  }

  Status domain_line(const std::string& key, const std::string& value,
                     int line_no, int vcol) {
    DomainDraft& d = *domain_draft_;
    if (key == "name") {
      Result<std::string> text = string_value(value, line_no, vcol);
      if (!text.ok()) return text.status();
      if (trim(text.value()).empty()) {
        return err(ErrorCode::kInvalidValue,
                   "domain name must not be empty", line_no, vcol);
      }
      for (const DomainDecl& prior : config_.domains) {
        if (prior.name == text.value()) {
          return err(ErrorCode::kDuplicate,
                     "domain '" + text.value() + "' declared twice",
                     line_no, vcol);
        }
      }
      d.d.name = text.value();
      d.has_name = true;
    } else if (key == "phase") {
      const common::Number n = common::read_number(value, /*integer=*/true);
      if (!n.value && !n.out_of_range) {
        return err(ErrorCode::kParse,
                   "expected an integer phase, got '" + value + "'",
                   line_no, vcol);
      }
      if (!n.value || *n.value < 0 || *n.value > 255) {
        return err(ErrorCode::kInvalidValue,
                   "clock phase " + value + " out of range [0, 255]",
                   line_no, vcol);
      }
      d.d.phase = static_cast<int>(*n.value);
      d.has_phase = true;
    } else {
      return err(ErrorCode::kUnknownName, "unknown domain key '" + key + "'",
                 line_no, 1);
    }
    return Status{};
  }

  /// Close out a pending [[domain]] block, enforcing the required keys.
  Status finish_domain(int line_no) {
    if (!domain_draft_.has_value()) return Status{};
    const DomainDraft d = *domain_draft_;
    domain_draft_.reset();
    if (!d.has_name) {
      return err(ErrorCode::kMissingValue,
                 "domain declaration is missing its 'name'", d.line, 1);
    }
    if (!d.has_phase) {
      return err(ErrorCode::kMissingValue,
                 "domain declaration is missing its 'phase'", d.line, 1);
    }
    for (const DomainDecl& prior : config_.domains) {
      if (prior.phase == d.d.phase) {
        return err(ErrorCode::kDuplicate,
                   "clock phase " + std::to_string(d.d.phase) +
                       " already bound to domain '" + prior.name + "'",
                   d.line, 1);
      }
    }
    (void)line_no;
    config_.domains.push_back(d.d);
    return Status{};
  }

  /// Close out a pending [[waive]] block, enforcing the required keys.
  Status finish_waiver(int line_no) {
    if (!draft_.has_value()) return Status{};
    const WaiverDraft d = *draft_;
    draft_.reset();
    if (!d.has_rule) {
      return err(ErrorCode::kMissingValue,
                 "waiver is missing its 'rule'", d.line, 1);
    }
    if (!d.has_anchor) {
      return err(ErrorCode::kMissingValue,
                 "waiver needs one of net, instance or port", d.line, 1);
    }
    if (!d.has_justify) {
      return err(ErrorCode::kMissingValue,
                 "waiver is missing its mandatory 'justify'", d.line, 1);
    }
    (void)line_no;
    config_.waivers.push_back(d.w);
    return Status{};
  }

  Result<std::string> string_value(const std::string& value, int line_no,
                                   int vcol) {
    if (value.size() < 2 || value.front() != '"' || value.back() != '"') {
      return err(ErrorCode::kParse,
                 "expected a quoted string, got '" + value + "'", line_no,
                 vcol);
    }
    return value.substr(1, value.size() - 2);
  }

  const std::string& text_;
  const RuleRegistry& registry_;
  LintConfig config_;
  Section section_ = Section::kNone;
  std::optional<WaiverDraft> draft_;
  std::optional<DomainDraft> domain_draft_;
};

}  // namespace

Result<LintConfig> parse_config(const std::string& text,
                                const RuleRegistry& registry) {
  return Parser(text, registry).run();
}

}  // namespace gap::lint
