#pragma once
/// \file lint.hpp
/// gap::lint — rule-based static analysis of a design (ERC). A rule is a
/// small object with an id ("GL-S001"), a category, a default severity,
/// and a run() that scans a LintContext (netlist + library + constraints)
/// for violations; all built-in rules live in one RuleRegistry, and
/// run_lint() evaluates the registry deterministically (findings are
/// sorted, and the thread count never changes the report).
///
/// Severity overrides and waivers come from a gaplint.toml-style config
/// (parse_config): `[rules]` maps rule ids to off/note/warn/error,
/// `[[waive]]` entries suppress individual findings by rule + anchor glob
/// with a mandatory justification, `[constraints]` supplies the clock
/// period the constraint rules check against.
///
/// Reports render as text, stable JSON, or SARIF 2.1.0 (report.hpp); the
/// gaplint CLI (lint_cli.hpp) and the core::Flow pre-flow gate
/// (FlowOptions::lint) are the two consumers. See docs/static-analysis.md
/// for the rule catalog.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "lint/domains.hpp"
#include "netlist/checks.hpp"
#include "netlist/verilog.hpp"
#include "tech/technology.hpp"

namespace gap::lint {

class DataflowEngine;  // dataflow.hpp

/// Rule category (the six families of the catalog).
enum class Category : std::uint8_t {
  kStructural,   ///< connectivity: drivers, sinks, cycles
  kElectrical,   ///< fanout / load / transition / wire limits
  kClock,        ///< clocking and register style
  kConstraint,   ///< timing constraints and I/O assumptions
  kDomain,       ///< clock/reset-domain propagation (dataflow engine)
  kDataflow,     ///< constants, dead logic, X-reachability (dataflow engine)
};
[[nodiscard]] const char* to_string(Category c);

/// Identity and defaults of one rule.
struct RuleInfo {
  std::string id;                 ///< stable id, e.g. "GL-S001"
  Category category = Category::kStructural;
  common::Severity default_severity = common::Severity::kWarning;
  std::string title;              ///< one-line summary for --list-rules
};

/// What a finding points at.
enum class AnchorKind : std::uint8_t { kDesign, kNet, kInstance, kPort };
[[nodiscard]] const char* to_string(AnchorKind k);

/// One violation. `severity` is the effective severity after config
/// overrides; `loc` is valid only for findings derived from input text
/// (the lenient Verilog reader's violations).
struct Finding {
  std::string rule;
  common::Severity severity = common::Severity::kWarning;
  AnchorKind anchor = AnchorKind::kDesign;
  std::string anchor_name;  ///< net/instance/port name; design name for kDesign
  std::string message;
  common::SourceLoc loc;
  bool waived = false;
  std::string waiver_justification;
};

/// Externally supplied timing context (the netlist itself carries none).
struct LintConstraints {
  std::optional<double> period_tau;
  std::optional<double> skew_fraction;
};

/// Everything a rule may look at. The netlist is mandatory; parse
/// violations are present when the design came through
/// netlist::read_verilog_lenient.
struct LintContext {
  const netlist::Netlist* nl = nullptr;
  tech::ElectricalLimits limits;
  LintConstraints constraints;
  const std::vector<netlist::VerilogViolation>* parse_violations = nullptr;
  /// Precomputed dataflow lattice for the GL-D/GL-X rules. When null,
  /// run_lint() builds one on demand if any such rule is enabled; a
  /// resident service (gapd) passes its cached per-session engine here.
  const DataflowEngine* dataflow = nullptr;
  /// Precomputed scan_structure() of `nl` for the structural rules. When
  /// null, run_lint() scans once per run if any structural rule is
  /// enabled, and those rules share that one scan; a resident service
  /// (gapd) passes its cached per-session scan here.
  const std::vector<netlist::StructuralViolation>* structure = nullptr;
};

/// netlist::structural_scan() of `nl`, counted on the
/// `lint.structural_scans` metric: the one place lint pays for a scan.
[[nodiscard]] std::vector<netlist::StructuralViolation> scan_structure(
    const netlist::Netlist& nl);

/// One rule. Implementations must be pure functions of the context:
/// run() is called concurrently with other rules' run() on the same
/// context and must not mutate shared state.
class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual const RuleInfo& info() const = 0;
  virtual void run(const LintContext& ctx, std::vector<Finding>& out) const = 0;
};

/// Ordered rule collection; ids are unique. Catalog order is the order
/// rules were added (the built-in registry adds them in id order).
class RuleRegistry {
 public:
  /// Add a rule; duplicate ids are a programming error (contract).
  void add(std::unique_ptr<Rule> rule);

  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  [[nodiscard]] const Rule& rule(std::size_t i) const { return *rules_[i]; }
  [[nodiscard]] const Rule* find(const std::string& id) const;

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// The built-in catalog (see docs/static-analysis.md), in id order.
[[nodiscard]] RuleRegistry default_registry();

// --- configuration and waivers ------------------------------------------

/// Per-rule severity override from a config file.
enum class SeverityOverride : std::uint8_t { kOff, kNote, kWarning, kError };

/// One waiver: suppress findings of `rule` whose anchor kind matches and
/// whose anchor name matches `pattern` ('*' wildcards). The justification
/// is mandatory — an unexplained waiver is rejected at parse time.
struct Waiver {
  std::string rule;
  AnchorKind kind = AnchorKind::kNet;
  std::string pattern;
  std::string justify;
};

/// Parsed gaplint.toml-subset configuration.
struct LintConfig {
  std::vector<std::pair<std::string, SeverityOverride>> rule_levels;
  std::vector<Waiver> waivers;
  LintConstraints constraints;
  /// `[[domain]]` declarations naming clock domains, in file order.
  std::vector<DomainDecl> domains;
};

/// Parse a config text. Validates rule ids against `registry`, requires
/// `justify` on every waiver, and reports malformed lines with their
/// line:column — untrusted-input path, never aborts.
[[nodiscard]] common::Result<LintConfig> parse_config(
    const std::string& text, const RuleRegistry& registry);

/// '*'-wildcard match ('*' matches any, possibly empty, substring).
[[nodiscard]] bool glob_match(const std::string& pattern,
                              const std::string& text);

// --- evaluation ----------------------------------------------------------

struct LintSummary {
  int errors = 0;    ///< non-waived error findings
  int warnings = 0;  ///< non-waived warning findings
  int notes = 0;     ///< non-waived note findings
  int waived = 0;    ///< findings suppressed by a waiver
};

/// Result of one lint run: all findings (waived ones flagged, not
/// dropped), sorted by (rule, anchor kind, anchor, location, message).
struct LintReport {
  std::vector<Finding> findings;
  LintSummary summary;
  [[nodiscard]] bool has_errors() const { return summary.errors > 0; }
};

/// Evaluate every registry rule against the context, fan the rules out
/// over `threads` workers (0 = all cores), then apply the config's
/// severity overrides and waivers. The report is byte-identical at any
/// thread count. Rules overridden to `off` are not run at all.
[[nodiscard]] LintReport run_lint(const RuleRegistry& registry,
                                  const LintContext& ctx,
                                  const LintConfig& config, int threads = 1);

}  // namespace gap::lint
