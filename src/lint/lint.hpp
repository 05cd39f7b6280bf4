#pragma once
/// \file lint.hpp
/// gap::lint — rule-based static analysis of a design (ERC). A rule is a
/// small object with an id ("GL-S001"), a category, a scope, a default
/// severity, and either a whole-design run() over a LintContext (netlist
/// + library + constraints) or a per-net check_net() against that net's
/// shared electrical row; all built-in rules live in one RuleRegistry,
/// and run_lint() evaluates the registry deterministically (findings are
/// sorted, and the thread count never changes the report). A LintCache
/// keeps each rule's findings across edits, so a resident service
/// re-checks only what an edit touched; run_lint() is the same
/// evaluation with everything dirty.
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
}  // namespace gap::lint

namespace gap::sta {
struct EditEffect;  // sta/incremental.hpp
}  // namespace gap::sta

namespace gap::lint {

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

/// What a rule's findings depend on, and so what must change before a
/// LintCache re-evaluates it.
enum class Scope : std::uint8_t {
  kNet,           ///< one net's electrical row: re-checked per dirty net
  kConnectivity,  ///< pin connectivity (and the lattice): re-run on a rewire
  kConstraints,   ///< the supplied constraints: re-run on every evaluation
};

/// Identity and defaults of one rule.
struct RuleInfo {
  std::string id;                 ///< stable id, e.g. "GL-S001"
  Category category = Category::kStructural;
  Scope scope = Scope::kConnectivity;
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
  /// The scan_structure() of `nl` the structural rules read: the cache's
  /// plumbing, not an input. LintCache::run (and so run_lint()) sets it
  /// to its own scan, taken once per connectivity change and shared by
  /// those rules; a value the caller sets is ignored.
  const std::vector<netlist::StructuralViolation>* structure = nullptr;
};

/// netlist::structural_scan() of `nl`, counted on the
/// `lint.structural_scans` metric: the one place lint pays for a scan.
[[nodiscard]] std::vector<netlist::StructuralViolation> scan_structure(
    const netlist::Netlist& nl);

/// The electrical facts of one net that every per-net rule reads,
/// computed once per net per evaluation.
struct NetRow {
  /// Driver drive strength; <= 0 for an undriven net and for a primary
  /// input with a non-positive external drive — per-net rules skip those
  /// (GL-S002 and GL-K003 own them).
  double drive = 0.0;
  const library::Cell* cell = nullptr;  ///< the driving cell, if an instance
  double load = 0.0;  ///< Netlist::net_load; 0 when drive <= 0
};

/// The row of net `id` of `nl`.
[[nodiscard]] NetRow net_row(const netlist::Netlist& nl, NetId id);

/// One rule. Implementations must be pure functions of their arguments:
/// rules are evaluated concurrently on the same context and must not
/// mutate shared state. A Scope::kNet rule implements check_net(), every
/// other rule implements run().
class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual const RuleInfo& info() const = 0;
  /// Whole-design scan (connectivity and constraint scopes).
  virtual void run(const LintContext& /*ctx*/,
                   std::vector<Finding>& /*out*/) const {}
  /// Check net `id` against its row (net scope).
  virtual void check_net(const LintContext& /*ctx*/, NetId /*id*/,
                         const NetRow& /*row*/,
                         std::vector<Finding>& /*out*/) const {}
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

/// Evaluate every registry rule against the context, fan the work out
/// over `threads` workers (0 = all cores), then apply the config's
/// severity overrides and waivers. The report is byte-identical at any
/// thread count. Rules overridden to `off` are not run at all. This is
/// LintCache::run on a fresh cache: every row and every rule is dirty.
[[nodiscard]] LintReport run_lint(const RuleRegistry& registry,
                                  const LintContext& ctx,
                                  const LintConfig& config, int threads = 1);

/// Each rule's findings kept across edits of one netlist, so that a
/// resident service (gapd, one per session) re-checks only what its
/// edits touched. Use one registry, one netlist and one set of
/// electrical limits for the cache's lifetime, and note() every edit
/// applied in between evaluations.
///
///  - Scope::kNet rules keep their findings per net. An evaluation
///    computes the NetRow of each dirty net once and re-checks every
///    enabled per-net rule on it (`lint.nets_evaluated` counts the rows).
///    A per-net rule the config turns off loses its findings, and the
///    next evaluation that enables it checks every net.
///  - Scope::kConnectivity rules, and the structural scan they share,
///    re-run only after a connectivity change. A cached lattice rule
///    (GL-D/GL-X) is reused only with the same supplied DataflowEngine;
///    parse violations re-run the rules that read them.
///  - Scope::kConstraints rules run on every evaluation.
///
/// Every evaluation reports exactly what run_lint() reports on the
/// current netlist.
class LintCache {
 public:
  /// Record one applied edit: its nets become dirty, and a connectivity
  /// change dirties every net and every connectivity rule. Bookkeeping
  /// only; no rule runs here.
  void note(const sta::EditEffect& effect);

  /// Evaluate as run_lint() does, re-checking only what is dirty.
  [[nodiscard]] LintReport run(const RuleRegistry& registry,
                               const LintContext& ctx,
                               const LintConfig& config, int threads = 1);

 private:
  /// One rule's cached findings, unstamped (rule id and severity are
  /// applied per evaluation). For a per-net rule, `nets[k]` is the net
  /// of `findings[k]`, ascending.
  struct RuleCache {
    bool valid = false;
    std::uint64_t epoch = 0;                 ///< connectivity epoch of the run
    const DataflowEngine* lattice = nullptr;  ///< the lattice it read
    std::vector<Finding> findings;
    std::vector<std::uint32_t> nets;
  };

  /// Re-check the enabled per-net rules on the dirty rows.
  void update_nets(const RuleRegistry& registry, const LintContext& ctx,
                   const std::vector<bool>& enabled, int threads);

  std::vector<RuleCache> rules_;
  std::uint64_t epoch_ = 1;  ///< bumped by every connectivity change
  std::optional<std::vector<netlist::StructuralViolation>> structure_;
  std::uint64_t structure_epoch_ = 0;
  bool all_dirty_ = true;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<NetId> dirty_;
};

}  // namespace gap::lint
