#include "lint/lint.hpp"

#include <algorithm>
#include <tuple>

#include <optional>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "lint/dataflow.hpp"

namespace gap::lint {

const char* to_string(Category c) {
  switch (c) {
    case Category::kStructural: return "structural";
    case Category::kElectrical: return "electrical";
    case Category::kClock: return "clock";
    case Category::kConstraint: return "constraint";
    case Category::kDomain: return "domain";
    case Category::kDataflow: return "dataflow";
  }
  return "?";
}

const char* to_string(AnchorKind k) {
  switch (k) {
    case AnchorKind::kDesign: return "design";
    case AnchorKind::kNet: return "net";
    case AnchorKind::kInstance: return "instance";
    case AnchorKind::kPort: return "port";
  }
  return "?";
}

void RuleRegistry::add(std::unique_ptr<Rule> rule) {
  GAP_EXPECTS(rule != nullptr);
  GAP_EXPECTS(find(rule->info().id) == nullptr);
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::find(const std::string& id) const {
  for (const auto& r : rules_)
    if (r->info().id == id) return r.get();
  return nullptr;
}

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' matching with backtracking to the last star.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<netlist::StructuralViolation> scan_structure(
    const netlist::Netlist& nl) {
  static common::Counter& scans =
      common::metrics().counter("lint.structural_scans");
  scans.add(1);
  return netlist::structural_scan(nl);
}

namespace {

common::Severity apply_override(common::Severity def, SeverityOverride o) {
  switch (o) {
    case SeverityOverride::kOff: return def;  // handled before evaluation
    case SeverityOverride::kNote: return common::Severity::kNote;
    case SeverityOverride::kWarning: return common::Severity::kWarning;
    case SeverityOverride::kError: return common::Severity::kError;
  }
  return def;
}

}  // namespace

LintReport run_lint(const RuleRegistry& registry, const LintContext& ctx,
                    const LintConfig& config, int threads) {
  GAP_EXPECTS(ctx.nl != nullptr);

  // Resolve each rule's effective severity (or off) from the config; the
  // last override for an id wins, mirroring file order.
  std::vector<common::Severity> severity(registry.size());
  std::vector<bool> enabled(registry.size(), true);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const RuleInfo& info = registry.rule(i).info();
    severity[i] = info.default_severity;
    for (const auto& [id, level] : config.rule_levels) {
      if (id != info.id) continue;
      enabled[i] = level != SeverityOverride::kOff;
      severity[i] = apply_override(info.default_severity, level);
    }
  }

  // The structural rules share one scan, and the GL-D/GL-X rules read
  // the dataflow lattice. Build each on demand when the caller did not
  // supply a cached one; a failed dataflow analysis (combinational
  // cycle — GL-S004 already owns that) leaves ctx.dataflow null and
  // those rules silent.
  LintContext eval_ctx = ctx;
  std::vector<netlist::StructuralViolation> local_scan;
  std::optional<DataflowEngine> local_engine;
  bool wants_structure = false;
  bool wants_dataflow = false;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Category cat = registry.rule(i).info().category;
    wants_structure |= enabled[i] && cat == Category::kStructural;
    wants_dataflow |= enabled[i] && (cat == Category::kDomain ||
                                     cat == Category::kDataflow);
  }
  if (wants_structure && ctx.structure == nullptr) {
    local_scan = scan_structure(*ctx.nl);
    eval_ctx.structure = &local_scan;
  }
  if (wants_dataflow && ctx.dataflow == nullptr) {
    local_engine.emplace();
    if (local_engine->analyze(*ctx.nl, config.domains, threads).ok()) {
      eval_ctx.dataflow = &*local_engine;
    }
  }

  // Fan the rules out; each worker fills an independent vector, so the
  // merge order below (registry order, then a full sort) is identical at
  // any thread count.
  const auto per_rule = common::parallel_map(
      threads, registry.size(), [&](std::size_t i) {
        std::vector<Finding> out;
        if (!enabled[i]) return out;
        registry.rule(i).run(eval_ctx, out);
        for (Finding& f : out) {
          f.rule = registry.rule(i).info().id;
          f.severity = severity[i];
        }
        return out;
      });

  LintReport report;
  for (const auto& v : per_rule)
    report.findings.insert(report.findings.end(), v.begin(), v.end());

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.rule, a.anchor, a.anchor_name,
                                     a.loc.line, a.loc.column, a.message) <
                            std::tie(b.rule, b.anchor, b.anchor_name,
                                     b.loc.line, b.loc.column, b.message);
                   });

  // Deduplicate same-(rule, net) findings: the structural scan and the
  // lenient reader's repair pass can each report the same defect (e.g.
  // GL-S001 on one net, once by id and once by source location). The
  // sort above groups duplicates and puts located copies (line > 0)
  // last, so keeping the last located copy — or the group head when none
  // carries a location — is stable and thread-count-invariant.
  // Instance-anchored rules legitimately fire once per pin and are left
  // alone.
  if (!report.findings.empty()) {
    std::vector<Finding> unique;
    unique.reserve(report.findings.size());
    std::size_t i = 0;
    while (i < report.findings.size()) {
      std::size_t j = i;
      if (report.findings[i].anchor == AnchorKind::kNet) {
        while (j + 1 < report.findings.size() &&
               report.findings[j + 1].anchor == AnchorKind::kNet &&
               report.findings[j + 1].rule == report.findings[i].rule &&
               report.findings[j + 1].anchor_name ==
                   report.findings[i].anchor_name) {
          ++j;
        }
      }
      std::size_t pick = i;
      for (std::size_t k = i; k <= j; ++k) {
        if (report.findings[k].loc.line > 0) pick = k;
      }
      unique.push_back(std::move(report.findings[pick]));
      i = j + 1;
    }
    report.findings = std::move(unique);
  }

  for (Finding& f : report.findings) {
    for (const Waiver& w : config.waivers) {
      if (w.rule != f.rule || w.kind != f.anchor) continue;
      if (!glob_match(w.pattern, f.anchor_name)) continue;
      f.waived = true;
      f.waiver_justification = w.justify;
      break;
    }
    if (f.waived) {
      ++report.summary.waived;
      continue;
    }
    switch (f.severity) {
      case common::Severity::kNote: ++report.summary.notes; break;
      case common::Severity::kWarning: ++report.summary.warnings; break;
      default: ++report.summary.errors; break;
    }
  }
  return report;
}

}  // namespace gap::lint
