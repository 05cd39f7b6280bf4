#include "lint/lint.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "lint/dataflow.hpp"
#include "sta/incremental.hpp"

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

/// The GL-D/GL-X families read the dataflow lattice.
bool reads_lattice(Category c) {
  return c == Category::kDomain || c == Category::kDataflow;
}

/// Net rows per parallel task of a per-net evaluation.
constexpr std::size_t kRowsPerTask = 256;

/// Sort, deduplicate, waive and count the stamped findings of one run.
void finish(LintReport& report, const LintConfig& config) {
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
}

}  // namespace

LintReport run_lint(const RuleRegistry& registry, const LintContext& ctx,
                    const LintConfig& config, int threads) {
  LintCache cache;
  return cache.run(registry, ctx, config, threads);
}

void LintCache::note(const sta::EditEffect& effect) {
  if (effect.connectivity) {
    ++epoch_;
    all_dirty_ = true;
  }
  // Until the first run sizes the flags, and after a connectivity
  // change, the next run checks every net anyway.
  if (all_dirty_) return;
  for (NetId n : effect.nets) {
    if (dirty_flag_[n.index()] != 0) continue;
    dirty_flag_[n.index()] = 1;
    dirty_.push_back(n);
  }
}

LintReport LintCache::run(const RuleRegistry& registry, const LintContext& ctx,
                          const LintConfig& config, int threads) {
  GAP_EXPECTS(ctx.nl != nullptr);
  const netlist::Netlist& nl = *ctx.nl;

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

  // A first run, or a netlist of another shape, starts from nothing.
  if (rules_.size() != registry.size()) rules_.assign(registry.size(), {});
  if (dirty_flag_.size() != nl.num_nets()) {
    dirty_flag_.assign(nl.num_nets(), 0);
    dirty_.clear();
    all_dirty_ = true;
    ++epoch_;
  }

  // A connectivity rule's findings can be reused only if the inputs it
  // read are keyed by the cache: its own structural scan (not parse
  // violations) and a supplied lattice, which the caller keeps in sync
  // with the netlist.
  const auto keyed = [&](Category cat) {
    if (cat == Category::kStructural) return ctx.parse_violations == nullptr;
    return !reads_lattice(cat) || ctx.dataflow != nullptr;
  };
  std::vector<std::size_t> stale;  // connectivity rules to re-run
  bool wants_structure = false;
  bool wants_dataflow = false;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const RuleInfo& info = registry.rule(i).info();
    if (!enabled[i] || info.scope != Scope::kConnectivity) continue;
    const RuleCache& c = rules_[i];
    if (c.valid && c.epoch == epoch_ && keyed(info.category) &&
        (!reads_lattice(info.category) || c.lattice == ctx.dataflow))
      continue;
    stale.push_back(i);
    wants_structure |= info.category == Category::kStructural;
    wants_dataflow |= reads_lattice(info.category);
  }

  // The structural rules share one scan, and the GL-D/GL-X rules read
  // the dataflow lattice. Take the scan when the last one predates a
  // connectivity change, and build a lattice on demand when the caller
  // did not supply one; a failed dataflow analysis (combinational cycle
  // — GL-S004 already owns that) leaves eval_ctx.dataflow null and those
  // rules silent.
  LintContext eval_ctx = ctx;
  std::optional<DataflowEngine> local_engine;
  if (wants_structure) {
    if (!structure_ || structure_epoch_ != epoch_) {
      structure_ = scan_structure(nl);
      structure_epoch_ = epoch_;
    }
    eval_ctx.structure = &*structure_;
  }
  if (wants_dataflow && ctx.dataflow == nullptr) {
    local_engine.emplace();
    if (local_engine->analyze(nl, config.domains, threads).ok()) {
      eval_ctx.dataflow = &*local_engine;
    }
  }

  // Fan the stale rules out; each worker fills an independent vector, so
  // the report is identical at any thread count.
  auto ran = common::parallel_map(threads, stale.size(), [&](std::size_t k) {
    std::vector<Finding> out;
    registry.rule(stale[k]).run(eval_ctx, out);
    return out;
  });
  for (std::size_t k = 0; k < stale.size(); ++k) {
    RuleCache& c = rules_[stale[k]];
    c.findings = std::move(ran[k]);
    c.valid = keyed(registry.rule(stale[k]).info().category);
    c.epoch = epoch_;
    c.lattice = ctx.dataflow;
  }
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (!enabled[i] || registry.rule(i).info().scope != Scope::kConstraints)
      continue;
    rules_[i].findings.clear();
    registry.rule(i).run(eval_ctx, rules_[i].findings);
  }
  update_nets(registry, eval_ctx, enabled, threads);

  // Stamp every enabled rule's findings in registry order; finish()
  // sorts them.
  LintReport report;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (!enabled[i]) continue;
    for (const Finding& cached : rules_[i].findings) {
      Finding& f = report.findings.emplace_back(cached);
      f.rule = registry.rule(i).info().id;
      f.severity = severity[i];
    }
  }
  finish(report, config);
  return report;
}

void LintCache::update_nets(const RuleRegistry& registry,
                            const LintContext& ctx,
                            const std::vector<bool>& enabled, int threads) {
  static common::Counter& evaluated =
      common::metrics().counter("lint.nets_evaluated");

  // A per-net rule the config turns off is not re-checked, so it drops
  // its findings; one enabled without a full cache re-checks every net.
  std::vector<std::size_t> net_rules;
  bool full = all_dirty_;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry.rule(i).info().scope != Scope::kNet) continue;
    if (!enabled[i]) {
      rules_[i] = {};
      continue;
    }
    net_rules.push_back(i);
    full |= !rules_[i].valid;
  }
  std::vector<NetId> rows;
  if (!net_rules.empty()) {
    if (full) {
      rows = ctx.nl->all_nets();
    } else {
      rows = dirty_;
      std::sort(rows.begin(), rows.end());
    }
  }

  if (!rows.empty()) {
    evaluated.add(rows.size());
    // Each task checks a block of rows, computing each row once for all
    // per-net rules; blocks concatenate in row order.
    struct Block {
      std::vector<std::vector<Finding>> findings;  ///< per net rule
      std::vector<std::vector<std::uint32_t>> nets;
    };
    const std::size_t tasks = (rows.size() + kRowsPerTask - 1) / kRowsPerTask;
    auto blocks = common::parallel_map(threads, tasks, [&](std::size_t t) {
      Block b;
      b.findings.resize(net_rules.size());
      b.nets.resize(net_rules.size());
      const std::size_t end = std::min(rows.size(), (t + 1) * kRowsPerTask);
      for (std::size_t r = t * kRowsPerTask; r < end; ++r) {
        const NetRow row = net_row(*ctx.nl, rows[r]);
        for (std::size_t k = 0; k < net_rules.size(); ++k) {
          registry.rule(net_rules[k]).check_net(ctx, rows[r], row,
                                                b.findings[k]);
          b.nets[k].resize(b.findings[k].size(), rows[r].value());
        }
      }
      return b;
    });

    // Keep each rule's clean-net findings and merge the fresh ones in,
    // both ascending by net.
    for (std::size_t k = 0; k < net_rules.size(); ++k) {
      RuleCache& c = rules_[net_rules[k]];
      std::vector<Finding> findings;
      std::vector<std::uint32_t> nets;
      std::size_t a = 0;
      const auto keep_clean_below = [&](std::uint32_t bound) {
        for (; a < c.nets.size() && c.nets[a] < bound; ++a) {
          if (full || dirty_flag_[c.nets[a]] != 0) continue;
          findings.push_back(std::move(c.findings[a]));
          nets.push_back(c.nets[a]);
        }
      };
      for (Block& b : blocks) {
        for (std::size_t f = 0; f < b.findings[k].size(); ++f) {
          keep_clean_below(b.nets[k][f]);
          findings.push_back(std::move(b.findings[k][f]));
          nets.push_back(b.nets[k][f]);
        }
      }
      keep_clean_below(UINT32_MAX);
      c.findings = std::move(findings);
      c.nets = std::move(nets);
      c.valid = true;
    }
  }

  for (NetId n : dirty_) dirty_flag_[n.index()] = 0;
  dirty_.clear();
  all_dirty_ = false;
}

}  // namespace gap::lint
