#include "lint/report.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace gap::lint {

namespace {

namespace json = common::json;
using json::Layout;

/// SARIF `level` for a severity (kFatal collapses to "error"; gap::lint
/// itself never emits it, but overrides shouldn't be able to break SARIF).
const char* sarif_level(common::Severity s) {
  switch (s) {
    case common::Severity::kNote: return "note";
    case common::Severity::kWarning: return "warning";
    default: return "error";
  }
}

const RuleInfo& info_of(const RuleRegistry& registry,
                        const std::string& id) {
  const Rule* r = registry.find(id);
  GAP_EXPECTS(r != nullptr);  // findings always come from registry rules
  return r->info();
}

std::size_t index_of(const RuleRegistry& registry, const std::string& id) {
  for (std::size_t i = 0; i < registry.size(); ++i)
    if (registry.rule(i).info().id == id) return i;
  GAP_EXPECTS(false);
  return 0;
}

}  // namespace

std::string format_text(const RuleRegistry& registry,
                        const LintReport& report,
                        const std::string& artifact) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    if (f.waived) {
      out << "waived";
    } else {
      out << common::to_string(f.severity);
    }
    out << "[" << f.rule << "] " << to_string(f.anchor) << " '"
        << f.anchor_name << "': " << f.message;
    if (f.loc.valid()) {
      out << " (" << (artifact.empty() ? "input" : artifact) << ":"
          << f.loc.line << ":" << f.loc.column << ")";
    }
    if (f.waived) out << " [waiver: " << f.waiver_justification << "]";
    out << "\n";
    (void)registry;
  }
  const LintSummary& s = report.summary;
  out << "gaplint: " << s.errors << " error(s), " << s.warnings
      << " warning(s), " << s.notes << " note(s), " << s.waived
      << " waived\n";
  return out.str();
}

void write_json(json::Writer& w, const RuleRegistry& registry,
                const LintReport& report, const std::string& artifact) {
  w.begin_object().member("schema", "gap-lint-report-v1");
  w.member("artifact", artifact).key("findings").begin_array();
  for (const Finding& f : report.findings) {
    w.begin_object().member("rule", f.rule);
    w.member("category", to_string(info_of(registry, f.rule).category));
    w.member("severity", common::to_string(f.severity));
    w.key("anchor").begin_object(Layout::kInline);
    w.member("kind", to_string(f.anchor)).member("name", f.anchor_name);
    w.end_object().member("message", f.message);
    if (f.loc.valid())
      w.member("line", f.loc.line).member("column", f.loc.column);
    w.member("waived", f.waived);
    if (f.waived) w.member("justification", f.waiver_justification);
    w.end_object();
  }
  const LintSummary& s = report.summary;
  w.end_array().key("summary").begin_object(Layout::kInline);
  w.member("errors", s.errors).member("warnings", s.warnings);
  w.member("notes", s.notes).member("waived", s.waived).end_object();
  w.end_object();
}

std::string write_json(const RuleRegistry& registry, const LintReport& report,
                       const std::string& artifact) {
  json::Writer w(Layout::kPretty);
  write_json(w, registry, report, artifact);
  return w.take() + '\n';
}

std::string write_sarif(const RuleRegistry& registry,
                        const LintReport& report,
                        const std::string& artifact) {
  json::Writer w(Layout::kPretty);
  w.begin_object();
  w.member("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  w.member("version", "2.1.0").key("runs").begin_array().begin_object();
  w.key("tool").begin_object().key("driver").begin_object();
  w.member("name", "gaplint").key("rules").begin_array();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const RuleInfo& info = registry.rule(i).info();
    w.begin_object().member("id", info.id);
    w.key("shortDescription").begin_object(Layout::kInline);
    w.member("text", info.title).end_object();
    w.key("defaultConfiguration").begin_object(Layout::kInline);
    w.member("level", sarif_level(info.default_severity)).end_object();
    w.key("properties").begin_object(Layout::kInline);
    w.member("category", to_string(info.category)).end_object();
    w.end_object();
  }
  w.end_array().end_object().end_object().key("results").begin_array();
  for (const Finding& f : report.findings) {
    w.begin_object().member("ruleId", f.rule);
    w.member("ruleIndex", index_of(registry, f.rule));
    w.member("level", sarif_level(f.severity));
    w.key("message").begin_object(Layout::kInline);
    w.member("text", f.message).end_object();
    w.key("locations").begin_array().begin_object();
    if (f.loc.valid() && !artifact.empty()) {
      w.key("physicalLocation").begin_object();
      w.key("artifactLocation").begin_object(Layout::kInline);
      w.member("uri", artifact).end_object();
      w.key("region").begin_object(Layout::kInline);
      w.member("startLine", f.loc.line);
      w.member("startColumn", f.loc.column).end_object();
      w.end_object();
    }
    w.key("logicalLocations").begin_array();
    w.begin_object(Layout::kInline).member("name", f.anchor_name);
    w.member("kind", to_string(f.anchor)).end_object();
    w.end_array().end_object().end_array();
    if (f.waived) {
      w.key("suppressions").begin_array().begin_object(Layout::kInline);
      w.member("kind", "external");
      w.member("justification", f.waiver_justification).end_object();
      w.end_array();
    }
    w.end_object();
  }
  w.end_array().end_object().end_array().end_object();
  return w.take() + '\n';
}

}  // namespace gap::lint
