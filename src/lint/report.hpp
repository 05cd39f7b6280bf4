#pragma once
/// \file report.hpp
/// Renderers for a LintReport: human-readable text, the stable
/// "gap-lint-report-v1" JSON schema, and SARIF 2.1.0 for code-scanning
/// UIs. All three are pure functions of (registry, report, artifact) —
/// no timestamps, hostnames or thread counts — so reruns are
/// byte-identical and CI can diff them directly.

#include <string>

#include "common/json.hpp"
#include "lint/lint.hpp"

namespace gap::lint {

/// One line per finding plus a trailing summary line. `artifact` names
/// the analyzed input (shown with source locations); may be empty for
/// in-memory netlists.
[[nodiscard]] std::string format_text(const RuleRegistry& registry,
                                      const LintReport& report,
                                      const std::string& artifact);

/// Stable JSON ("gap-lint-report-v1"): findings in report order with
/// rule / category / severity / anchor / message / location / waiver,
/// then the summary counts. Written into `w` as a pretty document with
/// one-line anchor and summary objects; in a compact writer (a gapd
/// reply) all of it is compact.
void write_json(common::json::Writer& w, const RuleRegistry& registry,
                const LintReport& report, const std::string& artifact);
/// The report above as a pretty file (trailing newline included).
[[nodiscard]] std::string write_json(const RuleRegistry& registry,
                                     const LintReport& report,
                                     const std::string& artifact);

/// SARIF 2.1.0: the registry becomes the tool.driver.rules catalog
/// (defaultConfiguration.level from each rule's default severity),
/// findings become results with logical locations, and waived findings
/// carry a `suppressions` entry with the waiver's justification.
[[nodiscard]] std::string write_sarif(const RuleRegistry& registry,
                                      const LintReport& report,
                                      const std::string& artifact);

}  // namespace gap::lint
