#include "lint/lint_cli.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/io_guard.hpp"
#include "common/json.hpp"
#include "library/builders.hpp"
#include "library/liberty.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "tech/technology.hpp"

namespace gap::lint {
namespace {

namespace cl = common::cli;

enum class Format : std::uint8_t { kText, kJson, kSarif };

struct Options {
  std::string lib_file;
  std::string config_file;
  std::string out_file;
  Format format = Format::kText;
  int threads = 1;
  std::optional<double> period_tau;
  std::optional<double> skew_fraction;
  bool list_rules = false;
  bool help = false;
};

std::vector<cl::Flag> flag_table(Options& o) {
  return {
      cl::string_flag("--lib", o.lib_file, "FILE",
                      "Liberty cell library (default: built-in rich ASIC "
                      "library)"),
      cl::string_flag("--config", o.config_file, "FILE",
                      "gaplint.toml config: severities, waivers, constraints"),
      cl::choice_flag("--format", o.format,
                      {{"text", Format::kText},
                       {"json", Format::kJson},
                       {"sarif", Format::kSarif}},
                      "report format (default text)"),
      cl::string_flag("--out", o.out_file, "FILE",
                      "write the report to FILE instead of stdout"),
      cl::number_flag("--threads", o.threads, "N", {0, 1024},
                      "worker threads for rule evaluation (0 = all cores); "
                      "the report is identical at any thread count"),
      cl::number_flag("--period-tau", o.period_tau, "F", {},
                      "clock period constraint in tau (overrides config)"),
      cl::number_flag("--skew-fraction", o.skew_fraction, "F", {},
                      "clock skew as a fraction of the period (overrides "
                      "config)"),
      cl::switch_flag("--list-rules", o.list_rules,
                      "print the rule catalog and exit (honors --format "
                      "text or json)"),
      cl::help_flag(o.help),
  };
}

std::string usage_text() {
  Options unused;
  return cl::usage(
      "usage: gaplint FILE [options]\n\n"
      "Run the gap::lint rule catalog over a structural Verilog module.\n",
      {{"options:", flag_table(unused)}},
      "exit codes: 0 clean or warnings only, 1 error findings, 2 usage,\n"
      "3 parse failure, 5 I/O failure\n");
}

bool read_file(const std::string& path, std::string& out, std::ostream& err) {
  std::optional<std::string> text = common::read_file(path);
  if (!text) {
    err << "gaplint: cannot open " << path << "\n";
    return false;
  }
  out = std::move(*text);
  return true;
}

void list_rules(const RuleRegistry& registry, std::ostream& out) {
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const RuleInfo& info = registry.rule(i).info();
    char line[160];
    std::snprintf(line, sizeof line, "%-9s %-11s %-8s %s", info.id.c_str(),
                  to_string(info.category),
                  common::to_string(info.default_severity),
                  info.title.c_str());
    out << line << "\n";
  }
}

/// Machine-readable catalog; the same id/category/severity triples the
/// SARIF driver.rules block carries (lint_test pins them together).
void list_rules_json(const RuleRegistry& registry, std::ostream& out) {
  common::json::Writer w(common::json::Layout::kPretty);
  w.begin_object().member("schema", "gap-lint-rules-v1");
  w.key("rules").begin_array();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const RuleInfo& info = registry.rule(i).info();
    w.begin_object(common::json::Layout::kInline).member("id", info.id);
    w.member("category", to_string(info.category));
    w.member("default_severity", common::to_string(info.default_severity));
    w.member("title", info.title).end_object();
  }
  out << w.end_array().end_object().str() << '\n';
}

}  // namespace

int run_gaplint(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  Options opt;
  const std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> files;
  if (const common::Status s = cl::parse(args, flag_table(opt), &files, 1);
      !s.ok()) {
    err << "gaplint: " << s.message() << "\n";
    return cl::kExitUsage;
  }
  if (opt.help || argc == 0) {
    out << usage_text();
    return argc == 0 ? cl::kExitUsage : cl::kExitOk;
  }

  const RuleRegistry registry = default_registry();
  if (opt.list_rules) {
    if (opt.format == Format::kSarif) {
      err << "gaplint: --list-rules supports --format text or json (the "
             "SARIF catalog is part of every sarif report)\n";
      return cl::kExitUsage;
    }
    if (opt.format == Format::kJson) {
      list_rules_json(registry, out);
    } else {
      list_rules(registry, out);
    }
    return cl::kExitOk;
  }
  if (files.empty()) {
    err << "gaplint: no input file\n" << usage_text();
    return cl::kExitUsage;
  }
  const std::string& file = files.front();

  // Library: an explicit Liberty file, or the built-in rich ASIC library
  // (with its domino variants, so any written netlist loads).
  library::CellLibrary lib =
      library::make_rich_asic_library(tech::asic_025um());
  library::add_domino_cells(lib);
  if (!opt.lib_file.empty()) {
    std::string text;
    if (!read_file(opt.lib_file, text, err)) return cl::kExitIo;
    common::Result<library::CellLibrary> parsed = library::read_liberty(text);
    if (!parsed.ok()) {
      err << "gaplint: " << opt.lib_file << ": "
          << parsed.status().to_string() << "\n";
      return kExitParse;
    }
    lib = std::move(parsed.value());
  }

  LintConfig config;
  if (!opt.config_file.empty()) {
    std::string text;
    if (!read_file(opt.config_file, text, err)) return cl::kExitIo;
    common::Result<LintConfig> parsed = parse_config(text, registry);
    if (!parsed.ok()) {
      err << "gaplint: " << opt.config_file << ": "
          << parsed.status().to_string() << "\n";
      return kExitParse;
    }
    config = std::move(parsed.value());
  }
  if (opt.period_tau.has_value())
    config.constraints.period_tau = opt.period_tau;
  if (opt.skew_fraction.has_value())
    config.constraints.skew_fraction = opt.skew_fraction;

  std::string verilog;
  if (!read_file(file, verilog, err)) return cl::kExitIo;
  common::Result<netlist::LenientParse> parsed =
      netlist::read_verilog_lenient(verilog, lib);
  if (!parsed.ok()) {
    err << "gaplint: " << file << ": " << parsed.status().to_string()
        << "\n";
    return kExitParse;
  }

  LintContext ctx;
  ctx.nl = &parsed.value().nl;
  ctx.limits = tech::default_electrical_limits();
  ctx.constraints = config.constraints;
  ctx.parse_violations = &parsed.value().violations;
  const LintReport report = run_lint(registry, ctx, config, opt.threads);

  std::string rendered;
  switch (opt.format) {
    case Format::kText:
      rendered = format_text(registry, report, file);
      break;
    case Format::kJson:
      rendered = write_json(registry, report, file);
      break;
    case Format::kSarif:
      rendered = write_sarif(registry, report, file);
      break;
  }
  if (opt.out_file.empty()) {
    out << rendered;
  } else {
    std::ofstream os(opt.out_file, std::ios::binary);
    if (!os) {
      err << "gaplint: cannot write " << opt.out_file << "\n";
      return cl::kExitIo;
    }
    os << rendered;
    if (!os.good()) {
      err << "gaplint: cannot write " << opt.out_file << "\n";
      return cl::kExitIo;
    }
  }
  return report.has_errors() ? kExitFindings : cl::kExitOk;
}

}  // namespace gap::lint
