#include "lint/lint_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "library/builders.hpp"
#include "library/liberty.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "tech/technology.hpp"

namespace gap::lint {
namespace {

constexpr const char* kUsage =
    "usage: gaplint FILE [options]\n"
    "\n"
    "Run the gap::lint rule catalog over a structural Verilog module.\n"
    "\n"
    "options:\n"
    "  --lib FILE         Liberty cell library (default: built-in rich "
    "ASIC library)\n"
    "  --config FILE      gaplint.toml config: severities, waivers, "
    "constraints\n"
    "  --format KIND      text (default), json, or sarif\n"
    "  --out FILE         write the report to FILE instead of stdout\n"
    "  --threads N        worker threads for rule evaluation (0 = all "
    "cores);\n"
    "                     the report is identical at any thread count\n"
    "  --period-tau F     clock period constraint in tau (overrides "
    "config)\n"
    "  --skew-fraction F  clock skew as a fraction of the period "
    "(overrides config)\n"
    "  --list-rules       print the rule catalog and exit (honors\n"
    "                     --format text or json)\n"
    "  --help             this text\n"
    "\n"
    "exit codes: 0 clean or warnings only, 1 error findings, 2 usage,\n"
    "3 parse failure, 5 I/O failure\n";

enum class Format : std::uint8_t { kText, kJson, kSarif };

struct Options {
  std::string file;
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

/// Parse the command line; returns an exit code, or -1 to continue.
int parse_args(int argc, const char* const* argv, Options& opt,
               std::ostream& err) {
  std::vector<std::string> args(argv, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << "gaplint: " << flag << " needs a value\n";
        return nullptr;
      }
      return &args[++i];
    };
    auto double_value = [&](const char* flag,
                            std::optional<double>& into) -> bool {
      const std::string* v = value(flag);
      if (v == nullptr) return false;
      char* end = nullptr;
      const double parsed = std::strtod(v->c_str(), &end);
      if (end == v->c_str() || *end != '\0') {
        err << "gaplint: bad " << flag << " value '" << *v << "'\n";
        return false;
      }
      into = parsed;
      return true;
    };
    if (a == "--help") {
      opt.help = true;
    } else if (a == "--list-rules") {
      opt.list_rules = true;
    } else if (a == "--lib") {
      const std::string* v = value("--lib");
      if (v == nullptr) return kExitUsage;
      opt.lib_file = *v;
    } else if (a == "--config") {
      const std::string* v = value("--config");
      if (v == nullptr) return kExitUsage;
      opt.config_file = *v;
    } else if (a == "--out") {
      const std::string* v = value("--out");
      if (v == nullptr) return kExitUsage;
      opt.out_file = *v;
    } else if (a == "--format") {
      const std::string* v = value("--format");
      if (v == nullptr) return kExitUsage;
      if (*v == "text") {
        opt.format = Format::kText;
      } else if (*v == "json") {
        opt.format = Format::kJson;
      } else if (*v == "sarif") {
        opt.format = Format::kSarif;
      } else {
        err << "gaplint: bad --format value '" << *v
            << "' (want text, json or sarif)\n";
        return kExitUsage;
      }
    } else if (a == "--threads") {
      const std::string* v = value("--threads");
      if (v == nullptr) return kExitUsage;
      char* end = nullptr;
      const long n = std::strtol(v->c_str(), &end, 10);
      if (end == v->c_str() || *end != '\0' || n < 0 || n > 1024) {
        err << "gaplint: bad --threads value '" << *v
            << "' (want an integer in [0, 1024])\n";
        return kExitUsage;
      }
      opt.threads = static_cast<int>(n);
    } else if (a == "--period-tau") {
      if (!double_value("--period-tau", opt.period_tau)) return kExitUsage;
    } else if (a == "--skew-fraction") {
      if (!double_value("--skew-fraction", opt.skew_fraction))
        return kExitUsage;
    } else if (a.rfind("--", 0) == 0) {
      err << "gaplint: unknown flag " << a << "\n" << kUsage;
      return kExitUsage;
    } else if (opt.file.empty()) {
      opt.file = a;
    } else {
      err << "gaplint: only one input file is supported\n";
      return kExitUsage;
    }
  }
  return -1;
}

bool read_file(const std::string& path, std::string& out, std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "gaplint: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  out = text.str();
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
  if (const int rc = parse_args(argc, argv, opt, err); rc >= 0) return rc;
  if (opt.help || argc == 0) {
    out << kUsage;
    return argc == 0 ? kExitUsage : kExitOk;
  }

  const RuleRegistry registry = default_registry();
  if (opt.list_rules) {
    if (opt.format == Format::kSarif) {
      err << "gaplint: --list-rules supports --format text or json (the "
             "SARIF catalog is part of every sarif report)\n";
      return kExitUsage;
    }
    if (opt.format == Format::kJson) {
      list_rules_json(registry, out);
    } else {
      list_rules(registry, out);
    }
    return kExitOk;
  }
  if (opt.file.empty()) {
    err << "gaplint: no input file\n" << kUsage;
    return kExitUsage;
  }

  // Library: an explicit Liberty file, or the built-in rich ASIC library
  // (with its domino variants, so any written netlist loads).
  library::CellLibrary lib =
      library::make_rich_asic_library(tech::asic_025um());
  library::add_domino_cells(lib);
  if (!opt.lib_file.empty()) {
    std::string text;
    if (!read_file(opt.lib_file, text, err)) return kExitIo;
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
    if (!read_file(opt.config_file, text, err)) return kExitIo;
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
  if (!read_file(opt.file, verilog, err)) return kExitIo;
  common::Result<netlist::LenientParse> parsed =
      netlist::read_verilog_lenient(verilog, lib);
  if (!parsed.ok()) {
    err << "gaplint: " << opt.file << ": " << parsed.status().to_string()
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
      rendered = format_text(registry, report, opt.file);
      break;
    case Format::kJson:
      rendered = write_json(registry, report, opt.file);
      break;
    case Format::kSarif:
      rendered = write_sarif(registry, report, opt.file);
      break;
  }
  if (opt.out_file.empty()) {
    out << rendered;
  } else {
    std::ofstream os(opt.out_file, std::ios::binary);
    if (!os) {
      err << "gaplint: cannot write " << opt.out_file << "\n";
      return kExitIo;
    }
    os << rendered;
    if (!os.good()) {
      err << "gaplint: cannot write " << opt.out_file << "\n";
      return kExitIo;
    }
  }
  return report.has_errors() ? kExitFindings : kExitOk;
}

}  // namespace gap::lint
