#include "qor/report_cli.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/io_guard.hpp"
#include "common/json.hpp"
#include "qor/manifest.hpp"

namespace gap::qor {
namespace {

namespace cl = common::cli;
using common::json::Value;

struct Options {
  double threshold = kDefaultRegressionThreshold;
  bool csv = false;
  bool strict = false;
  bool help = false;
};

/// The flags of subcommand `cmd` (show or diff).
std::vector<cl::Flag> flag_table(const std::string& cmd, Options& o) {
  if (cmd == "show")
    return {cl::switch_flag("--csv", o.csv, "render as CSV instead of text"),
            cl::help_flag(o.help)};
  // NaN would compare false against every delta and never regress; the
  // parser rejects it with every other non-finite value.
  return {cl::number_flag("--threshold", o.threshold, "F", {0.0},
                          "relative increase counting as a regression "
                          "(default 0.05)"),
          cl::switch_flag("--strict", o.strict,
                          "exit 1 when a regression is found"),
          cl::help_flag(o.help)};
}

std::string usage_text() {
  Options unused;
  return cl::usage(
      "usage: gapreport <command> [options]\n"
      "\n"
      "commands:\n"
      "  show FILE [--csv]            render a QoR run manifest\n"
      "  diff BASE CURRENT [options]  compare two manifests\n",
      {{"show options:", flag_table("show", unused)},
       {"diff options:", flag_table("diff", unused)}},
      "exit codes: 0 ok / no regression, 1 regression (--strict), 2 unknown\n"
      "flag, 3 bad value, 5 unreadable or invalid manifest\n");
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Load and validate one manifest file.
int load(const std::string& path, Value& out, std::ostream& err) {
  const std::optional<std::string> text = common::read_file(path);
  if (!text) {
    err << "gapreport: cannot open " << path << "\n";
    return cl::kExitIo;
  }
  auto parsed = Value::parse(*text);
  if (!parsed || !parsed->is_object()) {
    err << "gapreport: " << path << " is not valid JSON\n";
    return cl::kExitIo;
  }
  if (parsed->member_string("tool", "") != "gapflow") {
    err << "gapreport: " << path << " is not a gapflow QoR manifest\n";
    return cl::kExitIo;
  }
  const int ver = static_cast<int>(parsed->member_number("schema_version", 0));
  if (ver != kManifestSchemaVersion)
    err << "gapreport: warning: " << path << " has schema_version " << ver
        << " (tool expects " << kManifestSchemaVersion
        << "); diffing shared keys only\n";
  out = std::move(*parsed);
  return cl::kExitOk;
}

/// The scalar QoR keys rendered and diffed per stage, in display order.
constexpr const char* kStageKeys[] = {
    "min_period_tau",       "min_period_ps",
    "min_period_fo4",       "worst_path_tau",
    "critical_path_fo4",    "critical_path_gates",
    "area_um2",             "total_wirelength_um",
    "critical_wirelength_um", "sizing_headroom_tau",
};

constexpr const char* kScoreKeys[] = {
    "pipelining", "placement_wire", "sizing",
    "logic_style", "process", "composed",
};

constexpr const char* kBucketKeys[] = {
    "logic_depth_tau", "placement_wire_tau", "sizing_tau",
    "logic_style_tau", "process_margin_tau",
};

const Value* stage_list(const Value& m) { return m.find("stages"); }

void show_text(const Value& m, std::ostream& out) {
  out << "design       " << m.member_string("design", "?") << "\n";
  out << "methodology  " << m.member_string("methodology", "?") << "\n";
  if (const Value* c = m.find("corner"))
    out << "corner       " << c->member_string("name", "?") << " (x"
        << fmt(c->member_number("delay_factor", 1.0)) << ")\n";
  out << "seed         " << fmt(m.member_number("seed", 0)) << "\n";

  if (const Value* stages = stage_list(m); stages && stages->is_array()) {
    out << "\n  stage     status   period[tau]   fo4/cycle   area[um2]   "
           "wire[um]   headroom[tau]\n";
    for (const Value& s : stages->array) {
      char line[160];
      const Value* q = s.find("qor");
      if (q != nullptr) {
        std::snprintf(line, sizeof(line),
                      "  %-9s %-8s %11.2f %11.2f %11.1f %10.1f %15.4f",
                      s.member_string("name", "?").c_str(),
                      s.member_string("status", "?").c_str(),
                      q->member_number("min_period_tau", 0),
                      q->member_number("min_period_fo4", 0),
                      q->member_number("area_um2", 0),
                      q->member_number("total_wirelength_um", 0),
                      q->member_number("sizing_headroom_tau", 0));
      } else {
        std::snprintf(line, sizeof(line), "  %-9s %-8s",
                      s.member_string("name", "?").c_str(),
                      s.member_string("status", "?").c_str());
      }
      out << line << "\n";
    }
  }

  if (const Value* attr = m.find("attribution")) {
    if (const Value* paths = attr->find("paths");
        paths && paths->is_array() && !paths->array.empty()) {
      const Value& worst = paths->array.front();
      out << "\nworst path  " << fmt(worst.member_number("delay_tau", 0))
          << " tau over " << fmt(worst.member_number("gates", 0))
          << " gates\n";
      if (const Value* b = worst.find("buckets")) {
        const double total = worst.member_number("delay_tau", 0);
        for (const char* key : kBucketKeys) {
          const double v = b->member_number(key, 0);
          char line[96];
          std::snprintf(line, sizeof(line), "  %-20s %10.3f tau  %5.1f%%",
                        key, v, total > 0 ? 100.0 * v / total : 0.0);
          out << line << "\n";
        }
      }
    }
    if (const Value* score = attr->find("gap_score")) {
      out << "\ngap score (speedup still on the table)\n";
      for (const char* key : kScoreKeys) {
        char line[64];
        std::snprintf(line, sizeof(line), "  %-15s x%.3f", key,
                      score->member_number(key, 1.0));
        out << line << "\n";
      }
    }
  }

  if (const Value* r = m.find("result")) {
    out << "\nresult       "
        << (r->find("ok") && r->find("ok")->boolean ? "ok" : "FAILED")
        << "  " << fmt(r->member_number("frequency_mhz", 0)) << " MHz  "
        << fmt(r->member_number("area_um2", 0)) << " um2\n";
  }
}

void show_csv(const Value& m, std::ostream& out) {
  out << "section,stage,key,value\n";
  out << "run,," << "design," << m.member_string("design", "?") << "\n";
  out << "run,," << "methodology," << m.member_string("methodology", "?")
      << "\n";
  if (const Value* c = m.find("corner"))
    out << "run,,corner," << c->member_string("name", "?") << "\n";
  if (const Value* stages = stage_list(m); stages && stages->is_array()) {
    for (const Value& s : stages->array) {
      const std::string name = s.member_string("name", "?");
      out << "stage," << name << ",status," << s.member_string("status", "?")
          << "\n";
      if (const Value* q = s.find("qor"))
        for (const char* key : kStageKeys)
          if (q->find(key) != nullptr)
            out << "stage," << name << "," << key << ","
                << fmt(q->member_number(key, 0)) << "\n";
    }
  }
  if (const Value* attr = m.find("attribution"))
    if (const Value* score = attr->find("gap_score"))
      for (const char* key : kScoreKeys)
        out << "gap_score,," << key << ","
            << fmt(score->member_number(key, 1.0)) << "\n";
  if (const Value* r = m.find("result")) {
    out << "result,,frequency_mhz," << fmt(r->member_number("frequency_mhz", 0))
        << "\n";
    out << "result,,area_um2," << fmt(r->member_number("area_um2", 0)) << "\n";
  }
}

/// One numeric difference between the two manifests.
struct Delta {
  std::string label;
  double base = 0.0;
  double current = 0.0;
  bool regression = false;  ///< counts toward the --strict exit code
};

/// Relative increase of `cur` over `base` (0 when base is 0).
double rel_increase(double base, double cur) {
  return base != 0.0 ? (cur - base) / std::fabs(base) : 0.0;
}

void diff_number(std::vector<Delta>& out, const std::string& label,
                 const Value* base, const Value* cur, const char* key,
                 double threshold, bool higher_is_worse) {
  if (base == nullptr || cur == nullptr) return;
  const Value* b = base->find(key);
  const Value* c = cur->find(key);
  if (b == nullptr || c == nullptr || !b->is_number() || !c->is_number())
    return;
  if (b->num == c->num) return;
  Delta d;
  d.label = label + "." + key;
  d.base = b->num;
  d.current = c->num;
  d.regression = higher_is_worse && rel_increase(b->num, c->num) > threshold;
  out.push_back(d);
}

const Value* stage_by_name(const Value& m, const std::string& name) {
  const Value* stages = stage_list(m);
  if (stages == nullptr || !stages->is_array()) return nullptr;
  for (const Value& s : stages->array)
    if (s.member_string("name", "") == name) return &s;
  return nullptr;
}

int run_diff(const Value& base, const Value& cur, double threshold,
             bool strict, std::ostream& out) {
  std::vector<Delta> deltas;

  // Context changes are reported but never count as regressions.
  for (const char* key : {"design", "methodology", "seed"}) {
    const std::string b = base.member_string(key, fmt(base.member_number(key, 0)));
    const std::string c = cur.member_string(key, fmt(cur.member_number(key, 0)));
    if (b != c) out << "context " << key << ": " << b << " -> " << c << "\n";
  }

  // Per-stage QoR: walk the union in base order, then current-only.
  std::vector<std::string> names;
  for (const Value* m : {&base, &cur}) {
    const Value* stages = stage_list(*m);
    if (stages == nullptr || !stages->is_array()) continue;
    for (const Value& s : stages->array) {
      const std::string n = s.member_string("name", "");
      bool seen = false;
      for (const std::string& have : names) seen = seen || have == n;
      if (!seen) names.push_back(n);
    }
  }
  for (const std::string& name : names) {
    const Value* sb = stage_by_name(base, name);
    const Value* sc = stage_by_name(cur, name);
    if (sb == nullptr || sc == nullptr) {
      out << "stage " << name << ": only in "
          << (sb != nullptr ? "base" : "current") << "\n";
      continue;
    }
    const Value* qb = sb->find("qor");
    const Value* qc = sc->find("qor");
    for (const char* key : kStageKeys) {
      // Timing and wirelength regress upward; headroom growth also means
      // the optimizer left gain behind, so it is flagged too.
      const bool worse_up = std::string(key) != "critical_path_gates";
      diff_number(deltas, "stage." + name, qb, qc, key, threshold, worse_up);
    }
  }

  const Value* ab = base.find("attribution");
  const Value* ac = cur.find("attribution");
  if (ab != nullptr && ac != nullptr)
    for (const char* key : kScoreKeys)
      diff_number(deltas, "gap_score", ab->find("gap_score"),
                  ac->find("gap_score"), key, threshold, true);

  for (const char* key : {"frequency_mhz", "area_um2"})
    diff_number(deltas, "result", base.find("result"), cur.find("result"), key,
                threshold, std::string(key) == "area_um2");

  if (deltas.empty()) {
    out << "no differences\n";
    return cl::kExitOk;
  }
  bool regressed = false;
  for (const Delta& d : deltas) {
    const double rel = rel_increase(d.base, d.current);
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %12.6g -> %-12.6g (%+.2f%%)%s",
                  d.label.c_str(), d.base, d.current, 100.0 * rel,
                  d.regression ? "  REGRESSION" : "");
    out << line << "\n";
    regressed = regressed || d.regression;
  }
  out << deltas.size() << " difference(s)"
      << (regressed ? ", regression past threshold" : "") << "\n";
  return regressed && strict ? kExitRegression : cl::kExitOk;
}

}  // namespace

int run_gapreport(int argc, const char* const* argv, std::ostream& out,
                  std::ostream& err) {
  // The subcommand comes first and selects the flag table; without one,
  // only --help is meaningful (and a bare `gapreport` or `help` asks).
  const std::vector<std::string> args(argv, argv + argc);
  const std::string cmd = args.empty() ? "help" : args.front();
  const bool known = cmd == "show" || cmd == "diff";
  Options o;
  std::vector<std::string> files;
  if (const common::Status s = cl::parse(std::span(args).subspan(known ? 1 : 0),
                                         flag_table(cmd, o), &files,
                                         cmd == "show" ? 1 : 2);
      !s.ok()) {
    err << "gapreport: " << s.message() << "\n";
    return s.code() == common::ErrorCode::kUsage ? cl::kExitUsage
                                                 : kExitBadValue;
  }
  if (o.help || cmd == "help") {
    out << usage_text();
    return cl::kExitOk;
  }
  if (!known) {
    err << "gapreport: unknown command '" << cmd << "'\n" << usage_text();
    return cl::kExitUsage;
  }
  if (files.size() != (cmd == "show" ? 1u : 2u)) {
    err << "gapreport: " << cmd << " needs "
        << (cmd == "show" ? "a manifest file" : "BASE and CURRENT") << "\n"
        << usage_text();
    return cl::kExitUsage;
  }

  Value base;
  if (const int rc = load(files[0], base, err); rc != cl::kExitOk) return rc;
  if (cmd == "show") {
    if (o.csv)
      show_csv(base, out);
    else
      show_text(base, out);
    return cl::kExitOk;
  }
  Value cur;
  if (const int rc = load(files[1], cur, err); rc != cl::kExitOk) return rc;
  return run_diff(base, cur, o.threshold, o.strict, out);
}

}  // namespace gap::qor
