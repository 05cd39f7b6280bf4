#include "obs/stat_cli.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/io_guard.hpp"
#include "common/json.hpp"
#include "obs/expose.hpp"

namespace gap::obs {

namespace cl = gap::common::cli;
namespace json = gap::common::json;

namespace {

/// How a value combines under `agg` (and renders in `show`).
enum class StatKind { kCounter, kGauge, kMin };

struct StatValue {
  StatKind kind = StatKind::kCounter;
  double value = 0.0;
};

using StatMap = std::map<std::string, StatValue>;

// --- loaders -------------------------------------------------------------

void put(StatMap& m, const std::string& name, StatKind kind, double v) {
  m[name] = StatValue{kind, v};
}

/// {"counters":{..},"gauges":{..},"histograms":{..}} from
/// MetricsRegistry::write_json.
bool load_metrics_json(const json::Value& doc, StatMap& m) {
  const json::Value* counters = doc.find("counters");
  const json::Value* gauges = doc.find("gauges");
  const json::Value* histograms = doc.find("histograms");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr)
    return false;
  for (const auto& [name, v] : counters->object)
    put(m, name, StatKind::kCounter, v.number_or(0.0));
  for (const auto& [name, v] : gauges->object)
    put(m, name, StatKind::kGauge, v.number_or(0.0));
  for (const auto& [name, h] : histograms->object) {
    put(m, name + ".count", StatKind::kCounter, h.member_number("count", 0));
    put(m, name + ".clamped", StatKind::kCounter,
        h.member_number("clamped", 0));
    put(m, name + ".min", StatKind::kMin, h.member_number("min", 0));
    put(m, name + ".max", StatKind::kGauge, h.member_number("max", 0));
  }
  return true;
}

/// gap-flight-v1 dump: per-kind event tallies plus the ring accounting.
bool load_flight_json(const json::Value& doc, StatMap& m) {
  const json::Value* events = doc.find("events");
  if (events == nullptr || !events->is_array()) return false;
  put(m, "flight.total", StatKind::kCounter, doc.member_number("total", 0));
  put(m, "flight.dropped", StatKind::kCounter,
      doc.member_number("dropped", 0));
  put(m, "flight.capacity", StatKind::kGauge,
      doc.member_number("capacity", 0));
  std::map<std::string, double> kinds;
  for (const json::Value& ev : events->array)
    kinds[ev.member_string("kind", "unknown")] += 1.0;
  for (const auto& [kind, n] : kinds)
    put(m, "flight.events." + kind, StatKind::kCounter, n);
  return true;
}

/// Prometheus exposition text (expose.hpp). `# TYPE` comments carry the
/// metric kind; histogram series map their plain (label-free) lines.
bool load_exposition(const std::string& text, StatMap& m) {
  std::map<std::string, std::string> type_of;  // prometheus name -> kind
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, word, name, kind;
      if (ls >> hash >> word >> name >> kind && word == "TYPE")
        type_of[name] = kind;
      continue;
    }
    if (line.find('{') != std::string::npos) continue;  // labeled series
    std::istringstream ls(line);
    std::string name;
    double value = 0.0;
    if (!(ls >> name >> value)) return false;
    StatKind kind = StatKind::kGauge;
    if (type_of.count(name) != 0) {
      kind = type_of[name] == "counter" ? StatKind::kCounter
                                        : StatKind::kGauge;
    } else {
      // A histogram's scalar series: <base>_count etc., typed via base.
      const auto ends_with = [&](const char* suffix) {
        const std::string s = suffix;
        return name.size() > s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
      };
      if (ends_with("_count") || ends_with("_clamped"))
        kind = StatKind::kCounter;
      else if (ends_with("_min"))
        kind = StatKind::kMin;
    }
    put(m, name, kind, value);
  }
  return true;
}

/// Read and sniff one file. Returns an exit code; 0 on success.
int load_file(const std::string& path, StatMap& m, std::ostream& err) {
  const std::optional<std::string> read = common::read_file(path);
  if (!read) {
    err << "gapstat: error[io]: cannot read '" << path << "'\n";
    return cl::kExitIo;
  }
  const std::string& text = *read;

  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    err << "gapstat: error[parse]: '" << path << "' is empty\n";
    return kStatExitParse;
  }
  bool ok = false;
  if (text[first] == '#') {
    ok = load_exposition(text, m);
  } else if (text[first] == '{') {
    auto doc = json::Value::parse_checked(text);
    if (!doc.ok()) {
      err << "gapstat: error[parse]: '" << path
          << "': " << doc.status().message() << '\n';
      return kStatExitParse;
    }
    ok = doc->member_string("flight", "") == "gap-flight-v1"
             ? load_flight_json(*doc, m)
             : load_metrics_json(*doc, m);
  }
  if (!ok) {
    err << "gapstat: error[parse]: '" << path
        << "' is not a metrics JSON, exposition, or flight file\n";
    return kStatExitParse;
  }
  return cl::kExitOk;
}

// --- rendering -----------------------------------------------------------

enum class Format { kText, kCsv, kJson };

struct Options {
  Format format = Format::kText;
  bool strict = false;
  bool help = false;
};

/// The flags of subcommand `cmd`: --strict is diff's alone.
std::vector<cl::Flag> flag_table(const std::string& cmd, Options& o) {
  std::vector<cl::Flag> table{
      cl::choice_flag("--format", o.format,
                      {{"text", Format::kText},
                       {"csv", Format::kCsv},
                       {"json", Format::kJson}},
                      "output format (default text)"),
      cl::help_flag(o.help)};
  if (cmd == "diff")
    table.push_back(cl::switch_flag("--strict", o.strict,
                                    "exit 1 when the files differ"));
  return table;
}

std::string usage_text() {
  Options unused;
  return cl::usage(
      "usage: gapstat show FILE            [options]\n"
      "       gapstat diff OLD NEW         [options] [--strict]\n"
      "       gapstat agg FILE [FILE...]   [options]\n"
      "\n"
      "Load, diff, and aggregate gap telemetry files: metrics JSON\n"
      "(gapflow --metrics-out), Prometheus exposition text\n"
      "(gapd --expose-out), and gap-flight-v1 flight-recorder dumps.\n"
      "The format of each input is sniffed, so mixed diffs work.\n"
      "See docs/observability.md.\n",
      {{"options:", flag_table("show", unused)},
       {"diff options:", flag_table("diff", unused)}},
      "exit codes: 0 ok (diff: also differences without --strict),\n"
      "1 differences under --strict, 2 usage, 4 unparsable input,\n"
      "5 unreadable input\n");
}

int usage_error(std::ostream& err, const std::string& message) {
  err << "gapstat: error: " << message << '\n' << usage_text();
  return cl::kExitUsage;
}

void render_map(const StatMap& m, Format format, std::ostream& out) {
  if (format == Format::kJson) {
    json::Writer w;
    w.begin_object();
    for (const auto& [name, v] : m) w.member(name, v.value);
    out << w.end_object().str() << '\n';
    return;
  }
  if (format == Format::kCsv) out << "name,value\n";
  std::size_t width = 0;
  if (format == Format::kText)
    for (const auto& [name, v] : m) width = std::max(width, name.size());
  for (const auto& [name, v] : m) {
    const std::string value = json::number(v.value);
    if (format == Format::kText)
      out << name << std::string(width - name.size() + 2, ' ') << value
          << '\n';
    else
      out << name << ',' << value << '\n';
  }
}

/// Entries present in either map whose values differ (absent = 0).
[[nodiscard]] std::size_t render_diff(const StatMap& a, const StatMap& b,
                                      Format format, std::ostream& out) {
  std::map<std::string, std::pair<double, double>> rows;
  for (const auto& [name, v] : a) rows[name].first = v.value;
  for (const auto& [name, v] : b) rows[name].second = v.value;
  std::size_t differing = 0;
  if (format == Format::kCsv) out << "name,old,new,delta\n";
  json::Writer w;
  w.begin_object();
  for (const auto& [name, ab] : rows) {
    if (ab.first == ab.second) continue;
    ++differing;
    const double delta = ab.second - ab.first;
    switch (format) {
      case Format::kText:
        out << name << "  " << json::number(ab.first) << " -> "
            << json::number(ab.second) << "  (" << json::number(delta)
            << ")\n";
        break;
      case Format::kCsv:
        out << name << ',' << json::number(ab.first) << ','
            << json::number(ab.second) << ',' << json::number(delta) << '\n';
        break;
      case Format::kJson:
        w.key(name).begin_object().member("old", ab.first);
        w.member("new", ab.second).member("delta", delta).end_object();
        break;
    }
  }
  if (format == Format::kJson) out << w.end_object().str() << '\n';
  if (format == Format::kText && differing == 0) out << "no differences\n";
  return differing;
}

void merge_into(StatMap& acc, const StatMap& m) {
  for (const auto& [name, v] : m) {
    auto it = acc.find(name);
    if (it == acc.end()) {
      acc[name] = v;
      continue;
    }
    switch (v.kind) {
      case StatKind::kCounter: it->second.value += v.value; break;
      case StatKind::kGauge:
        it->second.value = std::max(it->second.value, v.value);
        break;
      case StatKind::kMin:
        it->second.value = std::min(it->second.value, v.value);
        break;
    }
  }
}

}  // namespace

int run_gapstat(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  // The subcommand comes first and selects the flag table; without one,
  // only --help is meaningful.
  const std::vector<std::string> args(argv, argv + argc);
  const std::string cmd = args.empty() ? "" : args.front();
  const bool known = cmd == "show" || cmd == "diff" || cmd == "agg";
  Options o;
  std::vector<std::string> positional;
  const std::size_t max_files =
      cmd == "show" ? 1 : cmd == "diff" ? 2 : SIZE_MAX;
  if (const common::Status s =
          cl::parse(std::span(args).subspan(known ? 1 : 0),
                    flag_table(cmd, o), &positional, max_files);
      !s.ok())
    return usage_error(err, s.message());
  if (o.help) {
    out << usage_text();
    return cl::kExitOk;
  }
  if (cmd.empty())
    return usage_error(err, "missing command (show | diff | agg)");
  if (cmd == "show") {
    if (positional.size() != 1)
      return usage_error(err, "show needs exactly one FILE");
    StatMap m;
    if (const int rc = load_file(positional[0], m, err); rc != 0) return rc;
    render_map(m, o.format, out);
    return cl::kExitOk;
  }
  if (cmd == "diff") {
    if (positional.size() != 2)
      return usage_error(err, "diff needs exactly OLD and NEW files");
    StatMap a, b;
    if (const int rc = load_file(positional[0], a, err); rc != 0) return rc;
    if (const int rc = load_file(positional[1], b, err); rc != 0) return rc;
    const std::size_t differing = render_diff(a, b, o.format, out);
    return o.strict && differing != 0 ? kStatExitDiff : cl::kExitOk;
  }
  if (cmd == "agg") {
    if (positional.empty())
      return usage_error(err, "agg needs at least one FILE");
    StatMap acc;
    for (const std::string& path : positional) {
      StatMap m;
      if (const int rc = load_file(path, m, err); rc != 0) return rc;
      merge_into(acc, m);
    }
    render_map(acc, o.format, out);
    return cl::kExitOk;
  }
  return usage_error(err, "unknown command '" + cmd + "'");
}

}  // namespace gap::obs
