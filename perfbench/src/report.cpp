#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"

namespace perfbench {

namespace json = gap::common::json;

void Outcome::fail(const std::string& why) {
  // Log the first few failures in full; the count tells the rest.
  if (failed < 5) std::cerr << "perfbench: FAIL: " << why << '\n';
  ++failed;
}

namespace {

std::vector<MetricSpec> build_specs() {
  std::vector<MetricSpec> s = {
      {"setup_s", "s", false},
      {"ops_per_s", "1/s", false},
      {"op_us_p50", "us", false},
      {"op_us_tail", "us", false},
      {"ok_frac", "ratio", false},
      {"peak_rss_mb", "MB", false},

      {"core.stage.map_ms", "ms", true},
      {"core.stage.pipeline_ms", "ms", true},
      {"core.stage.place_ms", "ms", true},
      {"core.stage.route_ms", "ms", true},
      {"core.stage.size_ms", "ms", true},
      {"core.stage.signoff_ms", "ms", true},
      {"core.flow_self_ms", "ms", true},
      {"core.flows", "count", true},
      {"synth.gates_mapped", "count", true},
      {"place.sa_moves", "count", true},
      {"place.accept_ratio", "ratio", true},
      {"sizing.tilos_moves", "count", true},
      {"sizing.accept_ratio", "ratio", true},
      {"sta.arrival_passes_per_flow", "count", true},
  };
  for (const std::string c : {"load", "edit", "undo", "timing", "slacks",
                              "top_paths", "qor", "lint_scan",
                              "lint_dataflow"}) {
    s.push_back({"sta.arrival_passes_per_" + c, "count", true});
    s.push_back({"serve." + c + "_us", "us", true});
    s.push_back({"serve." + c + "_reply_bytes", "bytes", true});
    s.push_back({"serve." + c + "_count", "count", true});
  }
  const std::vector<MetricSpec> rest = {
      {"sta.nodes_repropagated_per_edit", "count", true},
      {"sta.waves_per_edit", "count", true},
      {"sta.pooled_sweep_share", "ratio", true},
      {"sta.sweeps", "count", true},
      {"serve.parse_us", "us", true},
      {"sta.timer_apply_us", "us", true},
      {"sta.timer_query_us", "us", true},
      {"sta.render_us", "us", true},
      {"common.json_compact_us", "us", true},
      {"qor.capture_us", "us", true},
      {"lint.run_us", "us", true},
      {"lint.render_us", "us", true},
      {"lint.dataflow_refresh_us", "us", true},
      {"serve.self_us", "us", true},
      {"lint.dataflow_evals_per_lint", "count", true},
      {"lint.dataflow_reuse_share", "ratio", true},
      {"lint.dataflow_syncs", "count", true},
      {"trace.op_us_p50", "us", true},
      {"trace.overhead_us", "us", true},
  };
  s.insert(s.end(), rest.begin(), rest.end());
  return s;
}

}  // namespace

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = build_specs();
  return specs;
}

std::string result_json(const Outcome& out, bool trace) {
  std::string metrics;
  for (const MetricSpec& m : metric_specs()) {
    if (m.per_layer != trace) continue;
    const auto it = out.values.find(m.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ',';
    metrics += "\"" + m.name + "\":{\"value\":" +
               json::number(std::isfinite(v) ? v : 0.0) + ",\"unit\":\"" +
               m.unit + "\"}";
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  return "{\"correct\":" + std::string(correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(
                                 out.attempted, 1)) +
         ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{" +
         metrics + "}}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*std::max_element(v.begin(), mid) + *mid);
}

Tail tail_latency(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t beyond = std::min<std::size_t>(10, n - 1);
  t.value = v[n - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(n - beyond) /
                 static_cast<double>(n);
  return t;
}

void add_end_to_end(Outcome& out, const Latency& lat,
                    const std::vector<double>& setup_s) {
  out.set("setup_s", median(setup_s));
  out.set("ops_per_s", lat.ops_per_s);
  out.set("op_us_p50", lat.p50_us);
  out.set("op_us_tail", lat.tail.value);
  out.set("ok_frac",
          std::max(0.0, 1.0 - ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted))));
  out.set("peak_rss_mb", peak_rss_mb());
  std::cerr << "perfbench: op_us_tail is p" << lat.tail.percentile << " of "
            << lat.samples << " samples (10 beyond it)\n";
}

// --- spans -----------------------------------------------------------------

std::uint32_t SpanRecorder::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanRecorder::begin(const char* name, std::int64_t parent,
                                 std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.op = op;
  s.start_us = now_us();
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t idx) {
  if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_us = now_us();
}

double SpanRecorder::duration(std::int64_t idx) const {
  if (idx < 0) return 0.0;
  const Span& s = spans_[static_cast<std::size_t>(idx)];
  return s.end_us - s.start_us;
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_times() const {
  // Children of one parent are sequential calls on one thread, so their
  // intervals do not overlap: covered time is the sum of their
  // durations clipped to the parent's interval.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::vector<double> self(names_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += spans_[i].end_us - spans_[i].start_us - covered[i];
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < names_.size(); ++i)
    out.emplace_back(names_[i], self[i]);
  return out;
}

bool SpanRecorder::write(const std::string& path,
                         const std::string& extra) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i)
    os << (i ? "," : "") << '"' << json::escape(names_[i]) << '"';
  os << "],\"columns\":[\"name\",\"start_us\",\"end_us\",\"parent\",\"op\"],"
        "\"spans\":[";
  // Times relative to the first span keep the file small.
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%s[%u,%.3f,%.3f,%lld,%llu]",
                  i ? ",\n" : "\n", s.name, s.start_us - t0, s.end_us - t0,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    os << buf;
  }
  os << "],\"self_us\":{";
  const auto self = self_times();
  for (std::size_t i = 0; i < self.size(); ++i)
    os << (i ? "," : "") << '"' << json::escape(self[i].first)
       << "\":" << json::number(self[i].second);
  os << '}' << extra << "}\n";
  return static_cast<bool>(os);
}

// --- counters --------------------------------------------------------------

Probe::Probe() {
  static const char* const kNames[kCount] = {
      "mapper.gates_mapped",
      "place.sa_moves_accepted",
      "place.sa_moves_rejected",
      "tilos.moves_accepted",
      "tilos.moves_rejected",
      "sta.arrival_passes",
      "sta.incremental.nodes_repropagated",
      "sta.wave.incremental_waves",
      "wall.sta.wave.pooled_sweeps",
      "wall.sta.wave.serial_sweeps",
      "lint.dataflow.evals",
      "lint.dataflow.reuses",
      "lint.dataflow.full_sweeps",
      "lint.dataflow.cone_passes",
  };
  for (std::size_t i = 0; i < kCount; ++i)
    c_[i] = &gap::common::metrics().counter(kNames[i]);
}

Probe::Snapshot Probe::read() const {
  Snapshot s;
  for (std::size_t i = 0; i < kCount; ++i) s.v[i] = c_[i]->value();
  return s;
}

Probe::Snapshot Probe::delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (std::size_t i = 0; i < kCount; ++i) d.v[i] = after.v[i] - before.v[i];
  return d;
}

void accumulate(Probe::Snapshot& acc, const Probe::Snapshot& d) {
  for (std::size_t i = 0; i < Probe::kCount; ++i) acc.v[i] += d.v[i];
}

}  // namespace perfbench
