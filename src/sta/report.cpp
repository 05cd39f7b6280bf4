#include "sta/report.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"

namespace gap::sta {

std::string format_critical_path(const netlist::Netlist& nl,
                                 const TimingResult& timing, int max_lines) {
  GAP_EXPECTS(timing.critical_path_arrival_tau.size() ==
              timing.critical_path.size());
  const tech::Technology& t = nl.lib().technology();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %-12s %7s %8s %10s\n", "instance",
                "cell", "drive", "load", "arrival");
  out += line;

  for (std::size_t i = 0; i < timing.critical_path.size(); ++i) {
    if (i >= static_cast<std::size_t>(max_lines)) {
      out += "  ... (";
      out += std::to_string(timing.critical_path.size() -
                            static_cast<std::size_t>(max_lines));
      out += " more)\n";
      break;
    }
    const InstanceId id = timing.critical_path[i];
    const netlist::Instance& inst = nl.instance(id);
    const library::Cell& c = nl.cell_of(id);
    std::snprintf(line, sizeof line, "%-24s %-12s %7.2f %8.2f %7.1f ps\n",
                  inst.name.c_str(), c.name.c_str(), nl.drive_of(id),
                  nl.net_load(inst.output),
                  t.tau_to_ps(timing.critical_path_arrival_tau[i]));
    out += line;
  }
  std::snprintf(line, sizeof line,
                "min period: %.1f ps (%.1f FO4) -> %.0f MHz over %zu "
                "endpoints\n",
                timing.min_period_ps, timing.min_period_fo4,
                timing.frequency_mhz(), timing.num_endpoints);
  out += line;
  return out;
}

void critical_path_json(common::json::Writer& w, const netlist::Netlist& nl,
                        const TimingResult& timing) {
  GAP_EXPECTS(timing.critical_path_arrival_tau.size() ==
              timing.critical_path.size());
  const tech::Technology& t = nl.lib().technology();
  w.begin_object().key("path").begin_array();
  for (std::size_t i = 0; i < timing.critical_path.size(); ++i) {
    const InstanceId id = timing.critical_path[i];
    const netlist::Instance& inst = nl.instance(id);
    w.begin_object().member("instance", inst.name);
    w.member("cell", nl.cell_of(id).name).member("drive", nl.drive_of(id));
    w.member("load", nl.net_load(inst.output));
    w.member("arrival_ps", t.tau_to_ps(timing.critical_path_arrival_tau[i]));
    w.end_object();
  }
  w.end_array().member("min_period_ps", timing.min_period_ps);
  w.member("min_period_fo4", timing.min_period_fo4);
  w.member("frequency_mhz", timing.frequency_mhz());
  w.member("endpoints", timing.num_endpoints).end_object();
}

std::string critical_path_json(const netlist::Netlist& nl,
                               const StaOptions& /*options*/,
                               const TimingResult& timing) {
  common::json::Writer w;
  critical_path_json(w, nl, timing);
  return w.take();
}

SlackHistogramData compute_slack_histogram(const netlist::Netlist& nl,
                                           const StaOptions& options,
                                           double period_tau, int buckets) {
  return slack_histogram_from_slacks(net_slacks(nl, options, period_tau),
                                     buckets);
}

SlackHistogramData slack_histogram_from_slacks(
    const std::vector<double>& slacks, int buckets) {
  SlackHistogramData data;
  SampleStats s;
  for (double v : slacks)
    if (v < 1e29) s.add(v);
  data.constrained = s.count();
  if (s.count() == 0) return data;

  data.lo = s.min();
  data.hi = std::max(s.max(), data.lo + 1e-9);
  Histogram h(data.lo, data.hi, static_cast<std::size_t>(buckets));
  for (double v : s.samples()) h.add(v);
  for (std::size_t b = 0; b < h.bins(); ++b) {
    data.centers.push_back(h.bin_center(b));
    data.counts.push_back(h.bin_count(b));
  }
  return data;
}

std::string format_slack_histogram(const netlist::Netlist& nl,
                                   const StaOptions& options,
                                   double period_tau, int buckets) {
  const SlackHistogramData h =
      compute_slack_histogram(nl, options, period_tau, buckets);
  if (h.constrained == 0) return "(no constrained nets)\n";

  std::string out = "slack histogram (tau):\n";
  std::size_t peak = 1;
  for (std::size_t c : h.counts) peak = std::max(peak, c);
  char line[160];
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const int bar =
        static_cast<int>(50.0 * static_cast<double>(h.counts[b]) /
                         static_cast<double>(peak));
    std::snprintf(line, sizeof line, "  %8.1f |%-50s| %zu\n", h.centers[b],
                  std::string(static_cast<std::size_t>(bar), '#').c_str(),
                  h.counts[b]);
    out += line;
  }
  return out;
}

void slack_histogram_json(common::json::Writer& w,
                          const SlackHistogramData& h) {
  w.begin_object(common::json::Layout::kCompact).member("lo", h.lo);
  w.member("hi", h.hi).member("constrained", h.constrained);
  w.key("buckets").begin_array();
  for (std::size_t b = 0; b < h.counts.size(); ++b)
    w.begin_array().value(h.centers[b]).value(h.counts[b]).end_array();
  w.end_array().end_object();
}

std::string slack_histogram_json(const SlackHistogramData& h) {
  common::json::Writer w;
  slack_histogram_json(w, h);
  return w.take();
}

}  // namespace gap::sta
