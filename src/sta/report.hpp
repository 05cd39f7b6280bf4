#pragma once
/// \file report.hpp
/// Timing reports: critical-path listing (PrimeTime-style) and an
/// endpoint slack histogram, each in two renderings — human-readable text
/// for the CLI/examples and machine-readable JSON for the QoR run
/// manifest (gap::qor) and CI. Both renderings share one computation
/// (compute_slack_histogram), so bucket semantics cannot drift apart.

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sta/sta.hpp"

namespace gap::sta {

/// Critical path report: one line per cell on the path with its cell,
/// drive, load and cumulative arrival, ending with the period summary.
/// Arrivals come from timing.critical_path_arrival_tau, so rendering
/// runs no timing sweep.
[[nodiscard]] std::string format_critical_path(const netlist::Netlist& nl,
                                               const TimingResult& timing,
                                               int max_lines = 40);

/// The same listing as one JSON object, written into `w` in its current
/// layout:
///   {"path":[{"instance","cell","drive","load","arrival_ps"},...],
///    "min_period_ps","min_period_fo4","frequency_mhz","endpoints"}
void critical_path_json(common::json::Writer& w, const netlist::Netlist& nl,
                        const TimingResult& timing);
/// The object above as compact text. `options` is unused (the arrivals
/// travel in `timing`); it stays for source compatibility with callers.
[[nodiscard]] std::string critical_path_json(const netlist::Netlist& nl,
                                             const StaOptions& options,
                                             const TimingResult& timing);

/// Computed endpoint-slack distribution at a period: fixed-width buckets
/// from the worst to the best observed slack.
struct SlackHistogramData {
  double lo = 0.0;            ///< worst slack over constrained nets (tau)
  double hi = 0.0;            ///< best slack (tau)
  std::size_t constrained = 0;  ///< nets with a finite slack
  std::vector<double> centers;  ///< bucket centers (tau)
  std::vector<std::size_t> counts;
};

[[nodiscard]] SlackHistogramData compute_slack_histogram(
    const netlist::Netlist& nl, const StaOptions& options, double period_tau,
    int buckets = 10);

/// Bucket an already-computed per-net slack array (sta::net_slacks or
/// IncrementalTimer::slacks — bit-identical by contract, so so are the
/// histograms). compute_slack_histogram delegates here.
[[nodiscard]] SlackHistogramData slack_histogram_from_slacks(
    const std::vector<double>& slacks, int buckets = 10);

/// Endpoint slack histogram at the given period: a fixed number of
/// buckets from the worst slack to the period, one text bar per bucket.
[[nodiscard]] std::string format_slack_histogram(const netlist::Netlist& nl,
                                                 const StaOptions& options,
                                                 double period_tau,
                                                 int buckets = 10);

/// The histogram as one JSON object, always on one line (compact even
/// inside a pretty document such as the QoR manifest):
///   {"lo","hi","constrained","buckets":[[center,count],...]}
void slack_histogram_json(common::json::Writer& w, const SlackHistogramData& h);
/// The object above as text.
[[nodiscard]] std::string slack_histogram_json(const SlackHistogramData& h);

}  // namespace gap::sta
