#include "qor/snapshot.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sizing/tilos.hpp"
#include "sta/compact_graph.hpp"
#include "sta/statistical.hpp"
#include "variation/variation.hpp"

namespace gap::qor {
namespace {

/// Summarize the wavefront shape of the graph's levelized schedule (the
/// one the timing kernels relax). Both capture() overloads read it from
/// a graph of the same netlist, so they report identical bytes.
void wave_profile(const sta::CompactGraph& g, QorSnapshot& s) {
  s.wave_levels = static_cast<std::size_t>(g.num_levels());
  for (int lvl = 0; lvl < g.num_levels(); ++lvl)
    s.wave_widest = std::max(s.wave_widest, g.wave(lvl).size());
  s.wave_narrow_fraction = static_cast<double>(g.narrow_levels()) /
                           static_cast<double>(s.wave_levels);
}

/// Everything in a snapshot besides the arrival/slack analysis itself:
/// both capture() overloads feed their (identical, by the incremental
/// contract) timing result and histogram through this one body.
QorSnapshot assemble(const netlist::Netlist& nl, const sta::CompactGraph& g,
                     const SnapshotOptions& options,
                     const sta::TimingResult& timing,
                     sta::SlackHistogramData histogram) {
  QorSnapshot s;
  s.worst_path_tau = timing.worst_path_tau;
  s.min_period_tau = timing.min_period_tau;
  s.min_period_ps = timing.min_period_ps;
  s.min_period_fo4 = timing.min_period_fo4;
  s.critical_path_fo4 = timing.worst_path_tau / 5.0;
  s.critical_path_gates = timing.critical_path.size();
  s.endpoints = timing.num_endpoints;
  s.slack_histogram = std::move(histogram);

  s.area_um2 = nl.total_area_um2();
  for (NetId id : nl.all_nets()) s.total_wirelength_um += nl.net(id).length_um;
  // Each distinct net on the critical path counts once, even when the
  // path visits it through several gates.
  std::unordered_set<NetId> seen;
  for (InstanceId id : timing.critical_path) {
    const NetId out = nl.instance(id).output;
    if (seen.insert(out).second)
      s.critical_wirelength_um += nl.net(out).length_um;
  }

  sizing::SizingOptions sopt;
  sopt.sta = options.sta;
  sopt.continuous = options.continuous_sizing;
  s.sizing_headroom_tau =
      sizing::path_upsize_headroom_tau(nl, timing.critical_path, sopt);

  wave_profile(g, s);

  if (options.mc_samples > 0) {
    sta::McStaOptions mc;
    mc.base = options.sta;
    mc.samples = options.mc_samples;
    mc.seed = options.mc_seed;
    mc.threads = options.mc_threads;
    const sta::McStaResult r = sta::monte_carlo_sta(nl, mc);
    s.mc_samples = options.mc_samples;
    s.mc_relative_spread = r.relative_spread();
    s.mc_mean_shift = r.mean_shift();
  }
  return s;
}

}  // namespace

QorSnapshot capture(const netlist::Netlist& nl,
                    const SnapshotOptions& options) {
  const sta::TimingResult timing = sta::analyze(nl, options.sta);
  return assemble(nl, sta::CompactGraph(nl), options, timing,
                  sta::compute_slack_histogram(nl, options.sta,
                                               timing.min_period_tau,
                                               options.histogram_buckets));
}

QorSnapshot capture(sta::IncrementalTimer& timer,
                    const SnapshotOptions& options) {
  const sta::TimingResult timing = timer.timing();
  return assemble(timer.netlist(), timer.graph(), options, timing,
                  sta::slack_histogram_from_slacks(
                      timer.slacks(timing.min_period_tau),
                      options.histogram_buckets));
}

}  // namespace gap::qor
