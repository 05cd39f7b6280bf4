#include "sta/statistical.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "sta/compact_graph.hpp"
#include "sta/kernels.hpp"

namespace gap::sta {

McStaResult monte_carlo_sta(const netlist::Netlist& nl,
                            const McStaOptions& options) {
  GAP_TRACE_SPAN("sta::monte_carlo");
  GAP_EXPECTS(options.samples > 0);
  GAP_EXPECTS(options.sigma_gate >= 0.0 && options.sigma_die >= 0.0);
  // Per-sample work is deterministic, so one batched add keeps the total
  // exact and identical at any thread count.
  static common::Counter& samples = common::metrics().counter("sta.mc_samples");
  samples.add(static_cast<std::uint64_t>(options.samples));

  McStaResult result;
  result.nominal_period_tau = analyze(nl, options.base).min_period_tau;

  // All samples share one graph: variation changes per-instance delay
  // *factors*, never structure or wire models' inputs, so the build and
  // topo-sort cost is paid once instead of per sample.
  const CompactGraph shared(nl);

  // Each sample owns a counter-based RNG stream and its own factor
  // buffer, so samples are independent of each other and of the lane
  // that runs them; parallel_map writes periods in sample order. Thread
  // count therefore never changes the statistics (docs/parallelism.md).
  const auto sample_period = [&](std::size_t s) {
    Rng rng = Rng::stream(options.seed, s);
    const double die = std::exp(options.sigma_die * rng.normal());
    std::vector<double> factors(nl.num_instances());
    for (double& f : factors)
      f = die * std::exp(options.sigma_gate * rng.normal());
    StaOptions opt = options.base;
    opt.instance_delay_factors = &factors;
    // The per-sample pass over the shared graph reports into the same
    // counters analyze() would, so observability totals are unchanged.
    static common::Counter& passes =
        common::metrics().counter("sta.arrival_passes");
    static common::Counter& props =
        common::metrics().counter("sta.arrival_propagations");
    static common::Counter& analyses =
        common::metrics().counter("sta.analyses");
    passes.add();
    props.add(nl.num_instances());
    analyses.add();
    detail::ArrivalState st;
    compact_propagate(shared, opt, st);
    const detail::WorstEndpoint e =
        kern::worst_endpoint_from_state(shared, opt, st);
    return kern::timing_result_from_state(shared, opt, st, e).min_period_tau;
  };

  const std::vector<double> periods = common::parallel_map(
      options.threads, static_cast<std::size_t>(options.samples),
      sample_period);
  static common::Histogram& period_hist =
      common::metrics().histogram("sta.mc_period_tau");
  for (double p : periods) {
    result.period_tau.add(p);
    period_hist.record(p);
  }
  return result;
}

}  // namespace gap::sta
