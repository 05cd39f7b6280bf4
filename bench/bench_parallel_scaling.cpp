/// \file bench_parallel_scaling.cpp
/// Scaling study of the gap::common::ThreadPool fan-out paths: Monte
/// Carlo statistical STA, netlist parameter sweeps, and variation
/// binning, each timed at 1 / 2 / 4 / hardware threads. Two readings:
///
///  - speedup: wall-clock ratio vs the serial (threads = 1) legacy path,
///    and the per-sample latency the pool achieves;
///  - determinism: the quantiles printed per row must be *identical* down
///    the column — thread count never changes numeric results (the
///    counter-based RNG contract of docs/parallelism.md). The final line
///    reports PASS/FAIL of that bit-identity check; tests/parallel_test
///    enforces the same property under gtest.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "netlist/sweep.hpp"
#include "sizing/tilos.hpp"
#include "sta/statistical.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"
#include "variation/variation.hpp"

namespace {

using namespace gap;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<int> thread_grid() {
  std::vector<int> grid = {1, 2, 4, common::resolve_threads(0)};
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

/// GAP_BENCH_QUICK=1 shrinks the workloads so the bench gate
/// (tools/check.sh bench) finishes in minutes; the determinism check runs either way.
bool quick_mode() { return std::getenv("GAP_BENCH_QUICK") != nullptr; }

}  // namespace

int main() {
  const tech::Technology t = tech::asic_025um();
  const auto lib = library::make_rich_asic_library(t);
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  auto nl = synth::map_to_netlist(aig, lib, synth::MapOptions{}, "alu");
  sizing::initial_drive_assignment(nl);

  std::printf("parallel scaling (%d hardware threads)\n\n",
              common::resolve_threads(0));
  bool identical = true;

  const int mc_samples = quick_mode() ? 40 : 200;
  const int sweep_side = quick_mode() ? 4 : 8;
  const int binning_dies = quick_mode() ? 20000 : 200000;

  // --- Monte Carlo statistical STA: full timing passes. ---
  Table mc({"threads", "wall (ms)", "per-sample (ms)", "speedup", "median",
            "q95"});
  double mc_serial_ms = 0.0, mc_ref_median = 0.0, mc_ref_q95 = 0.0;
  for (int threads : thread_grid()) {
    sta::McStaOptions opt;
    opt.samples = mc_samples;
    opt.sigma_gate = 0.10;
    opt.sigma_die = 0.05;
    opt.threads = threads;
    const auto t0 = Clock::now();
    const auto r = sta::monte_carlo_sta(nl, opt);
    const double ms = ms_since(t0);
    const double med = r.period_tau.quantile(0.5);
    const double q95 = r.period_tau.quantile(0.95);
    if (threads == 1) {
      mc_serial_ms = ms;
      mc_ref_median = med;
      mc_ref_q95 = q95;
    }
    identical = identical && med == mc_ref_median && q95 == mc_ref_q95;
    mc.add_row({std::to_string(threads), fmt(ms, 1),
                fmt(ms / opt.samples, 3), fmt(mc_serial_ms / ms, 2),
                fmt(med, 6), fmt(q95, 6)});
  }
  std::printf("Monte Carlo STA, %d samples, alu16:\n%s\n", mc_samples,
              mc.render().c_str());

  // --- Netlist parameter sweep: wire length x extra load grid. ---
  std::vector<netlist::SweepPoint> points;
  for (int c = 0; c < sweep_side; ++c)
    for (int l = 0; l < sweep_side; ++l)
      points.push_back({0.5 + 0.25 * l, 0.5 * c});
  const auto metric = [](const netlist::Netlist& n) {
    return sta::analyze(n, sta::StaOptions{}).min_period_tau;
  };
  Table sw({"threads", "wall (ms)", "per-point (ms)", "speedup", "best point"});
  double sw_serial_ms = 0.0, sw_ref_best = 0.0;
  for (int threads : thread_grid()) {
    const auto t0 = Clock::now();
    const auto periods =
        netlist::sweep_parameters(nl, points, metric, {threads});
    const double ms = ms_since(t0);
    const double best = *std::min_element(periods.begin(), periods.end());
    if (threads == 1) {
      sw_serial_ms = ms;
      sw_ref_best = best;
    }
    identical = identical && best == sw_ref_best;
    sw.add_row({std::to_string(threads), fmt(ms, 1),
                fmt(ms / static_cast<double>(points.size()), 3),
                fmt(sw_serial_ms / ms, 2), fmt(best, 6)});
  }
  std::printf("parameter sweep, %zu points, alu16:\n%s\n", points.size(),
              sw.render().c_str());

  // --- Variation binning: dies through the lognormal model. ---
  Table bn({"threads", "wall (ms)", "speedup", "typical", "fast bin"});
  double bn_serial_ms = 0.0, bn_ref_typ = 0.0;
  for (int threads : thread_grid()) {
    const auto t0 = Clock::now();
    const auto speeds =
        variation::monte_carlo_speeds(variation::best_fab(), binning_dies, 1,
                                      threads);
    const auto b = variation::bin_stats(speeds, variation::SignoffDerating{});
    const double ms = ms_since(t0);
    if (threads == 1) {
      bn_serial_ms = ms;
      bn_ref_typ = b.typical;
    }
    identical = identical && b.typical == bn_ref_typ;
    bn.add_row({std::to_string(threads), fmt(ms, 1), fmt(bn_serial_ms / ms, 2),
                fmt(b.typical, 6), fmt(b.fast_bin, 6)});
  }
  std::printf("variation binning, %d dies:\n%s\n", binning_dies,
              bn.render().c_str());

  std::printf("bit-identical statistics across thread counts: %s\n",
              identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}
