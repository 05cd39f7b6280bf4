#pragma once
/// \file snapshot.hpp
/// Per-stage QoR (quality-of-results) snapshot: the handful of numbers a
/// timing-closure loop actually watches between runs — worst path / min
/// period, critical-path FO4 depth, endpoint slack distribution, area,
/// wirelength, remaining sizing headroom, and (at signoff, on request)
/// the Monte Carlo variation spread. Captured by the core::Flow stage
/// guard after each successful stage and stored beside the stage's
/// metric deltas in the FlowReport, so every `gapflow` run can emit a
/// machine-readable QoR trajectory (docs/qor.md).
///
/// Determinism contract: everything in a snapshot is a pure function of
/// the netlist and the options (MC uses counter-based RNG streams), so
/// snapshots — and the manifests built from them — are bit-identical at
/// any thread count.

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"
#include "sta/incremental.hpp"
#include "sta/report.hpp"
#include "sta/sta.hpp"

namespace gap::qor {

/// Knobs for capture(). The sta options must match the ones the flow
/// signs off with, or stage-to-stage deltas would mix corners.
struct SnapshotOptions {
  sta::StaOptions sta;
  int histogram_buckets = 10;
  /// Sizing regime of the run, for the headroom probe (continuous =
  /// custom methodology; discrete = library drive ladder).
  bool continuous_sizing = false;
  /// Monte Carlo variation spread (signoff stages only; expensive).
  /// 0 disables; > 0 runs sta::monte_carlo_sta with this many samples.
  int mc_samples = 0;
  std::uint64_t mc_seed = 1;
  int mc_threads = 1;
};

/// One stage's QoR. All delays in tau of the netlist's technology unless
/// suffixed otherwise.
struct QorSnapshot {
  // --- timing ---
  double worst_path_tau = 0.0;
  double min_period_tau = 0.0;
  double min_period_ps = 0.0;
  double min_period_fo4 = 0.0;
  /// Critical-path depth in FO4 units (worst path / 5 tau) and gates.
  double critical_path_fo4 = 0.0;
  std::size_t critical_path_gates = 0;
  std::size_t endpoints = 0;
  /// Endpoint slack distribution at this stage's own min period.
  sta::SlackHistogramData slack_histogram;

  // --- physical ---
  double area_um2 = 0.0;
  double total_wirelength_um = 0.0;
  /// Wirelength of the nets on the critical path.
  double critical_wirelength_um = 0.0;

  // --- optimization headroom ---
  /// Positive TILOS gain estimates left on the critical path.
  double sizing_headroom_tau = 0.0;

  // --- wavefront schedule ---
  /// Shape of the levelized wavefront schedule the parallel timing
  /// kernels sweep (docs/observability.md): level count, widest wave,
  /// and the share of waves narrower than sta::kWaveDispatchHint. A pure
  /// function of the netlist — identical for batch and resident-timer
  /// captures and at any thread count.
  std::size_t wave_levels = 0;
  std::size_t wave_widest = 0;
  double wave_narrow_fraction = 0.0;

  // --- statistical (mc_samples > 0 only) ---
  int mc_samples = 0;                ///< 0 = section absent
  double mc_relative_spread = 0.0;   ///< (q95-q05)/median of the period
  double mc_mean_shift = 0.0;        ///< median vs nominal period
};

/// Measure the netlist as it stands. Runs STA (arrival + required-time
/// passes) plus, when requested, a Monte Carlo; read-only.
[[nodiscard]] QorSnapshot capture(const netlist::Netlist& nl,
                                  const SnapshotOptions& options);

/// capture() through a resident incremental timer: the deterministic
/// timing numbers come from the timer's cached state instead of a
/// from-scratch analysis. Byte-identical to capture(timer.netlist(), ...)
/// with matching options.sta — the timer's contract — just cheaper after
/// a small edit. The MC probe still builds its own per-sample analyses.
[[nodiscard]] QorSnapshot capture(sta::IncrementalTimer& timer,
                                  const SnapshotOptions& options);

}  // namespace gap::qor
