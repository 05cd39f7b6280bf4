#pragma once
/// \file attribution.hpp
/// Gap-factor attribution: split a critical path's delay into the
/// paper's factor buckets and compose a per-run "gap score".
///
/// core::decompose() measures the paper's x18 decomposition by *re-running
/// the flow* with one methodology knob flipped at a time — accurate but
/// expensive (a full flow per factor). This module answers the same
/// question from a *single finished run*: walk the critical path with the
/// exact STA delay formulas and attribute every tau to one of five
/// buckets:
///
///   logic_depth     what an ideally sized static path of this depth
///                   would cost: per-gate parasitic + the optimal ~4 tau
///                   stage effort, plus the sequential overhead (clk-to-Q,
///                   capture setup, PI driver) — the microarchitecture
///                   floor that only pipelining (section 4) can move;
///   placement_wire  wire delay the path actually pays (section 5);
///   sizing          per-gate effort delay above the ideal stage effort —
///                   what TILOS-style sizing recovers (section 6);
///   logic_style     actual gate delay vs. its static-CMOS equivalent at
///                   equal input capacitance — zero for static gates,
///                   negative (a credit) for domino (section 7);
///   process_margin  the signoff corner's uniform multiplier, taken as
///                   the residual so the five buckets sum to the path
///                   delay *exactly* (section 8).
///
/// The buckets are an exact partition: logic_depth + placement_wire +
/// sizing + logic_style + process_margin == path delay to rounding.
/// Attribution assumes nominal signoff (no per-instance MC factors).

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace gap::qor {

/// Methodology facts attribution cannot read off the netlist, filled by
/// core::run_context (layering: qor sits below core, beside sta/sizing).
struct RunContext {
  double skew_fraction = 0.10;
  int pipeline_stages = 1;
  double corner_delay_factor = 1.0;  ///< signoff corner in effect
  bool dynamic_logic = false;        ///< run already uses domino
  std::string methodology_name;
  std::string corner_name;
};

/// One critical path's delay, split into the factor buckets (tau).
struct PathAttribution {
  double delay_tau = 0.0;  ///< full path delay incl. capture setup

  // The five buckets; sum == delay_tau to rounding.
  double logic_depth_tau = 0.0;
  double placement_wire_tau = 0.0;
  double sizing_tau = 0.0;
  double logic_style_tau = 0.0;
  double process_margin_tau = 0.0;

  // Extra diagnostics (not part of the partition).
  /// Launch clk-to-Q (or PI driver) + capture setup, nominal.
  double sequential_overhead_tau = 0.0;
  /// Delay a domino re-implementation of the static gates would save,
  /// nominal (zero when the path is already dynamic).
  double domino_headroom_tau = 0.0;
  std::size_t gates = 0;

  [[nodiscard]] double bucket_sum() const {
    return logic_depth_tau + placement_wire_tau + sizing_tau +
           logic_style_tau + process_margin_tau;
  }
};

/// Attribute one extracted critical path. `options` must be the StaOptions
/// the path was extracted with (same corner, same wire model), with
/// instance_delay_factors null.
[[nodiscard]] PathAttribution attribute_path(const netlist::Netlist& nl,
                                             const sta::CriticalPath& path,
                                             const sta::StaOptions& options);

/// Per-run gap score: multiplicative speedup still on the table for each
/// factor, estimated from the worst path's buckets — the single-run
/// mirror of core::decompose()'s measured ratios. Each factor is >= 1,
/// and exactly 1 where the run already matches the custom reference.
struct GapScore {
  double pipelining = 1.0;
  double placement_wire = 1.0;
  double sizing = 1.0;
  double logic_style = 1.0;
  double process = 1.0;

  /// Product of the factors — the per-run analogue of the paper's x18
  /// "multiplying the individual factors" composition.
  [[nodiscard]] double composed() const {
    return pipelining * placement_wire * sizing * logic_style * process;
  }
};

/// Compose a gap score from the worst path's attribution, the run's
/// context and the custom reference's (core::run_context(full_custom())).
/// Model constants are documented in docs/qor.md.
[[nodiscard]] GapScore gap_score(const PathAttribution& worst,
                                 const RunContext& run,
                                 const RunContext& custom);

}  // namespace gap::qor
