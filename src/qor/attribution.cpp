#include "qor/attribution.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "library/library.hpp"
#include "sta/compact_graph.hpp"
#include "tech/technology.hpp"

namespace gap::qor {
namespace {

using netlist::NetDriver;
using netlist::Netlist;
using netlist::NetSink;

// --- Gap-score model constants (documented in docs/qor.md) ---

/// Optimal stage effort of a well-sized chain, in tau (f = g*h ~ 4).
constexpr double kIdealStageEffortTau = 4.0;
/// The custom re-pipelining target of section 4: ~7 FO4-lean stages with
/// a 5% clock tree, vs. the ASIC defaults.
constexpr int kCustomPipelineStages = 7;
constexpr double kCustomSkewFraction = 0.05;
/// Fractions of the wire / sizing buckets a custom team actually claws
/// back (placement can shorten wires, not delete them; sizing converges
/// on most but not all of the excess effort).
constexpr double kWireRecoverableFraction = 0.5;
constexpr double kSizingRecoverableFraction = 0.6;
/// Domino vs static-CMOS ratios when the library carries no domino
/// family to measure them from (the builders' own characterization).
constexpr double kDominoEffortRatio = 0.60;
constexpr double kDominoParasiticRatio = 0.50;

/// g and p of the domino counterpart relative to the static cell,
/// measured from the library when it has the family.
struct DominoRatios {
  double effort = kDominoEffortRatio;
  double parasitic = kDominoParasiticRatio;
};

DominoRatios domino_ratios(const Netlist& nl, library::Func func) {
  DominoRatios r;
  const auto& doms = nl.lib().cells_of(func, library::Family::kDomino);
  if (doms.empty()) return r;
  const library::Cell& d = nl.lib().cell(doms.front());
  const library::FuncTraits& t = library::traits(func);
  if (t.logical_effort > 0.0) r.effort = d.logical_effort / t.logical_effort;
  if (t.parasitic > 0.0) r.parasitic = d.parasitic / t.parasitic;
  return r;
}

}  // namespace

PathAttribution attribute_path(const Netlist& nl,
                               const sta::CriticalPath& path,
                               const sta::StaOptions& options) {
  GAP_EXPECTS(options.instance_delay_factors == nullptr);
  PathAttribution a;
  a.delay_tau = path.path_tau;
  a.gates = path.nodes.size();
  if (path.nodes.empty()) return a;
  const sta::CompactGraph g(nl);

  // Walk the path accumulating *nominal* (pre-corner) pieces with the
  // exact formulas propagate() uses; the corner's uniform multiplier
  // falls out as the residual at the end.
  double nominal = 0.0;
  const auto add = [&nominal](double& bucket, double tau) {
    bucket += tau;
    nominal += tau;
  };

  // Launch: a PI-driven first gate pays the external driver's delay.
  const sta::PathNode& first = path.nodes.front();
  if (!nl.is_sequential(first.inst) && first.input_net.valid()) {
    const NetDriver& d = nl.net(first.input_net).driver;
    if (d.kind == NetDriver::Kind::kPrimaryInput) {
      const sta::WireModel wm = sta::wire_model(g, first.input_net, options);
      const double pi_delay =
          wm.driver_load_units / nl.port(d.port).ext_drive;
      add(a.logic_depth_tau, pi_delay);
      a.sequential_overhead_tau += pi_delay;
    }
  }

  for (const sta::PathNode& node : path.nodes) {
    const library::Cell& c = nl.cell_of(node.inst);
    const double load =
        sta::wire_model(g, nl.instance(node.inst).output, options)
            .driver_load_units;
    const double effort = load / nl.drive_of(node.inst);

    // Wire delay of the arrival-setting input net (placement's bucket).
    if (node.input_net.valid())
      add(a.placement_wire_tau,
          sta::wire_model(g, node.input_net, options).delay_tau);

    if (nl.is_sequential(node.inst)) {
      // Launch flop: the whole arc (parasitic + effort + clk-to-Q) is
      // sequential overhead the microarchitecture pays every cycle.
      const double arc = c.parasitic + effort + c.clk_to_q_tau;
      add(a.logic_depth_tau, arc);
      a.sequential_overhead_tau += arc;
      continue;
    }

    const double arc = c.parasitic + effort;
    const library::FuncTraits& t = library::traits(c.func);
    // Static-CMOS equivalent at equal input capacitance: drive adjusted
    // so g_st * s' == g * s, hence effort scales by g_st / g.
    const double g_ratio =
        c.logical_effort > 0.0 ? t.logical_effort / c.logical_effort : 1.0;
    const double static_equiv = t.parasitic + g_ratio * effort;
    const double ideal = t.parasitic + kIdealStageEffortTau;

    add(a.logic_depth_tau, ideal);
    add(a.sizing_tau, static_equiv - ideal);
    add(a.logic_style_tau, arc - static_equiv);

    if (c.family == library::Family::kStatic) {
      const DominoRatios r = domino_ratios(nl, c.func);
      const double dom_equiv =
          r.parasitic * c.parasitic + r.effort * effort;
      a.domino_headroom_tau += arc - dom_equiv;
    }
  }

  // Capture: endpoint wire, plus setup for a register endpoint.
  add(a.placement_wire_tau,
      sta::wire_model(g, path.endpoint_net, options).delay_tau);
  if (path.endpoint.kind == NetSink::Kind::kInstancePin &&
      nl.is_sequential(path.endpoint.inst)) {
    const double setup = nl.cell_of(path.endpoint.inst).setup_tau;
    add(a.logic_depth_tau, setup);
    a.sequential_overhead_tau += setup;
  }

  // The corner multiplies every piece uniformly; taking it as the
  // residual makes the five buckets an exact partition of delay_tau.
  a.process_margin_tau = a.delay_tau - nominal;
  return a;
}

GapScore gap_score(const PathAttribution& worst, const RunContext& ctx) {
  GapScore s;
  const double nominal = worst.delay_tau - worst.process_margin_tau;
  if (worst.delay_tau <= 0.0 || nominal <= 0.0) return s;
  const auto ratio_at_least_one = [](double num, double den) {
    return den > 0.0 ? std::max(1.0, num / den) : 1.0;
  };

  // Process: the signoff corner vs. selling speed-binned fast silicon
  // (section 8.3) — exactly the ratio core::decompose() measures,
  // because the min period scales linearly with the corner factor.
  s.process = ratio_at_least_one(ctx.corner_delay_factor,
                                 tech::corner_fast_bin().delay_factor);

  // Logic style: delay left on the table vs. a domino re-implementation
  // of the path's static gates (section 7). A run already using dynamic
  // logic has claimed it.
  if (!ctx.dynamic_logic)
    s.logic_style =
        ratio_at_least_one(nominal, nominal - worst.domino_headroom_tau);

  // Sizing / placement: a fraction of each bucket is realistically
  // recoverable (constants above).
  s.sizing = ratio_at_least_one(
      nominal,
      nominal - kSizingRecoverableFraction * std::max(0.0, worst.sizing_tau));
  s.placement_wire = ratio_at_least_one(
      nominal, nominal - kWireRecoverableFraction *
                             std::max(0.0, worst.placement_wire_tau));

  // Pipelining: re-partition the total combinational work into the
  // custom stage count with a custom clock tree (section 4). The total
  // work is estimated as worst-stage work x current depth, and the same
  // balance quality is assumed on both sides, so it cancels; at the
  // custom depth and skew the factor is exactly 1.
  const double seq = worst.sequential_overhead_tau;
  const double comb = nominal - seq;
  if (comb > 0.0 && ctx.pipeline_stages > 0) {
    const double period_now = nominal / (1.0 - ctx.skew_fraction);
    const double custom_stage_comb =
        comb * ctx.pipeline_stages / kCustomPipelineStages;
    const double period_custom =
        (custom_stage_comb + seq) / (1.0 - kCustomSkewFraction);
    s.pipelining = ratio_at_least_one(period_now, period_custom);
  }
  return s;
}

}  // namespace gap::qor
