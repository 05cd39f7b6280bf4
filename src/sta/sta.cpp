#include "sta/sta.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sta/compact_graph.hpp"
#include "sta/kernels.hpp"

namespace gap::sta {
namespace {

using netlist::Netlist;
using netlist::NetSink;
using kern::kPosInf;

/// One-shot forward propagation: the graph it ran on plus the per-net
/// arrays it filled. Resident consumers (IncrementalTimer, MC-STA) keep
/// their graph instead of rebuilding it per call.
struct Propagation {
  CompactGraph g;
  detail::ArrivalState st;
};

Propagation propagate(const Netlist& nl, const StaOptions& opt) {
  GAP_TRACE_SPAN("sta::arrival_pass");
  // One batched add per pass (not per instance): exact totals under
  // MC-STA lanes, negligible cost on the serial path.
  static common::Counter& passes =
      common::metrics().counter("sta.arrival_passes");
  static common::Counter& props =
      common::metrics().counter("sta.arrival_propagations");
  passes.add();
  props.add(nl.num_instances());

  Propagation p{CompactGraph(nl), {}};
  compact_propagate(p.g, opt, p.st);
  return p;
}

/// Minimum arrival time per net (shortest paths) for hold analysis.
/// Only register-launched paths participate: hold at primary-input-fed
/// endpoints is an interface constraint, not an internal one, so PI nets
/// stay at +inf and purely PI-fed cones are skipped.
std::vector<double> min_arrivals(const CompactGraph& g,
                                 const StaOptions& opt) {
  std::vector<double> arrival(g.num_nets(), kPosInf);
  const double k = opt.corner_delay_factor;

  for (InstanceId id : g.order()) {
    double in_arr;
    if (g.is_sequential(id)) {
      in_arr = 0.0;  // launched by the clock edge
    } else {
      in_arr = kPosInf;
      for (NetId in : g.inputs(id))
        in_arr = std::min(in_arr, arrival[in.index()]);
      if (in_arr == kPosInf) continue;  // PI-only cone: no internal launch
    }
    const NetId out = g.output(id);
    const double d = k * kern::arc_delay(g, id, kern::net_load(g, out));
    arrival[out.index()] = std::min(arrival[out.index()], in_arr + d);
  }
  return arrival;
}

/// Calls fn(sink, hold slack) for every register D pin reached by a
/// register-launched path, in net order then sink order.
template <class Fn>
void for_each_hold_endpoint(const Netlist& nl, const StaOptions& opt,
                            double skew_abs_tau, Fn&& fn) {
  const CompactGraph g(nl);
  const std::vector<double> arrival = min_arrivals(g, opt);
  const double k = opt.corner_delay_factor;
  for (std::uint32_t i = 0; i < g.num_nets(); ++i) {
    if (arrival[i] == kPosInf) continue;
    for (const NetSink& s : g.sinks(NetId{i})) {
      if (s.kind != NetSink::Kind::kInstancePin || !g.is_sequential(s.inst))
        continue;
      const double hold = k * nl.cell_of(s.inst).hold_tau;
      fn(s, arrival[i] - hold - skew_abs_tau);
    }
  }
}

}  // namespace

WireModel wire_model(const CompactGraph& g, NetId id, const StaOptions& opt) {
  return kern::wire_model(g, id, opt);
}

TimingResult analyze(const Netlist& nl, const StaOptions& options) {
  GAP_TRACE_SPAN("sta::analyze");
  GAP_EXPECTS(options.clock.skew_fraction >= 0.0 &&
              options.clock.skew_fraction < 1.0);
  static common::Counter& analyses = common::metrics().counter("sta.analyses");
  analyses.add();
  const Propagation p = propagate(nl, options);
  const detail::WorstEndpoint e =
      kern::worst_endpoint_from_state(p.g, options, p.st);
  return kern::timing_result_from_state(p.g, options, p.st, e);
}

std::vector<CriticalPath> top_critical_paths(const Netlist& nl,
                                             const StaOptions& options,
                                             int k) {
  if (k <= 0) return {};
  const Propagation p = propagate(nl, options);
  return kern::top_paths_from_state(p.g, options, p.st, k);
}

std::vector<double> net_arrivals(const Netlist& nl, const StaOptions& options) {
  return propagate(nl, options).st.arrival;
}

std::vector<double> net_slacks(const Netlist& nl, const StaOptions& options,
                               double period_tau) {
  const Propagation p = propagate(nl, options);
  const double budget = detail::cycle_budget(options, period_tau);
  return kern::slacks_from_state(
      p.g, p.st, kern::compute_required(p.g, options, p.st, budget));
}

HoldResult analyze_hold(const Netlist& nl, const StaOptions& options,
                        double skew_abs_tau) {
  GAP_EXPECTS(skew_abs_tau >= 0.0);
  HoldResult r;
  r.worst_slack_tau = kPosInf;
  for_each_hold_endpoint(nl, options, skew_abs_tau,
                         [&r](const NetSink&, double slack) {
                           ++r.endpoints;
                           if (slack < r.worst_slack_tau)
                             r.worst_slack_tau = slack;
                           if (slack < 0.0) ++r.violations;
                         });
  if (r.endpoints == 0) r.worst_slack_tau = 0.0;
  return r;
}

int fix_hold(Netlist& nl, const StaOptions& options, double skew_abs_tau) {
  const library::CellLibrary& lib = nl.lib();
  const bool have_buf = lib.has(library::Func::kBuf, library::Family::kStatic);
  int added = 0;

  for (int pass = 0; pass < 16; ++pass) {
    std::vector<NetSink> fixes;
    for_each_hold_endpoint(nl, options, skew_abs_tau,
                           [&fixes](const NetSink& s, double slack) {
                             if (slack < 0.0) fixes.push_back(s);
                           });
    if (fixes.empty()) return added;
    for (const NetSink& f : fixes) {
      // One delay element in front of the violating D pin.
      const NetId src = nl.instance(f.inst).inputs[f.pin];
      const NetId delayed = nl.add_net(nl.fresh_name("holdnet"));
      if (have_buf) {
        const CellId buf =
            *lib.smallest(library::Func::kBuf, library::Family::kStatic);
        nl.add_instance(nl.fresh_name("holdbuf"), buf, {src}, delayed);
        ++added;
      } else {
        const CellId inv =
            *lib.smallest(library::Func::kInv, library::Family::kStatic);
        const NetId mid = nl.add_net(nl.fresh_name("holdmid"));
        nl.add_instance(nl.fresh_name("holda"), inv, {src}, mid);
        nl.add_instance(nl.fresh_name("holdb"), inv, {mid}, delayed);
        added += 2;
      }
      nl.rewire_input(f.inst, f.pin, delayed);
    }
  }
  return added;
}

}  // namespace gap::sta
