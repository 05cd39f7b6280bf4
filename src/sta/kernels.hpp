#pragma once
/// \file kernels.hpp
/// The timing arithmetic of every STA engine, written once over
/// sta::CompactGraph. sta::analyze / net_slacks / top_critical_paths,
/// Monte Carlo STA and the incremental timer all evaluate each formula
/// through these inline functions, so a batch query and a resident query
/// execute the same expression trees over the same stored doubles and
/// agree bit-for-bit at any thread count. tests/incremental_sta_test.cpp
/// enforces the batch-vs-incremental half of that contract;
/// tests/soa_graph_test.cpp checks the kernels against an independent
/// textbook STA (tests/sta_oracle.hpp) that shares none of this code.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "netlist/netlist.hpp"
#include "sta/compact_graph.hpp"
#include "sta/propagation.hpp"
#include "sta/sta.hpp"
#include "wire/repeaters.hpp"

namespace gap::sta::kern {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();
inline constexpr double kPosInf = std::numeric_limits<double>::infinity();

/// Nets longer than this take the optimal-repeater branch of the wire
/// model when StaOptions::optimal_repeaters is set.
inline constexpr double kRepeaterThresholdUm = 400.0;

/// Arc delay of an instance driving the given load, in tau (pre-corner).
[[nodiscard]] inline double arc_delay(const CompactGraph& g, InstanceId id,
                                      double load_units) {
  double d = g.parasitic(id) + load_units / g.drive(id);
  if (g.is_sequential(id)) d += g.clk_to_q(id);
  return d;
}

/// Arrival a primary input drives onto its net: the external driver of
/// the port's declared strength charging the net's load.
[[nodiscard]] inline double pi_arrival(const CompactGraph& g,
                                       const StaOptions& opt,
                                       const detail::ArrivalState& st,
                                       PortId pid) {
  return opt.corner_delay_factor * st.driver_load[g.port_net(pid).index()] /
         g.port_ext_drive(pid);
}

/// Arrival at the output of `id` given the current input arrivals, with
/// the worst (arrival-setting) input reported through `crit_out`
/// (invalid for sequential launches and floating-input cones).
[[nodiscard]] inline double instance_arrival(const CompactGraph& g,
                                             const StaOptions& opt,
                                             const detail::ArrivalState& st,
                                             InstanceId id, NetId* crit_out) {
  NetId crit;
  double in_arr = 0.0;
  if (!g.is_sequential(id)) {  // sequential: launched by the clock edge
    in_arr = kNegInf;
    for (NetId in : g.inputs(id)) {
      const double a = st.arrival[in.index()] + st.wire_delay[in.index()];
      if (a > in_arr) {
        in_arr = a;
        crit = in;
      }
    }
    if (in_arr == kNegInf) in_arr = 0.0;  // undriven (floating) inputs
  }
  if (crit_out != nullptr) *crit_out = crit;
  return in_arr +
         opt.corner_delay_factor * detail::inst_factor(opt, id) *
             arc_delay(g, id, st.driver_load[g.output(id).index()]);
}

/// Compute-and-store form used by the full forward pass.
inline void relax_instance(const CompactGraph& g, const StaOptions& opt,
                           detail::ArrivalState& st, InstanceId id) {
  NetId crit;
  const double a = instance_arrival(g, opt, st, id, &crit);
  st.crit_input[id.index()] = crit;
  st.arrival[g.output(id).index()] = a;
}

/// Full path delay at one timing endpoint — a primary-output sink or a
/// sequential D pin (launch through gates and wires plus capture setup).
/// -inf when the sink is not an endpoint or the net has no arrival.
[[nodiscard]] inline double endpoint_path_tau(const CompactGraph& g,
                                              const StaOptions& opt,
                                              const detail::ArrivalState& st,
                                              NetId net,
                                              const netlist::NetSink& sink) {
  if (st.arrival[net.index()] == kNegInf) return kNegInf;
  if (sink.kind == netlist::NetSink::Kind::kPrimaryOutput)
    return st.arrival[net.index()] + st.wire_delay[net.index()];
  if (g.is_sequential(sink.inst))
    return st.arrival[net.index()] + st.wire_delay[net.index()] +
           opt.corner_delay_factor * detail::inst_factor(opt, sink.inst) *
               g.setup(sink.inst);
  return kNegInf;
}

/// Required time at `net` for the given data budget, recomputed from all
/// of its sinks: endpoint seeds (budget minus capture setup minus wire)
/// min'd with each combinational sink's propagated requirement. Because
/// min over doubles is an exact selection, accumulating per sink is
/// bit-identical in any sink order. `required` must already hold final
/// values for every sink instance's output net.
[[nodiscard]] inline double required_of_net(
    const CompactGraph& g, const StaOptions& opt,
    const detail::ArrivalState& st, const std::vector<double>& required,
    double budget, NetId net) {
  const double k = opt.corner_delay_factor;
  double out = kPosInf;
  for (const netlist::NetSink& s : g.sinks(net)) {
    double req = kPosInf;
    if (s.kind == netlist::NetSink::Kind::kPrimaryOutput) {
      req = budget - st.wire_delay[net.index()];
    } else if (g.is_sequential(s.inst)) {
      req = budget - k * g.setup(s.inst) - st.wire_delay[net.index()];
    } else {
      const NetId sink_out = g.output(s.inst);
      const double req_out = required[sink_out.index()];
      if (req_out != kPosInf) {
        const double req_in =
            req_out - k * detail::inst_factor(opt, s.inst) *
                          arc_delay(g, s.inst,
                                    st.driver_load[sink_out.index()]);
        req = req_in - st.wire_delay[net.index()];
      }
    }
    out = std::min(out, req);
  }
  return out;
}

/// Full backward pass: required time for every net at the given budget.
[[nodiscard]] inline std::vector<double> compute_required(
    const CompactGraph& g, const StaOptions& opt,
    const detail::ArrivalState& st, double budget) {
  std::vector<double> required(g.num_nets(), kPosInf);
  const std::vector<InstanceId>& order = g.order();
  // Reverse topological order: every combinational sink's output net is
  // final before the nets feeding it are computed. Sequential instances
  // sit at the front of `order`, so their output nets come last here —
  // after every combinational consumer has a final requirement.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NetId out = g.output(*it);
    required[out.index()] =
        required_of_net(g, opt, st, required, budget, out);
  }
  // Nets without an instance driver (primary inputs, floating nets) feed
  // nothing upstream; compute them last, in net order.
  for (std::uint32_t i = 0; i < g.num_nets(); ++i) {
    const NetId nid{i};
    if (g.driver(nid).kind == netlist::NetDriver::Kind::kInstance) continue;
    required[nid.index()] =
        required_of_net(g, opt, st, required, budget, nid);
  }
  return required;
}

/// Slack per net (required - arrival); +inf for unconstrained nets.
[[nodiscard]] inline std::vector<double> slacks_from_state(
    const CompactGraph& g, const detail::ArrivalState& st,
    const std::vector<double>& required) {
  std::vector<double> slack(g.num_nets(), kPosInf);
  for (std::uint32_t i = 0; i < g.num_nets(); ++i) {
    const NetId nid{i};
    if (st.arrival[nid.index()] == kNegInf ||
        required[nid.index()] == kPosInf)
      continue;
    slack[nid.index()] = required[nid.index()] - st.arrival[nid.index()];
  }
  return slack;
}

/// The worst endpoint over the whole design; ties go to the first net in
/// id order, then the first sink in sink order.
[[nodiscard]] inline detail::WorstEndpoint worst_endpoint_from_state(
    const CompactGraph& g, const StaOptions& opt,
    const detail::ArrivalState& st) {
  detail::WorstEndpoint e{kNegInf, NetId{}, 0};
  for (std::uint32_t i = 0; i < g.num_nets(); ++i) {
    const NetId nid{i};
    if (st.arrival[nid.index()] == kNegInf) continue;
    for (const netlist::NetSink& s : g.sinks(nid)) {
      if (s.kind != netlist::NetSink::Kind::kPrimaryOutput &&
          !(s.kind == netlist::NetSink::Kind::kInstancePin &&
            g.is_sequential(s.inst)))
        continue;
      const double path = endpoint_path_tau(g, opt, st, nid, s);
      ++e.count;
      if (path > e.path_tau) {
        e.path_tau = path;
        e.net = nid;
      }
    }
  }
  return e;
}

/// TimingResult (period conversion + critical-path backtrack) from an
/// already-propagated state and a chosen worst endpoint.
[[nodiscard]] inline TimingResult timing_result_from_state(
    const CompactGraph& g, const StaOptions& opt,
    const detail::ArrivalState& st, const detail::WorstEndpoint& worst) {
  TimingResult r;
  r.num_endpoints = worst.count;
  if (worst.count == 0 || worst.path_tau == kNegInf) return r;
  r.worst_path_tau = worst.path_tau;
  r.min_period_tau = (worst.path_tau + opt.clock.extra_skew_tau) /
                     (1.0 - opt.clock.skew_fraction);
  const tech::Technology& t = g.technology();
  r.min_period_ps = t.tau_to_ps(r.min_period_tau);
  r.min_period_fo4 = t.tau_to_fo4(r.min_period_tau);

  // Trace the critical path back from the worst endpoint, keeping each
  // instance's output arrival so reports need no second sweep.
  NetId net = worst.net;
  while (net.valid()) {
    const netlist::NetDriver& d = g.driver(net);
    if (d.kind != netlist::NetDriver::Kind::kInstance) break;
    r.critical_path.push_back(d.inst);
    r.critical_path_arrival_tau.push_back(st.arrival[net.index()]);
    if (g.is_sequential(d.inst)) break;  // launch point
    net = st.crit_input[d.inst.index()];
  }
  std::reverse(r.critical_path.begin(), r.critical_path.end());
  std::reverse(r.critical_path_arrival_tau.begin(),
               r.critical_path_arrival_tau.end());
  return r;
}

/// The k worst distinct endpoints with full backtracked paths, shared by
/// sta::top_critical_paths and the incremental timer.
[[nodiscard]] inline std::vector<CriticalPath> top_paths_from_state(
    const CompactGraph& g, const StaOptions& opt,
    const detail::ArrivalState& st, int k) {
  using netlist::NetSink;
  std::vector<CriticalPath> out;
  if (k <= 0) return out;

  // Every timing endpoint with its full path delay.
  struct Candidate {
    double path_tau;
    NetId net;
    NetSink sink;
  };
  std::vector<Candidate> candidates;
  for (std::uint32_t i = 0; i < g.num_nets(); ++i) {
    const NetId nid{i};
    if (st.arrival[nid.index()] == kNegInf) continue;
    for (const NetSink& s : g.sinks(nid)) {
      if (s.kind != NetSink::Kind::kPrimaryOutput &&
          !(s.kind == NetSink::Kind::kInstancePin &&
            g.is_sequential(s.inst)))
        continue;
      candidates.push_back({endpoint_path_tau(g, opt, st, nid, s), nid, s});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.path_tau != b.path_tau) return a.path_tau > b.path_tau;
              if (a.net.index() != b.net.index())
                return a.net.index() < b.net.index();
              if (a.sink.kind != b.sink.kind) return a.sink.kind < b.sink.kind;
              if (a.sink.kind == NetSink::Kind::kInstancePin) {
                if (a.sink.inst.index() != b.sink.inst.index())
                  return a.sink.inst.index() < b.sink.inst.index();
                return a.sink.pin < b.sink.pin;
              }
              return a.sink.port.index() < b.sink.port.index();
            });
  if (candidates.size() > static_cast<std::size_t>(k))
    candidates.resize(static_cast<std::size_t>(k));

  for (const Candidate& c : candidates) {
    CriticalPath path;
    path.endpoint_net = c.net;
    path.endpoint = c.sink;
    path.path_tau = c.path_tau;
    // Backtrack through the worst-input chain, as analyze() does.
    NetId net = c.net;
    while (net.valid()) {
      const netlist::NetDriver& d = g.driver(net);
      if (d.kind != netlist::NetDriver::Kind::kInstance) break;
      PathNode node;
      node.inst = d.inst;
      node.arrival_tau = st.arrival[g.output(d.inst).index()];
      if (!g.is_sequential(d.inst))
        node.input_net = st.crit_input[d.inst.index()];
      path.nodes.push_back(node);
      if (g.is_sequential(d.inst)) break;  // launch point
      net = st.crit_input[d.inst.index()];
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    out.push_back(std::move(path));
  }
  return out;
}

/// Total capacitive load on a net (pins + wire + extra), in unit caps —
/// the same expression order as netlist::Netlist::net_load.
[[nodiscard]] inline double net_load(const CompactGraph& g, NetId id) {
  double load = g.net_extra_cap_units(id);
  for (const netlist::NetSink& s : g.sinks(id))
    if (s.kind == netlist::NetSink::Kind::kInstancePin)
      load += g.pin_cap(s.inst);
  load += g.technology().cap_to_units(
      g.technology().wire_c_ff_per_um * g.net_length_um(id));
  return load;
}

/// Wire modeling of one net: delay added at every sink, and the load the
/// driver actually sees. For a long net with optimal repeaters, the first
/// repeater sits adjacent to the driver, so the driver is unloaded from
/// the wire and the repeated-line delay covers everything to the sinks.
[[nodiscard]] inline WireModel wire_model(const CompactGraph& g, NetId id,
                                   const StaOptions& opt) {
  WireModel m;
  m.driver_load_units = net_load(g, id);
  if (g.net_length_um(id) <= 0.0) return m;
  const tech::Technology& t = g.technology();

  double sink_units = g.net_extra_cap_units(id);
  for (const netlist::NetSink& s : g.sinks(id))
    if (s.kind == netlist::NetSink::Kind::kInstancePin)
      sink_units += g.pin_cap(s.inst);

  const wire::WireSegment seg{g.net_length_um(id)};
  m.delay_tau = wire::elmore_delay_tau(t, seg, sink_units);

  if (opt.optimal_repeaters && g.net_length_um(id) > kRepeaterThresholdUm) {
    // "Proper driving" (section 5): a fanout-of-4 buffer chain ramps up
    // from the net's driver to the plan's repeater size, then the
    // optimally repeated line carries the signal to the sinks. Pick
    // whichever model (raw RC vs ramp + repeated line) is faster,
    // including the driver's own effort delay in the comparison.
    double drv = 1.0;
    const netlist::NetDriver& d = g.driver(id);
    if (d.kind == netlist::NetDriver::Kind::kInstance)
      drv = g.drive(d.inst);
    else if (d.kind == netlist::NetDriver::Kind::kPrimaryInput)
      drv = g.port_ext_drive(d.port);

    const wire::RepeaterPlan plan =
        wire::plan_repeaters(t, seg, sink_units * t.unit_inv_cin_ff);
    const double ratio = std::max(1.0, plan.repeater_size / drv);
    const double ramp_stages = std::ceil(std::log(ratio) / std::log(4.0));
    const double ramp_tau = ramp_stages * 5.0;  // FO4 per chain stage
    const double repeated_total =
        4.0 + ramp_tau + t.ps_to_tau(plan.delay_ps);  // 4.0 = driver FO4 load
    const double raw_total = m.driver_load_units / drv + m.delay_tau;
    if (repeated_total < raw_total) {
      m.delay_tau = ramp_tau + t.ps_to_tau(plan.delay_ps);
      m.driver_load_units = 4.0 * drv;  // first chain buffer
    }
  }
  return m;
}

}  // namespace gap::sta::kern
