#pragma once
/// \file sta_oracle.hpp
/// A deliberately naive longest-path static timing analysis, written from
/// the timing model (sta/sta.hpp, docs/incremental-sta.md) as an
/// independent reference for the soa suite. It includes nothing from
/// src/sta: it reads only the netlist, the cell library, the technology
/// and the wire:: models, and it walks the netlist by memoized recursion
/// instead of a levelized schedule.
///
/// Tolerance: none. Every quantity is evaluated in the operation order
/// the model specifies (left to right, the corner factor applied to each
/// arc, wire and setup term), so the suite compares results bit for bit.
/// The optimal-repeater branch is in scope (wire::plan_repeaters); Monte
/// Carlo per-instance delay factors are not.

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "netlist/netlist.hpp"
#include "wire/elmore.hpp"
#include "wire/repeaters.hpp"

namespace gap::oracle {

using netlist::NetDriver;
using netlist::NetSink;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct Options {
  double corner = 1.0;
  double skew_fraction = 0.10;
  double extra_skew_tau = 0.0;
  bool wire_delay = true;
  bool repeaters = false;
  double repeater_threshold_um = 400.0;
};

/// One endpoint (PO sink or register D pin) and its backtracked path.
struct Path {
  double path_tau = 0.0;
  NetId net;
  NetSink sink;
  std::vector<InstanceId> insts;     ///< launch to capture driver
  std::vector<NetId> input_nets;     ///< arrival-setting input per gate
  std::vector<double> arrivals_tau;  ///< at each gate's output
};

class Sta {
 public:
  Sta(const netlist::Netlist& nl, const Options& o)
      : nl_(nl), o_(o), t_(nl.lib().technology()),
        arr_(nl.num_nets(), std::nan("")), req_(arr_),
        crit_(nl.num_instances()) {
    for (NetId n : nl.all_nets()) wires_.push_back(wire(n));
  }

  /// Arrival at the driver pin of `n`; -inf for an undriven net.
  double arrival(NetId n) {
    double& a = arr_[n.index()];
    if (!std::isnan(a)) return a;
    const NetDriver& d = nl_.net(n).driver;
    a = -kInf;
    if (d.kind == NetDriver::Kind::kPrimaryInput)
      a = o_.corner * wires_[n.index()].load / nl_.port(d.port).ext_drive;
    else if (d.kind == NetDriver::Kind::kInstance)
      a = gate_output(d.inst);
    return a;
  }

  /// Every endpoint with an arrival, worst first; ties break on net id,
  /// then sink kind, then (instance, pin) or port id.
  std::vector<Path> endpoints() {
    std::vector<Path> out;
    for (NetId n : nl_.all_nets()) {
      if (arrival(n) == -kInf) continue;
      for (const NetSink& s : nl_.net(n).sinks) {
        const bool po = s.kind == NetSink::Kind::kPrimaryOutput;
        if (!po && !nl_.is_sequential(s.inst)) continue;
        double p = arrival(n) + wires_[n.index()].delay;
        if (!po) p = p + o_.corner * nl_.cell_of(s.inst).setup_tau;
        out.push_back(backtrack(p, n, s));
      }
    }
    const auto key = [](const Path& p) {
      const bool po = p.sink.kind == NetSink::Kind::kPrimaryOutput;
      return std::make_tuple(-p.path_tau, p.net.index(), p.sink.kind,
                             po ? p.sink.port.index() : p.sink.inst.index(),
                             po ? 0 : p.sink.pin);
    };
    std::sort(out.begin(), out.end(),
              [&](const Path& a, const Path& b) { return key(a) < key(b); });
    return out;
  }

  double period_tau(double worst_path_tau) const {
    return (worst_path_tau + o_.extra_skew_tau) / (1.0 - o_.skew_fraction);
  }

  /// Slack per net at `period`; +inf where unconstrained or undriven.
  std::vector<double> slacks(double period) {
    budget_ = period * (1.0 - o_.skew_fraction) - o_.extra_skew_tau;
    std::vector<double> out;
    for (NetId n : nl_.all_nets()) {
      const double r = required(n);
      out.push_back(arrival(n) == -kInf || r == kInf ? kInf : r - arrival(n));
    }
    return out;
  }

 private:
  struct Wire {
    double load;   ///< what the driver sees, in unit caps
    double delay;  ///< added at every sink, post-corner
  };

  Wire wire(NetId n) const {
    const netlist::Net& net = nl_.net(n);
    double pins = net.extra_cap_units;
    for (const NetSink& s : net.sinks)
      if (s.kind == NetSink::Kind::kInstancePin) pins += nl_.pin_cap(s.inst);
    const wire::WireSegment seg{net.length_um, net.width_multiple};
    Wire w{pins + wire::wire_cap_units(t_, seg), 0.0};
    if (!o_.wire_delay || net.length_um <= 0.0) return w;
    double tau = wire::elmore_delay_tau(t_, seg, pins);
    if (o_.repeaters && net.length_um > o_.repeater_threshold_um) {
      // The driver ramps a fanout-of-4 chain up into an optimally
      // repeated line when that beats the raw RC line (section 5).
      double drv = 1.0;
      if (net.driver.kind == NetDriver::Kind::kInstance)
        drv = nl_.drive_of(net.driver.inst);
      else if (net.driver.kind == NetDriver::Kind::kPrimaryInput)
        drv = nl_.port(net.driver.port).ext_drive;
      const wire::RepeaterPlan plan =
          wire::plan_repeaters(t_, seg, pins * t_.unit_inv_cin_ff);
      const double stages = std::ceil(
          std::log(std::max(1.0, plan.repeater_size / drv)) / std::log(4.0));
      const double ramp = stages * 5.0;
      const double line = t_.ps_to_tau(plan.delay_ps);
      if (4.0 + ramp + line < w.load / drv + tau) {  // 4: driver's FO4
        tau = ramp + line;
        w.load = 4.0 * drv;  // the first chain buffer
      }
    }
    w.delay = o_.corner * tau;
    return w;
  }

  double arc_tau(InstanceId id) const {
    const library::Cell& c = nl_.cell_of(id);
    const NetId out = nl_.instance(id).output;
    double d = c.parasitic + wires_[out.index()].load / nl_.drive_of(id);
    if (c.is_sequential()) d += c.clk_to_q_tau;
    return d;
  }

  double gate_output(InstanceId id) {
    double latest = 0.0;  // registers launch at the clock edge
    NetId crit;
    if (!nl_.is_sequential(id)) {
      latest = -kInf;
      for (NetId in : nl_.instance(id).inputs) {
        const double a = arrival(in) + wires_[in.index()].delay;
        if (a > latest) {
          latest = a;
          crit = in;
        }
      }
      if (latest == -kInf) latest = 0.0;  // floating inputs
    }
    crit_[id.index()] = crit;
    return latest + o_.corner * arc_tau(id);
  }

  Path backtrack(double path_tau, NetId net, const NetSink& sink) {
    Path p{path_tau, net, sink, {}, {}, {}};
    for (NetId n = net; nl_.net(n).driver.kind == NetDriver::Kind::kInstance;
         n = crit_[p.insts.front().index()]) {
      p.arrivals_tau.insert(p.arrivals_tau.begin(), arrival(n));
      p.insts.insert(p.insts.begin(), nl_.net(n).driver.inst);
      p.input_nets.insert(p.input_nets.begin(), crit_[p.insts[0].index()]);
      if (nl_.is_sequential(p.insts[0]) || !p.input_nets[0].valid()) break;
    }
    return p;
  }

  double required(NetId n) {
    double& r = req_[n.index()];
    if (!std::isnan(r)) return r;
    const double wd = wires_[n.index()].delay;
    r = kInf;
    for (const NetSink& s : nl_.net(n).sinks) {
      double q = kInf;
      if (s.kind == NetSink::Kind::kPrimaryOutput) {
        q = budget_ - wd;
      } else if (nl_.is_sequential(s.inst)) {
        q = budget_ - o_.corner * nl_.cell_of(s.inst).setup_tau - wd;
      } else if (const double out = required(nl_.instance(s.inst).output);
                 out != kInf) {
        q = out - o_.corner * arc_tau(s.inst) - wd;
      }
      r = std::min(r, q);
    }
    return r;
  }

  const netlist::Netlist& nl_;
  Options o_;
  const tech::Technology& t_;
  std::vector<Wire> wires_;
  std::vector<double> arr_, req_;  ///< NaN until computed
  std::vector<NetId> crit_;        ///< worst input per gate
  double budget_ = 0.0;
};

}  // namespace gap::oracle
