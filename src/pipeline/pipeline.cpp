#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"
#include "netlist/checks.hpp"

namespace gap::pipeline {
namespace {

using library::Family;
using library::Func;
using netlist::NetDriver;
using netlist::Netlist;

/// Per-instance gate delay estimate (tau) for stage assignment. Sizing
/// and fanout buffering run after pipelining and equalize every gate's
/// electrical effort to about 4, so the assignment uses parasitic + 4
/// rather than the raw pre-sizing loads (whose fanout spikes would skew
/// the balance toward nets that buffering will fix anyway).
std::vector<double> gate_delays(const Netlist& nl) {
  constexpr double kPostSizingEffort = 4.0;
  std::vector<double> d(nl.num_instances());
  for (InstanceId id : nl.all_instances())
    d[id.index()] = nl.cell_of(id).parasitic + kPostSizingEffort;
  return d;
}

struct Assignment {
  std::vector<int> stage;          ///< per instance
  std::vector<double> stage_delay; ///< per stage: worst in-stage arrival
  bool feasible = true;
};

/// Greedy topological packing under a per-stage delay budget `c`.
/// Returns stage indices and the number of stages used.
Assignment pack(const Netlist& nl, const std::vector<InstanceId>& order,
                const std::vector<double>& d, double c, int max_stages) {
  Assignment a;
  a.stage.assign(nl.num_instances(), 0);
  std::vector<double> arr(nl.num_instances(), 0.0);  // in-stage arrival
  int used = 0;
  for (InstanceId id : order) {
    int s = 0;
    double in_arr = 0.0;
    for (NetId in : nl.instance(id).inputs) {
      const NetDriver& drv = nl.net(in).driver;
      if (drv.kind != NetDriver::Kind::kInstance) continue;
      const auto u = drv.inst.index();
      if (a.stage[u] > s) {
        s = a.stage[u];
        in_arr = arr[u];
      } else if (a.stage[u] == s) {
        in_arr = std::max(in_arr, arr[u]);
      }
    }
    if (in_arr + d[id.index()] > c) {
      ++s;
      in_arr = 0.0;
      if (d[id.index()] > c) a.feasible = false;  // single gate exceeds c
    }
    if (s >= max_stages) {
      a.feasible = false;
      s = max_stages - 1;
    }
    a.stage[id.index()] = s;
    arr[id.index()] = in_arr + d[id.index()];
    used = std::max(used, s + 1);
  }
  a.stage_delay.assign(static_cast<std::size_t>(max_stages), 0.0);
  for (InstanceId id : nl.all_instances())
    a.stage_delay[static_cast<std::size_t>(a.stage[id.index()])] = std::max(
        a.stage_delay[static_cast<std::size_t>(a.stage[id.index()])],
        arr[id.index()]);
  return a;
}

/// Naive equal-threshold assignment by arrival fraction.
Assignment naive_assign(const Netlist& nl, const std::vector<InstanceId>& order,
                        const std::vector<double>& d, int stages) {
  // Plain arrival DP.
  std::vector<double> arr(nl.num_instances(), 0.0);
  double total = 0.0;
  for (InstanceId id : order) {
    double in_arr = 0.0;
    for (NetId in : nl.instance(id).inputs) {
      const NetDriver& drv = nl.net(in).driver;
      if (drv.kind == NetDriver::Kind::kInstance)
        in_arr = std::max(in_arr, arr[drv.inst.index()]);
    }
    arr[id.index()] = in_arr + d[id.index()];
    total = std::max(total, arr[id.index()]);
  }

  Assignment a;
  a.stage.assign(nl.num_instances(), 0);
  if (total <= 0.0) {
    a.stage_delay.assign(static_cast<std::size_t>(stages), 0.0);
    return a;
  }
  for (InstanceId id : nl.all_instances()) {
    int s = static_cast<int>(arr[id.index()] / total * stages);
    a.stage[id.index()] = std::min(s, stages - 1);
  }
  // In-stage arrival recomputation for stage delays.
  std::vector<double> sarr(nl.num_instances(), 0.0);
  a.stage_delay.assign(static_cast<std::size_t>(stages), 0.0);
  for (InstanceId id : order) {
    double in_arr = 0.0;
    for (NetId in : nl.instance(id).inputs) {
      const NetDriver& drv = nl.net(in).driver;
      if (drv.kind == NetDriver::Kind::kInstance &&
          a.stage[drv.inst.index()] == a.stage[id.index()])
        in_arr = std::max(in_arr, sarr[drv.inst.index()]);
    }
    sarr[id.index()] = in_arr + d[id.index()];
    auto& sd = a.stage_delay[static_cast<std::size_t>(a.stage[id.index()])];
    sd = std::max(sd, sarr[id.index()]);
  }
  return a;
}

}  // namespace

PipelineResult pipeline_insert(const Netlist& comb,
                               const PipelineOptions& options) {
  GAP_EXPECTS(options.stages >= 1);
  GAP_EXPECTS(comb.num_sequential() == 0);
  const library::CellLibrary& lib = comb.lib();
  GAP_EXPECTS(lib.has(Func::kDff, Family::kStatic));
  const CellId reg_cell = *lib.smallest(Func::kDff, Family::kStatic);

  const auto order = netlist::topo_order(comb);
  const auto d = gate_delays(comb);

  Assignment assign;
  if (options.balanced && options.stages > 1) {
    // Binary search the stage-delay bound.
    double lo = 0.0, hi = 0.0;
    for (InstanceId id : comb.all_instances()) {
      lo = std::max(lo, d[id.index()]);
      hi += d[id.index()];
    }
    for (int iter = 0; iter < 40; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (pack(comb, order, d, mid, options.stages).feasible)
        hi = mid;
      else
        lo = mid;
    }
    assign = pack(comb, order, d, hi, options.stages);
    GAP_ENSURES(assign.feasible);
  } else {
    assign = naive_assign(comb, order, d, options.stages);
  }

  // --- rebuild with registers ---
  PipelineResult result{Netlist(comb.name() + "_p" +
                                    std::to_string(options.stages),
                                &lib),
                        {}, 0};
  Netlist& nl = result.nl;

  // Map from (old net, rank count consumed) to the new net. Key packs the
  // old net id and the number of register ranks already applied.
  std::unordered_map<std::uint64_t, NetId> at_rank;
  std::vector<NetId> base_net(comb.num_nets());      // new net at source stage
  std::vector<int> src_stage(comb.num_nets(), 0);

  auto key_of = [](NetId n, int ranks) {
    return (static_cast<std::uint64_t>(n.value()) << 16) |
           static_cast<std::uint64_t>(ranks);
  };

  auto add_reg = [&](NetId input) {
    const NetId q = nl.add_net(nl.fresh_name("pq"));
    nl.add_instance(nl.fresh_name("preg"), reg_cell, {input}, q);
    ++result.registers_added;
    return q;
  };

  /// New net for old net `n` as seen by a consumer at stage `stage`.
  auto net_at_stage = [&](NetId n, int stage) {
    const int delta = stage - src_stage[n.index()];
    GAP_EXPECTS(delta >= 0);
    NetId cur = base_net[n.index()];
    for (int k = 1; k <= delta; ++k) {
      const std::uint64_t key = key_of(n, k);
      auto it = at_rank.find(key);
      if (it == at_rank.end())
        it = at_rank.emplace(key, add_reg(cur)).first;
      cur = it->second;
    }
    return cur;
  };

  // Ports: inputs pass through an input register rank.
  for (PortId pid : comb.all_ports()) {
    const netlist::Port& port = comb.port(pid);
    if (!port.is_input) continue;
    const PortId np = nl.add_input(port.name, port.ext_drive);
    const NetId q = add_reg(nl.port(np).net);
    base_net[port.net.index()] = q;
    src_stage[port.net.index()] = 0;
  }

  // Instances in topological order.
  for (InstanceId id : order) {
    const netlist::Instance& inst = comb.instance(id);
    const int stage = assign.stage[id.index()];
    std::vector<NetId> ins;
    ins.reserve(inst.inputs.size());
    for (NetId in : inst.inputs) ins.push_back(net_at_stage(in, stage));
    const NetId out = nl.add_net(nl.fresh_name("pn"));
    const InstanceId ni = nl.add_instance(inst.name, inst.cell, ins, out);
    nl.instance(ni).drive_override = inst.drive_override;
    base_net[inst.output.index()] = out;
    src_stage[inst.output.index()] = stage;
  }

  // Outputs: bring to the last stage, then one output register rank.
  for (PortId pid : comb.all_ports()) {
    const netlist::Port& port = comb.port(pid);
    if (port.is_input) continue;
    const NetId aligned = net_at_stage(port.net, options.stages - 1);
    const NetId q = add_reg(aligned);
    nl.add_output(port.name, q);
  }

  result.stage_delays_tau = assign.stage_delay;
  GAP_ENSURES(netlist::verify(nl).ok());
  return result;
}

double ideal_pipeline_speedup(int stages, double overhead) {
  GAP_EXPECTS(stages >= 1);
  GAP_EXPECTS(overhead >= 0.0);
  return static_cast<double>(stages) / (1.0 + overhead);
}

}  // namespace gap::pipeline
