#include "netlist/checks.hpp"

#include <algorithm>
#include <queue>

namespace gap::netlist {
namespace {

/// Combinational fanin instances of `id` (inputs driven by non-sequential
/// instances).
void for_each_comb_fanin(const Netlist& nl, InstanceId id,
                         const auto& callback) {
  for (NetId in : nl.instance(id).inputs) {
    const NetDriver& d = nl.net(in).driver;
    if (d.kind == NetDriver::Kind::kInstance && !nl.is_sequential(d.inst))
      callback(d.inst);
  }
}

/// Kahn's algorithm over the combinational fanout graph. If `leftover` is
/// non-null, the combinational instances that never became ready (i.e. the
/// members of cycles and their downstream cone) are collected there.
std::vector<InstanceId> topo_order_impl(const Netlist& nl,
                                        std::vector<InstanceId>* leftover) {
  const std::size_t n = nl.num_instances();
  std::vector<int> pending(n, 0);
  std::vector<bool> emitted(n, false);
  std::vector<InstanceId> order;
  order.reserve(n);
  std::queue<InstanceId> ready;

  for (InstanceId id : nl.all_instances()) {
    if (nl.is_sequential(id)) {
      // Sequential elements break combinational dependencies.
      order.push_back(id);
      emitted[id.index()] = true;
      continue;
    }
    int count = 0;
    for_each_comb_fanin(nl, id, [&](InstanceId) { ++count; });
    pending[id.index()] = count;
    if (count == 0) ready.push(id);
  }

  std::size_t emitted_comb = 0;
  while (!ready.empty()) {
    const InstanceId id = ready.front();
    ready.pop();
    order.push_back(id);
    emitted[id.index()] = true;
    ++emitted_comb;
    for (const NetSink& s : nl.net(nl.instance(id).output).sinks) {
      if (s.kind != NetSink::Kind::kInstancePin) continue;
      if (nl.is_sequential(s.inst)) continue;
      if (--pending[s.inst.index()] == 0) ready.push(s.inst);
    }
  }

  const std::size_t comb_total = n - nl.num_sequential();
  if (emitted_comb != comb_total) {
    if (leftover)
      for (InstanceId id : nl.all_instances())
        if (!emitted[id.index()]) leftover->push_back(id);
    return {};  // cycle
  }
  return order;
}

}  // namespace

std::vector<StructuralViolation> structural_scan(const Netlist& nl) {
  std::vector<StructuralViolation> out;
  auto add = [&](StructuralViolation::Kind kind, NetId net, InstanceId inst,
                 std::string msg) {
    StructuralViolation v;
    v.kind = kind;
    v.net = net;
    v.inst = inst;
    v.message = std::move(msg);
    out.push_back(std::move(v));
  };
  using Kind = StructuralViolation::Kind;

  // Driver multiplicity: each net must have at most one source (a primary
  // input or one instance output). The Net::driver field can only record
  // one, so count claims independently of it.
  std::vector<int> driver_claims(nl.num_nets(), 0);
  for (PortId p : nl.all_ports())
    if (nl.port(p).is_input) ++driver_claims[nl.port(p).net.index()];
  for (InstanceId iid : nl.all_instances()) {
    const NetId out_net = nl.instance(iid).output;
    if (out_net.valid() && out_net.index() < nl.num_nets())
      ++driver_claims[out_net.index()];
  }
  for (NetId nid : nl.all_nets())
    if (driver_claims[nid.index()] > 1)
      add(Kind::kMultiplyDriven, nid, InstanceId{},
          "net '" + nl.net(nid).name + "' has " +
              std::to_string(driver_claims[nid.index()]) + " drivers");

  for (NetId nid : nl.all_nets()) {
    const Net& n = nl.net(nid);
    if (n.driver.kind == NetDriver::Kind::kNone && !n.sinks.empty())
      add(Kind::kUndriven, nid, InstanceId{},
          "net '" + n.name + "' has sinks but no driver");
    for (const NetSink& s : n.sinks) {
      if (s.kind != NetSink::Kind::kInstancePin) continue;
      const Instance& inst = nl.instance(s.inst);
      if (s.pin < 0 || s.pin >= static_cast<int>(inst.inputs.size()) ||
          inst.inputs[s.pin] != nid)
        add(Kind::kSinkMismatch, nid, s.inst,
            "net '" + n.name + "' sink list inconsistent with instance '" +
                inst.name + "'");
    }
  }

  for (InstanceId iid : nl.all_instances()) {
    const Instance& inst = nl.instance(iid);
    const library::Cell& c = nl.lib().cell(inst.cell);
    if (static_cast<int>(inst.inputs.size()) != c.num_inputs())
      add(Kind::kPinCountMismatch, NetId{}, iid,
          "instance '" + inst.name + "' pin count mismatch");
    const Net& out_net = nl.net(inst.output);
    if (out_net.driver.kind != NetDriver::Kind::kInstance ||
        out_net.driver.inst != iid)
      add(Kind::kOutputDriverMismatch, NetId{}, iid,
          "instance '" + inst.name + "' output net driver mismatch");
  }

  std::vector<InstanceId> on_cycle;
  if (topo_order_impl(nl, &on_cycle).empty() && nl.num_instances() > 0) {
    // Deduplicated, sorted member names: the message must not depend on
    // instance construction order (or on aliased names appearing twice).
    std::vector<std::string> names;
    names.reserve(on_cycle.size());
    for (InstanceId id : on_cycle) names.push_back(nl.instance(id).name);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    std::string msg = "combinational cycle detected involving:";
    const std::size_t shown = std::min<std::size_t>(names.size(), 8);
    for (std::size_t i = 0; i < shown; ++i)
      msg += (i ? ", '" : " '") + names[i] + "'";
    if (names.size() > shown)
      msg += " (+" + std::to_string(names.size() - shown) + " more)";
    add(Kind::kCombinationalCycle, NetId{}, InstanceId{}, std::move(msg));
  }

  return out;
}

CheckResult verify(const Netlist& nl) {
  CheckResult r;
  for (StructuralViolation& v : structural_scan(nl)) {
    common::Diagnostic d;
    d.severity = common::Severity::kError;
    d.code = common::ErrorCode::kStructural;
    d.message = std::move(v.message);
    d.where = "netlist:" + nl.name();
    r.diagnostics.push_back(std::move(d));
  }
  return r;
}

std::vector<InstanceId> topo_order(const Netlist& nl) {
  return topo_order_impl(nl, nullptr);
}

int logic_depth(const Netlist& nl) {
  const auto order = topo_order(nl);
  if (order.empty() && nl.num_instances() > 0) return -1;
  std::vector<int> depth(nl.num_instances(), 0);
  int max_depth = 0;
  for (InstanceId id : order) {
    if (nl.is_sequential(id)) continue;
    int d = 0;
    for_each_comb_fanin(nl, id,
                        [&](InstanceId f) { d = std::max(d, depth[f.index()]); });
    depth[id.index()] = d + 1;
    max_depth = std::max(max_depth, d + 1);
  }
  return max_depth;
}

}  // namespace gap::netlist
