#include "synth/mapper.hpp"

#include <limits>
#include <unordered_map>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "logic/transforms.hpp"
#include "netlist/checks.hpp"

namespace gap::synth {
namespace {

using library::CellLibrary;
using library::Family;
using library::Func;
using logic::Aig;
using logic::Lit;
using logic::NodeKind;
using netlist::Netlist;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Assumed electrical effort (Cload/Cin) per stage for delay estimation
/// during matching. 4.0 corresponds to FO4-style loading.
constexpr double kEstStageEffort = 4.0;

/// A DP state leaf: a node required in positive or negative polarity.
struct Leaf {
  std::uint32_t node = 0;
  bool positive = true;
};

/// A candidate cover of a (node, polarity) state.
struct Match {
  CellId cell;
  std::vector<Leaf> leaves;  ///< in cell pin order
};

class Mapper {
 public:
  Mapper(const Aig& aig, const CellLibrary& lib, const MapOptions& opt)
      : aig_(aig), lib_(lib), opt_(opt) {
    GAP_EXPECTS(pick(Func::kInv).has_value());
    count_refs();
    run_dp();
  }

  MapResult extract(Netlist& nl, const std::vector<NetId>& input_nets,
                    const std::string& prefix) {
    GAP_EXPECTS(input_nets.size() == aig_.num_pis());
    nl_ = &nl;
    inputs_ = &input_nets;
    prefix_ = prefix;
    net_memo_.clear();

    MapResult r;
    for (std::size_t i = 0; i < aig_.num_pos(); ++i) {
      const Lit po = aig_.po(i);
      GAP_EXPECTS(po.node() != 0);  // constant outputs unsupported
      r.outputs.push_back(ensure_net(po.node(), !po.complemented()));
    }
    return r;
  }

 private:
  // --- library access ---

  /// Preferred-family cell for a function (smallest drive), falling back
  /// to static.
  [[nodiscard]] std::optional<CellId> pick(Func f) const {
    if (auto c = lib_.smallest(f, opt_.family)) return c;
    if (opt_.family != Family::kStatic)
      if (auto c = lib_.smallest(f, Family::kStatic)) return c;
    return std::nullopt;
  }

  [[nodiscard]] double cell_cost(CellId id) const {
    const library::Cell& c = lib_.cell(id);
    if (opt_.objective == MapObjective::kArea) return c.area_um2;
    return c.parasitic + c.logical_effort * kEstStageEffort;
  }

  // --- DP ---

  [[nodiscard]] static std::size_t key(std::uint32_t node, bool positive) {
    return static_cast<std::size_t>(node) * 2 + (positive ? 0 : 1);
  }

  [[nodiscard]] double leaf_cost(const Leaf& l) const {
    const double c = cost_[key(l.node, l.positive)];
    if (opt_.objective == MapObjective::kArea)
      return c / static_cast<double>(std::max(1, refs_[l.node]));
    return c;
  }

  [[nodiscard]] double match_cost(const Match& m) const {
    double c = cell_cost(m.cell);
    if (opt_.objective == MapObjective::kArea) {
      for (const Leaf& l : m.leaves) c += leaf_cost(l);
    } else {
      double worst = 0.0;
      for (const Leaf& l : m.leaves) worst = std::max(worst, leaf_cost(l));
      c += worst;
    }
    return c;
  }

  void consider(std::uint32_t node, bool positive, Func f,
                std::vector<Leaf> leaves) {
    const auto cell = pick(f);
    if (!cell) return;
    Match m{*cell, std::move(leaves)};
    for (const Leaf& l : m.leaves)
      if (cost_[key(l.node, l.positive)] == kInf) return;  // leaf unrealizable
    const double c = match_cost(m);
    const std::size_t k = key(node, positive);
    if (c < cost_[k]) {
      cost_[k] = c;
      best_[k] = std::move(m);
    }
  }

  /// Leaf for using literal `l` (optionally logically flipped by the
  /// pattern, e.g. De Morgan forms).
  [[nodiscard]] static Leaf leaf_of(Lit l, bool flip = false) {
    return Leaf{l.node(), !(l.complemented() ^ flip)};
  }

  void count_refs() {
    refs_.assign(aig_.num_nodes(), 0);
    for (std::uint32_t i = 0; i < aig_.num_nodes(); ++i) {
      const logic::Node& n = aig_.node(i);
      for (int k = 0; k < n.num_fanins; ++k) ++refs_[n.fanin[k].node()];
    }
    for (std::size_t i = 0; i < aig_.num_pos(); ++i)
      ++refs_[aig_.po(i).node()];
  }

  /// True if `l` points (non-complemented if `want_plain`) at a
  /// single-reference AND node, exposing it for a compound pattern.
  [[nodiscard]] bool absorbable_and(Lit l, bool want_plain) const {
    if (l.complemented() == want_plain) return false;
    const logic::Node& n = aig_.node(l.node());
    return n.kind == NodeKind::kAnd && refs_[l.node()] == 1;
  }

  void match_and(std::uint32_t i, const logic::Node& n) {
    const Lit l0 = n.fanin[0], l1 = n.fanin[1];
    // Single-level matches and their De Morgan duals.
    consider(i, false, Func::kNand2, {leaf_of(l0), leaf_of(l1)});
    consider(i, true, Func::kAnd2, {leaf_of(l0), leaf_of(l1)});
    consider(i, false, Func::kOr2, {leaf_of(l0, true), leaf_of(l1, true)});
    consider(i, true, Func::kNor2, {leaf_of(l0, true), leaf_of(l1, true)});

    // Two-level compounds; try both fanin orderings.
    for (int ord = 0; ord < 2; ++ord) {
      const Lit x = ord == 0 ? l0 : l1;
      const Lit m = ord == 0 ? l1 : l0;

      if (absorbable_and(m, /*want_plain=*/true)) {
        const logic::Node& mm = aig_.node(m.node());
        const Lit y = mm.fanin[0], z = mm.fanin[1];
        consider(i, false, Func::kNand3,
                 {leaf_of(x), leaf_of(y), leaf_of(z)});
        consider(i, true, Func::kAnd3, {leaf_of(x), leaf_of(y), leaf_of(z)});
        consider(i, false, Func::kOr3,
                 {leaf_of(x, true), leaf_of(y, true), leaf_of(z, true)});
        consider(i, true, Func::kNor3,
                 {leaf_of(x, true), leaf_of(y, true), leaf_of(z, true)});
        // nand4: both fanins absorbable ANDs.
        if (ord == 0 && absorbable_and(x, /*want_plain=*/true)) {
          const logic::Node& xx = aig_.node(x.node());
          consider(i, false, Func::kNand4,
                   {leaf_of(xx.fanin[0]), leaf_of(xx.fanin[1]), leaf_of(y),
                    leaf_of(z)});
        }
      }
      if (absorbable_and(m, /*want_plain=*/false)) {
        const logic::Node& mm = aig_.node(m.node());
        const Lit a = mm.fanin[0], b = mm.fanin[1];
        // pos(n) = !(ab) & x = !(ab + !x) = aoi21(a, b, !x)
        consider(i, true, Func::kAoi21,
                 {leaf_of(a), leaf_of(b), leaf_of(x, true)});
        // neg(n) = !((!a + !b) & x) = oai21(!a, !b, x)
        consider(i, false, Func::kOai21,
                 {leaf_of(a, true), leaf_of(b, true), leaf_of(x)});
      }
    }
  }

  void run_dp() {
    const std::size_t n = aig_.num_nodes();
    cost_.assign(n * 2, kInf);
    best_.assign(n * 2, Match{});

    const auto inv = pick(Func::kInv);
    const double inv_cost = cell_cost(*inv);

    for (std::uint32_t i = 1; i < n; ++i) {
      const logic::Node& node = aig_.node(i);
      switch (node.kind) {
        case NodeKind::kPi:
          cost_[key(i, true)] = 0.0;
          break;
        case NodeKind::kAnd:
          match_and(i, node);
          break;
        case NodeKind::kXor:
          consider(i, true, Func::kXor2,
                   {leaf_of(node.fanin[0]), leaf_of(node.fanin[1])});
          consider(i, false, Func::kXnor2,
                   {leaf_of(node.fanin[0]), leaf_of(node.fanin[1])});
          break;
        case NodeKind::kMux:
          // mux2 pins: (a, b, s) computing s ? b : a.
          consider(i, true, Func::kMux2,
                   {leaf_of(node.fanin[2]), leaf_of(node.fanin[1]),
                    leaf_of(node.fanin[0])});
          break;
        case NodeKind::kMaj:
          consider(i, true, Func::kMaj3,
                   {leaf_of(node.fanin[0]), leaf_of(node.fanin[1]),
                    leaf_of(node.fanin[2])});
          break;
        case NodeKind::kConst0:
          break;
      }
      // PI negation is handled by the inverter relaxation below.
      // Inverter relaxation between the two polarities.
      const std::size_t kp = key(i, true), kn = key(i, false);
      if (cost_[kn] + inv_cost < cost_[kp]) {
        cost_[kp] = cost_[kn] + inv_cost;
        best_[kp] = Match{*inv, {Leaf{i, false}}};
      }
      if (cost_[kp] + inv_cost < cost_[kn]) {
        cost_[kn] = cost_[kp] + inv_cost;
        best_[kn] = Match{*inv, {Leaf{i, true}}};
      }
      if (node.kind != NodeKind::kConst0) {
        GAP_ENSURES(refs_[i] == 0 ||
                    cost_[kp] < kInf || cost_[kn] < kInf);
      }
    }
  }

  // --- cover extraction ---

  NetId ensure_net(std::uint32_t node, bool positive) {
    const std::size_t k = key(node, positive);
    if (auto it = net_memo_.find(k); it != net_memo_.end()) return it->second;

    const logic::Node& n = aig_.node(node);
    NetId out;
    if (n.kind == NodeKind::kPi && positive) {
      // Locate the PI index (node order of PIs matches creation order).
      out = pi_net(node);
    } else {
      const Match& m = best_[k];
      GAP_EXPECTS(m.cell.valid());
      std::vector<NetId> ins;
      ins.reserve(m.leaves.size());
      for (const Leaf& l : m.leaves) ins.push_back(ensure_net(l.node, l.positive));
      out = nl_->add_net(nl_->fresh_name(prefix_ + "_n"));
      nl_->add_instance(nl_->fresh_name(prefix_ + "_g"), m.cell,
                        std::move(ins), out);
    }
    net_memo_.emplace(k, out);
    return out;
  }

  [[nodiscard]] NetId pi_net(std::uint32_t node) {
    if (pi_index_of_.empty()) {
      for (std::size_t i = 0; i < aig_.num_pis(); ++i)
        pi_index_of_[aig_.pi_node(i)] = i;
    }
    const auto it = pi_index_of_.find(node);
    GAP_EXPECTS(it != pi_index_of_.end());
    return (*inputs_)[it->second];
  }

  const Aig& aig_;
  const CellLibrary& lib_;
  MapOptions opt_;
  std::vector<int> refs_;
  std::vector<double> cost_;
  std::vector<Match> best_;

  Netlist* nl_ = nullptr;
  const std::vector<NetId>* inputs_ = nullptr;
  std::string prefix_;
  std::unordered_map<std::size_t, NetId> net_memo_;
  std::unordered_map<std::uint32_t, std::size_t> pi_index_of_;
};

/// Lower structural nodes the library cannot realize.
Aig lower_for_library(const Aig& aig, const CellLibrary& lib, Family family) {
  auto available = [&](Func f) {
    return lib.has(f, family) || lib.has(f, Family::kStatic);
  };
  logic::ExpandOptions opts;
  opts.expand_xor = !available(Func::kXor2) && !available(Func::kXnor2);
  opts.expand_mux = !available(Func::kMux2);
  opts.expand_maj = !available(Func::kMaj3);
  if (!opts.expand_xor && !opts.expand_mux && !opts.expand_maj) return aig;
  return logic::expand_structural(aig, opts);
}

}  // namespace

MapResult map_into(const Aig& aig, const MapOptions& options, Netlist& nl,
                   const std::vector<NetId>& input_nets,
                   const std::string& prefix) {
  GAP_TRACE_SPAN("synth::map");
  static common::Counter& runs = common::metrics().counter("mapper.runs");
  static common::Counter& nodes =
      common::metrics().counter("mapper.aig_nodes_covered");
  static common::Counter& gates =
      common::metrics().counter("mapper.gates_mapped");

  const Aig lowered = lower_for_library(aig, nl.lib(), options.family);
  const std::size_t before = nl.num_instances();
  Mapper mapper(lowered, nl.lib(), options);
  MapResult r = mapper.extract(nl, input_nets, prefix);
  r.mapped_depth = netlist::logic_depth(nl);
  runs.add();
  nodes.add(lowered.num_nodes());
  gates.add(nl.num_instances() - before);
  return r;
}

netlist::Netlist map_to_netlist(const Aig& aig, const CellLibrary& lib,
                                const MapOptions& options,
                                std::string netlist_name) {
  netlist::Netlist nl(std::move(netlist_name), &lib);
  std::vector<NetId> inputs;
  for (std::size_t i = 0; i < aig.num_pis(); ++i) {
    const PortId p = nl.add_input(aig.pi_name(i));
    inputs.push_back(nl.port(p).net);
  }
  MapResult r = map_into(aig, options, nl, inputs, "m");
  for (std::size_t i = 0; i < aig.num_pos(); ++i)
    nl.add_output(aig.po_name(i), r.outputs[i]);
  return nl;
}

}  // namespace gap::synth
