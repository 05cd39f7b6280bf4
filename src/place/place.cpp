#include "place/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "netlist/checks.hpp"

namespace gap::place {
namespace {

using netlist::NetDriver;
using netlist::Netlist;
using netlist::NetSink;

/// HPWL of one net over placed instance pins (ports are ignored: they sit
/// at the die boundary of whichever block the netlist models).
double net_hpwl(const Netlist& nl, NetId id) {
  const netlist::Net& n = nl.net(id);
  double x0 = 1e30, x1 = -1e30, y0 = 1e30, y1 = -1e30;
  int pins = 0;
  auto visit = [&](InstanceId inst) {
    const netlist::Instance& i = nl.instance(inst);
    if (i.x_um < 0.0) return;  // unplaced
    x0 = std::min(x0, i.x_um);
    x1 = std::max(x1, i.x_um);
    y0 = std::min(y0, i.y_um);
    y1 = std::max(y1, i.y_um);
    ++pins;
  };
  if (n.driver.kind == NetDriver::Kind::kInstance) visit(n.driver.inst);
  for (const NetSink& s : n.sinks)
    if (s.kind == NetSink::Kind::kInstancePin) visit(s.inst);
  if (pins < 2) return 0.0;
  return (x1 - x0) + (y1 - y0);
}

struct Region {
  double x, y, w, h;
  std::vector<InstanceId> members;
};

/// Flat tables for the SA loop, built once per place() call and indexed
/// by the netlist's own ids (docs/data-layout.md, "SA placement tables").
/// net_hpwl() visits a net's pins in the order net_hpwl(nl, id) above
/// does, so both give the same double for the same coordinates.
struct SaTables {
  std::vector<std::uint32_t> inst_net_off;  ///< CSR rows, one per instance
  std::vector<std::uint32_t> inst_nets;     ///< inputs in pin order, output
  std::vector<std::uint32_t> net_pin_off;   ///< CSR rows, one per net
  std::vector<std::uint32_t> net_pins;      ///< driver instance, then sinks
  std::vector<double> x, y;                 ///< coordinates by instance
  std::vector<double> hpwl;                 ///< cached HPWL by net
  std::size_t max_degree = 0;               ///< longest instance row
  std::uint64_t evals = 0;                  ///< net_hpwl() calls

  explicit SaTables(const Netlist& nl) {
    const std::size_t ni = nl.num_instances();
    const std::size_t nn = nl.num_nets();
    inst_net_off.reserve(ni + 1);
    x.reserve(ni);
    y.reserve(ni);
    for (InstanceId id : nl.all_instances()) {
      const netlist::Instance& i = nl.instance(id);
      inst_net_off.push_back(static_cast<std::uint32_t>(inst_nets.size()));
      for (NetId n : i.inputs) inst_nets.push_back(n.value());
      inst_nets.push_back(i.output.value());
      max_degree = std::max(max_degree, i.inputs.size() + 1);
      x.push_back(i.x_um);
      y.push_back(i.y_um);
    }
    inst_net_off.push_back(static_cast<std::uint32_t>(inst_nets.size()));
    net_pin_off.reserve(nn + 1);
    for (NetId id : nl.all_nets()) {
      const netlist::Net& n = nl.net(id);
      net_pin_off.push_back(static_cast<std::uint32_t>(net_pins.size()));
      if (n.driver.kind == NetDriver::Kind::kInstance)
        net_pins.push_back(n.driver.inst.value());
      for (const NetSink& s : n.sinks)
        if (s.kind == NetSink::Kind::kInstancePin)
          net_pins.push_back(s.inst.value());
    }
    net_pin_off.push_back(static_cast<std::uint32_t>(net_pins.size()));
  }

  [[nodiscard]] double net_hpwl(std::uint32_t net) {
    ++evals;
    double x0 = 1e30, x1 = -1e30, y0 = 1e30, y1 = -1e30;
    int pins = 0;
    for (std::uint32_t k = net_pin_off[net]; k < net_pin_off[net + 1]; ++k) {
      const std::uint32_t i = net_pins[k];
      if (x[i] < 0.0) continue;  // unplaced
      x0 = std::min(x0, x[i]);
      x1 = std::max(x1, x[i]);
      y0 = std::min(y0, y[i]);
      y1 = std::max(y1, y[i]);
      ++pins;
    }
    if (pins < 2) return 0.0;
    return (x1 - x0) + (y1 - y0);
  }

  /// Fills the cache; returns the total summed in net order.
  double fill_cache() {
    hpwl.resize(net_pin_off.size() - 1);
    double total = 0.0;
    for (std::uint32_t n = 0; n < hpwl.size(); ++n) {
      hpwl[n] = net_hpwl(n);
      total += hpwl[n];
    }
    return total;
  }
};

}  // namespace

void annotate_net_lengths(netlist::Netlist& nl) {
  for (NetId n : nl.all_nets()) nl.net(n).length_um = net_hpwl(nl, n);
}

double total_hpwl(const netlist::Netlist& nl) {
  double t = 0.0;
  for (NetId n : nl.all_nets()) t += net_hpwl(nl, n);
  return t;
}

PlaceResult place(netlist::Netlist& nl, const PlaceOptions& options) {
  GAP_TRACE_SPAN("place::place");
  static common::Counter& runs = common::metrics().counter("place.runs");
  static common::Counter& placed =
      common::metrics().counter("place.instances_placed");
  runs.add();

  PlaceResult result;
  Rng rng(options.seed);
  if (nl.num_instances() == 0) return result;
  placed.add(nl.num_instances());

  // --- determine die and regions ---
  double die_w, die_h;
  const double die_area = nl.total_area_um2() / options.utilization;
  die_w = die_h = std::sqrt(std::max(die_area, 1.0));
  if (options.mode == PlacementMode::kScattered) {
    if (options.scatter_die_mm > 0.0)
      die_w = die_h = options.scatter_die_mm * 1000.0;
    else
      die_w = die_h = die_w * options.scatter_spread;
  }
  result.die_w_um = die_w;
  result.die_h_um = die_h;

  // Group instances by region. Instances whose module has no floorplan
  // rectangle use the full die.
  std::vector<Region> regions;
  std::unordered_map<std::uint32_t, std::size_t> region_of_module;
  Region whole{0.0, 0.0, die_w, die_h, {}};
  // Topological order seeds locality: connected cells land near each other.
  const auto order = netlist::topo_order(nl);
  GAP_EXPECTS(order.size() == nl.num_instances());
  for (InstanceId id : order) {
    const ModuleId m = nl.instance(id).module;
    if (m.valid()) {
      const auto it = options.regions.find(m);
      if (it != options.regions.end()) {
        auto rit = region_of_module.find(m.value());
        if (rit == region_of_module.end()) {
          const floorplan::PlacedModule& pm = it->second;
          regions.push_back(Region{pm.x_um, pm.y_um, pm.w_um, pm.h_um, {}});
          rit = region_of_module.emplace(m.value(), regions.size() - 1).first;
        }
        regions[rit->second].members.push_back(id);
        continue;
      }
    }
    whole.members.push_back(id);
  }
  if (!whole.members.empty()) regions.push_back(std::move(whole));

  // --- initial placement: grid sites per region ---
  SaTables t(nl);
  for (Region& r : regions) {
    const std::size_t count = r.members.size();
    if (count == 0) continue;
    const auto cols = static_cast<std::size_t>(std::ceil(
        std::sqrt(static_cast<double>(count) * r.w / std::max(r.h, 1.0))));
    const std::size_t rows =
        (count + std::max<std::size_t>(cols, 1) - 1) / std::max<std::size_t>(cols, 1);
    const double sx = r.w / static_cast<double>(std::max<std::size_t>(cols, 1));
    const double sy = r.h / static_cast<double>(std::max<std::size_t>(rows, 1));

    std::vector<InstanceId> members = r.members;
    if (options.mode == PlacementMode::kScattered) {
      // Random shuffle destroys locality: the "no floorplanning" flow.
      for (std::size_t i = members.size(); i > 1; --i)
        std::swap(members[i - 1],
                  members[static_cast<std::size_t>(rng.uniform_index(i))]);
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      t.x[members[k].index()] = r.x + (static_cast<double>(k % cols) + 0.5) * sx;
      t.y[members[k].index()] = r.y + (static_cast<double>(k / cols) + 0.5) * sy;
    }
  }
  result.initial_hpwl_um = t.fill_cache();

  // --- SA refinement (careful mode only) ---
  // Bit-identical to a pointer walk that recomputes both costs: the same
  // draws, and each cost summed left to right over nets(a) then nets(b),
  // duplicates included. "Before" comes from the cache; an accepted swap
  // stores its "after" values as the new cache entries.
  if (options.mode == PlacementMode::kCareful && options.sa_moves > 0) {
    GAP_TRACE_SPAN("place::sa_refine");
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::vector<std::uint32_t> pair_nets(2 * t.max_degree);
    std::vector<double> after_hpwl(2 * t.max_degree);
    const auto row = [&](std::uint32_t i) {
      return t.inst_nets.begin() + t.inst_net_off[i];
    };

    double temp = 0.05 * (die_w + die_h);
    const double cooling =
        std::pow(1e-3, 1.0 / std::max(1, options.sa_moves));
    for (int move = 0; move < options.sa_moves; ++move) {
      Region& r = regions[rng.uniform_index(regions.size())];
      if (r.members.size() < 2) {
        temp *= cooling;
        continue;
      }
      const std::uint32_t a =
          r.members[rng.uniform_index(r.members.size())].value();
      const std::uint32_t b =
          r.members[rng.uniform_index(r.members.size())].value();
      if (a == b) {
        temp *= cooling;
        continue;
      }
      // nets(a) then nets(b), repeats kept.
      const auto mid = std::copy(row(a), row(a + 1), pair_nets.begin());
      const auto m = static_cast<std::size_t>(
          std::copy(row(b), row(b + 1), mid) - pair_nets.begin());
      double before = 0.0;
      for (std::size_t j = 0; j < m; ++j) before += t.hpwl[pair_nets[j]];
      std::swap(t.x[a], t.x[b]);
      std::swap(t.y[a], t.y[b]);
      double after = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        after_hpwl[j] = t.net_hpwl(pair_nets[j]);
        after += after_hpwl[j];
      }
      const double delta = after - before;
      if (!(delta <= 0.0 || rng.uniform() < std::exp(-delta / temp))) {
        std::swap(t.x[a], t.x[b]);  // reject: swap back
        std::swap(t.y[a], t.y[b]);
        ++rejected;
      } else {
        for (std::size_t j = 0; j < m; ++j) t.hpwl[pair_nets[j]] = after_hpwl[j];
        ++accepted;
      }
      temp *= cooling;
    }
    // Batched adds: the SA loop stays free of atomics.
    static common::Counter& acc =
        common::metrics().counter("place.sa_moves_accepted");
    static common::Counter& rej =
        common::metrics().counter("place.sa_moves_rejected");
    acc.add(accepted);
    rej.add(rejected);
  }
  static common::Counter& hpwl_evals =
      common::metrics().counter("place.net_hpwl_evals");
  hpwl_evals.add(t.evals);

  for (std::uint32_t i = 0; i < t.x.size(); ++i) {
    netlist::Instance& inst = nl.instance(InstanceId{i});
    inst.x_um = t.x[i];
    inst.y_um = t.y[i];
  }
  // One pointer pass: annotate, then sum the annotations in net order
  // (the same per-net values and order total_hpwl() would use).
  annotate_net_lengths(nl);
  for (NetId n : nl.all_nets()) result.total_hpwl_um += nl.net(n).length_um;
  return result;
}

}  // namespace gap::place
