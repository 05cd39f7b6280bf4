#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "datapath/adders.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap::route {
namespace {

using datapath::AdderKind;
using library::Family;
using library::Func;

// --- candidate-list reference -----------------------------------------------
// The router written the plain way: every driver->sink pair builds its
// candidate edge lists, each edge is costed with std::pow from its live use
// count, and a net's edges merge through a hash set. It calls nothing in
// src/route, so a bug in the cost cache, the in-place candidate walk or the
// edge stamp cannot cancel out against it.

struct RefRoute {
  RouteResult result;
  std::uint64_t nets_routed = 0;
  std::uint64_t segments = 0;
};

RefRoute reference_route(netlist::Netlist& nl, const RouteOptions& opt) {
  RefRoute run;
  double x0 = 1e300, y0 = 1e300, x1 = -1e300, y1 = -1e300;
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& inst = nl.instance(id);
    x0 = std::min(x0, inst.x_um);
    x1 = std::max(x1, inst.x_um);
    y0 = std::min(y0, inst.y_um);
    y1 = std::max(y1, inst.y_um);
  }
  if (x1 <= x0 && y1 <= y0) return run;

  const double span = std::max(x1 - x0, y1 - y0);
  const double pitch = std::max(span / opt.grid_bins, 1.0);
  const int w = std::max(2, static_cast<int>((x1 - x0) / pitch) + 1);
  const int h = std::max(2, static_cast<int>((y1 - y0) / pitch) + 1);
  const auto bin_x = [&](double x) {
    return std::clamp(static_cast<int>((x - x0) / pitch), 0, w - 1);
  };
  const auto bin_y = [&](double y) {
    return std::clamp(static_cast<int>((y - y0) / pitch), 0, h - 1);
  };
  const auto h_edge = [&](int x, int y) {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w - 1) +
           static_cast<std::size_t>(x);
  };
  const auto v_edge = [&](int x, int y) {
    return static_cast<std::size_t>(h) * static_cast<std::size_t>(w - 1) +
           static_cast<std::size_t>(x) * static_cast<std::size_t>(h - 1) +
           static_cast<std::size_t>(y);
  };
  const std::size_t num_edges =
      static_cast<std::size_t>(h) * static_cast<std::size_t>(w - 1) +
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h - 1);
  std::vector<double> use(num_edges, 0.0);

  const auto best_route = [&](int ax, int ay, int bx, int by) {
    std::vector<std::vector<std::size_t>> candidates;
    {
      // The first candidate stops in row ay: it has no vertical leg.
      std::vector<std::size_t> e;
      for (int x = std::min(ax, bx); x < std::max(ax, bx); ++x)
        e.push_back(h_edge(x, ay));
      candidates.push_back(std::move(e));
    }
    {
      std::vector<std::size_t> e;
      for (int y = std::min(ay, by); y < std::max(ay, by); ++y)
        e.push_back(v_edge(ax, y));
      for (int x = std::min(ax, bx); x < std::max(ax, bx); ++x)
        e.push_back(h_edge(x, by));
      candidates.push_back(std::move(e));
    }
    if (opt.congestion_aware && std::abs(ax - bx) > 1) {
      const int mid = (ax + bx) / 2;
      std::vector<std::size_t> e;
      for (int x = std::min(ax, mid); x < std::max(ax, mid); ++x)
        e.push_back(h_edge(x, ay));
      for (int y = std::min(ay, by); y < std::max(ay, by); ++y)
        e.push_back(v_edge(mid, y));
      for (int x = std::min(mid, bx); x < std::max(mid, bx); ++x)
        e.push_back(h_edge(x, by));
      candidates.push_back(std::move(e));
    }
    if (opt.congestion_aware && std::abs(ay - by) > 1) {
      const int mid = (ay + by) / 2;
      std::vector<std::size_t> e;
      for (int y = std::min(ay, mid); y < std::max(ay, mid); ++y)
        e.push_back(v_edge(ax, y));
      for (int x = std::min(ax, bx); x < std::max(ax, bx); ++x)
        e.push_back(h_edge(x, mid));
      for (int y = std::min(mid, by); y < std::max(mid, by); ++y)
        e.push_back(v_edge(bx, y));
      candidates.push_back(std::move(e));
    }
    double best_cost = 1e300;
    std::size_t best = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      double cost = 0.0;
      for (std::size_t e : candidates[c])
        cost += 1.0 + std::pow(use[e] / opt.capacity_per_edge, opt.alpha);
      if (cost < best_cost) {
        best_cost = cost;
        best = c;
      }
    }
    return candidates[best];
  };

  for (NetId nid : nl.all_nets()) {
    const netlist::Net& n = nl.net(nid);
    if (n.driver.kind != netlist::NetDriver::Kind::kInstance) continue;
    const netlist::Instance& drv = nl.instance(n.driver.inst);
    const int dx = bin_x(drv.x_um);
    const int dy = bin_y(drv.y_um);
    double hx0 = drv.x_um, hx1 = drv.x_um, hy0 = drv.y_um, hy1 = drv.y_um;
    std::unordered_set<std::size_t> net_edges;
    for (const netlist::NetSink& s : n.sinks) {
      if (s.kind != netlist::NetSink::Kind::kInstancePin) continue;
      const netlist::Instance& sink = nl.instance(s.inst);
      hx0 = std::min(hx0, sink.x_um);
      hx1 = std::max(hx1, sink.x_um);
      hy0 = std::min(hy0, sink.y_um);
      hy1 = std::max(hy1, sink.y_um);
      const int sx = bin_x(sink.x_um);
      const int sy = bin_y(sink.y_um);
      if (sx == dx && sy == dy) continue;
      for (std::size_t e : best_route(dx, dy, sx, sy)) net_edges.insert(e);
    }
    for (std::size_t e : net_edges) use[e] += 1.0;
    ++run.nets_routed;
    run.segments += net_edges.size();

    const double hpwl = (hx1 - hx0) + (hy1 - hy0);
    const double routed =
        std::max(hpwl, static_cast<double>(net_edges.size()) * pitch);
    nl.net(nid).length_um = routed;
    run.result.total_hpwl_um += hpwl;
    run.result.total_routed_um += routed;
    if (routed > hpwl * 1.001 && !net_edges.empty())
      ++run.result.detoured_nets;
  }

  std::size_t over = 0;
  for (double u : use) {
    run.result.max_utilization =
        std::max(run.result.max_utilization, u / opt.capacity_per_edge);
    if (u / opt.capacity_per_edge > 1.0) ++over;
  }
  run.result.overflow_edges =
      static_cast<double>(over) / static_cast<double>(num_edges);
  return run;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Routes one copy of `nl` with route() and one with the reference, and
/// requires every net length, RouteResult field, route.* counter delta
/// and the route.max_utilization gauge to be equal (doubles bit-equal).
void expect_matches_reference(const netlist::Netlist& nl,
                              const RouteOptions& opt) {
  common::MetricsRegistry& m = common::metrics();
  const auto counters = [&] {
    return std::vector<std::uint64_t>{
        m.counter("route.runs").value(),
        m.counter("route.nets_routed").value(),
        m.counter("route.segments_committed").value(),
        m.counter("route.detoured_nets").value()};
  };
  netlist::Netlist flat = nl;
  netlist::Netlist ref = nl;
  const std::vector<std::uint64_t> before = counters();
  const RouteResult got = route(flat, opt);
  const std::vector<std::uint64_t> after = counters();
  const RefRoute want = reference_route(ref, opt);

  EXPECT_EQ(bits(got.total_routed_um), bits(want.result.total_routed_um));
  EXPECT_EQ(bits(got.total_hpwl_um), bits(want.result.total_hpwl_um));
  EXPECT_EQ(bits(got.max_utilization), bits(want.result.max_utilization));
  EXPECT_EQ(bits(got.overflow_edges), bits(want.result.overflow_edges));
  EXPECT_EQ(got.detoured_nets, want.result.detoured_nets);
  EXPECT_EQ(after[0] - before[0], 1u);
  EXPECT_EQ(after[1] - before[1], want.nets_routed);
  EXPECT_EQ(after[2] - before[2], want.segments);
  EXPECT_EQ(after[3] - before[3],
            static_cast<std::uint64_t>(want.result.detoured_nets));
  EXPECT_EQ(bits(m.gauge("route.max_utilization").value()),
            bits(want.result.max_utilization));
  std::size_t length_mismatches = 0;
  for (NetId n : nl.all_nets())
    if (bits(flat.net(n).length_um) != bits(ref.net(n).length_um))
      ++length_mismatches;
  EXPECT_EQ(length_mismatches, 0u);
}

class RouteTest : public ::testing::Test {
 protected:
  RouteTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}

  netlist::Netlist placed_design(const char* name) {
    const auto aig =
        designs::make_design(name, designs::DatapathStyle::kSynthesized);
    auto nl = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "d");
    place::PlaceOptions opt;
    opt.sa_moves = 5000;
    place::place(nl, opt);
    return nl;
  }

  library::CellLibrary lib_;
};

TEST_F(RouteTest, RoutedLengthsBoundedBelowByHpwl) {
  auto nl = placed_design("alu16");
  const RouteResult r = route(nl, RouteOptions{});
  EXPECT_GE(r.total_routed_um, r.total_hpwl_um * 0.999);
  EXPECT_GT(r.total_routed_um, 0.0);
  // Per-net annotations are written and never below zero.
  for (NetId n : nl.all_nets()) EXPECT_GE(nl.net(n).length_um, 0.0);
}

TEST_F(RouteTest, TightCapacityCausesDetours) {
  auto nl1 = placed_design("alu16");
  auto nl2 = placed_design("alu16");
  RouteOptions roomy;
  roomy.capacity_per_edge = 64.0;
  RouteOptions tight;
  tight.capacity_per_edge = 2.0;
  const RouteResult a = route(nl1, roomy);
  const RouteResult b = route(nl2, tight);
  // Scarce tracks force congestion-aware detours and higher utilization.
  EXPECT_GE(b.detour_factor(), a.detour_factor());
  EXPECT_GT(b.max_utilization, a.max_utilization);
}

TEST_F(RouteTest, CongestionAwarenessReducesOverflow) {
  auto nl1 = placed_design("alu16");
  auto nl2 = placed_design("alu16");
  RouteOptions naive;
  naive.capacity_per_edge = 3.0;
  naive.congestion_aware = false;
  // Cost-blind: every edge costs 2, so the first candidate, a bare
  // horizontal run never longer than the L, wins every pair.
  naive.alpha = 0.0;
  RouteOptions aware;
  aware.capacity_per_edge = 3.0;
  const RouteResult rn = route(nl1, naive);
  const RouteResult ra = route(nl2, aware);
  EXPECT_LE(ra.max_utilization, rn.max_utilization + 1e-9);
}

TEST_F(RouteTest, TwoPinNetExactManhattan) {
  // A hand placement: driver and single sink 12 bins apart horizontally.
  netlist::Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId mid = nl.add_net("mid");
  const CellId inv = *lib_.smallest(Func::kInv, Family::kStatic);
  const InstanceId u1 = nl.add_instance("u1", inv, {nl.port(a).net}, mid);
  const NetId out = nl.add_net("out");
  const InstanceId u2 = nl.add_instance("u2", inv, {mid}, out);
  nl.add_output("y", out);
  nl.instance(u1).x_um = 0.0;
  nl.instance(u1).y_um = 0.0;
  nl.instance(u2).x_um = 1200.0;
  nl.instance(u2).y_um = 900.0;

  RouteOptions opt;
  opt.grid_bins = 12;
  const RouteResult r = route(nl, opt);
  // The first candidate wins: a bare horizontal run of 12 edges (1200 um)
  // with no vertical leg. The length is the HPWL floor, 2100 um.
  EXPECT_NEAR(nl.net(mid).length_um, 2100.0, 300.0);
  EXPECT_EQ(r.detoured_nets, 0);
}

TEST_F(RouteTest, RoutedAnnotationFeedsTiming) {
  auto nl = placed_design("alu16");
  sta::StaOptions opt;
  opt.optimal_repeaters = true;
  place::annotate_net_lengths(nl);  // HPWL baseline
  const double t_hpwl = sta::analyze(nl, opt).min_period_tau;
  RouteOptions tight;
  tight.capacity_per_edge = 1.0;  // force heavy detours
  route(nl, tight);
  const double t_routed = sta::analyze(nl, opt).min_period_tau;
  // Routed lengths are >= HPWL, so timing can only degrade.
  EXPECT_GE(t_routed, t_hpwl * 0.999);
}

TEST_F(RouteTest, FlatRouterMatchesCandidateListReference) {
  std::vector<std::pair<std::string, RouteOptions>> cases;
  cases.emplace_back("defaults", RouteOptions{});
  for (double cap : {1.0, 2.0, 3.0}) {
    RouteOptions opt;
    opt.capacity_per_edge = cap;
    cases.emplace_back("capacity " + std::to_string(cap), opt);
  }
  {
    RouteOptions naive;
    naive.alpha = 0.0;
    naive.congestion_aware = false;
    cases.emplace_back("naive", naive);
  }
  {
    RouteOptions coarse;
    coarse.grid_bins = 12;
    cases.emplace_back("12 bins", coarse);
  }
  for (const std::string& name : designs::design_names()) {
    const netlist::Netlist nl = placed_design(name.c_str());
    for (const auto& [label, opt] : cases) {
      SCOPED_TRACE(name + ", " + label);
      expect_matches_reference(nl, opt);
    }
  }
}

}  // namespace
}  // namespace gap::route
