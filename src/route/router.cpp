#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gap::route {
namespace {

using netlist::NetDriver;
using netlist::Netlist;
using netlist::NetSink;

/// The routing fabric: a WxH bin grid with per-edge utilization and a
/// cached congestion cost per edge.
class Grid {
 public:
  Grid(double x0, double y0, double pitch, int w, int h,
       const RouteOptions& opt)
      : x0_(x0), y0_(y0), pitch_(pitch), w_(w), h_(h), opt_(opt) {
    use_.assign(num_edges(), 0.0);
    // The cost formula at use 0 (2.0 when alpha is 0), not a literal 1.0.
    cost_.assign(num_edges(),
                 1.0 + std::pow(0.0 / opt_.capacity_per_edge, opt_.alpha));
  }

  [[nodiscard]] int bin_x(double x) const {
    return std::clamp(static_cast<int>((x - x0_) / pitch_), 0, w_ - 1);
  }
  [[nodiscard]] int bin_y(double y) const {
    return std::clamp(static_cast<int>((y - y0_) / pitch_), 0, h_ - 1);
  }
  [[nodiscard]] double pitch() const { return pitch_; }

  /// Edge ids: horizontal edges first, then vertical.
  [[nodiscard]] std::size_t h_edge(int x, int y) const {
    GAP_EXPECTS(x >= 0 && x < w_ - 1 && y >= 0 && y < h_);
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w_ - 1) +
           static_cast<std::size_t>(x);
  }
  [[nodiscard]] std::size_t v_edge(int x, int y) const {
    GAP_EXPECTS(x >= 0 && x < w_ && y >= 0 && y < h_ - 1);
    return static_cast<std::size_t>(h_) * static_cast<std::size_t>(w_ - 1) +
           static_cast<std::size_t>(x) * static_cast<std::size_t>(h_ - 1) +
           static_cast<std::size_t>(y);
  }
  [[nodiscard]] std::size_t num_edges() const {
    return static_cast<std::size_t>(h_) * static_cast<std::size_t>(w_ - 1) +
           static_cast<std::size_t>(w_) * static_cast<std::size_t>(h_ - 1);
  }

  /// 1 + (use/capacity)^alpha, as of the last commit to the edge.
  [[nodiscard]] double edge_cost(std::size_t e) const { return cost_[e]; }
  void commit(std::size_t e) {
    use_[e] += 1.0;
    cost_[e] = 1.0 + std::pow(use_[e] / opt_.capacity_per_edge, opt_.alpha);
  }
  [[nodiscard]] double utilization(std::size_t e) const {
    return use_[e] / opt_.capacity_per_edge;
  }

  /// Visit the horizontal edges of row y between columns xa and xb.
  template <class Visit>
  void h_run(int y, int xa, int xb, Visit& visit) const {
    for (int x = std::min(xa, xb); x < std::max(xa, xb); ++x)
      visit(h_edge(x, y));
  }
  /// Visit the vertical edges of column x between rows ya and yb.
  template <class Visit>
  void v_run(int x, int ya, int yb, Visit& visit) const {
    for (int y = std::min(ya, yb); y < std::max(ya, yb); ++y)
      visit(v_edge(x, y));
  }

 private:
  double x0_, y0_, pitch_;
  int w_, h_;
  RouteOptions opt_;
  std::vector<double> use_;
  std::vector<double> cost_;
};

/// Visit the edges of candidate route `c` from bin (ax,ay) to (bx,by), in
/// order. 0 is a horizontal run along row ay from ax to bx with no
/// vertical leg, so it ends in row ay, not at the sink (restoring the
/// leg moves every routed length; ROADMAP item 6); 1 is an L (vertical
/// at ax, then horizontal at by); 2 and 3 are Z shapes that bend at the
/// middle column and the middle row.
template <class Visit>
void walk_candidate(const Grid& g, int c, int ax, int ay, int bx, int by,
                    Visit&& visit) {
  switch (c) {
    case 0:
      g.h_run(ay, ax, bx, visit);
      return;
    case 1:
      g.v_run(ax, ay, by, visit);
      g.h_run(by, ax, bx, visit);
      return;
    case 2: {
      const int mid = (ax + bx) / 2;
      g.h_run(ay, ax, mid, visit);
      g.v_run(mid, ay, by, visit);
      g.h_run(by, mid, bx, visit);
      return;
    }
    default: {
      const int mid = (ay + by) / 2;
      g.v_run(ax, ay, mid, visit);
      g.h_run(mid, ax, bx, visit);
      g.v_run(bx, mid, by, visit);
      return;
    }
  }
}

/// The cheapest candidate between two bins. Each cost is summed left to
/// right over the candidate's edges; the strict `<` keeps the first of
/// equal-cost candidates.
int best_candidate(const Grid& g, int ax, int ay, int bx, int by,
                   const RouteOptions& opt) {
  double best_cost = 1e300;
  int best = 0;
  auto consider = [&](int c) {
    double cost = 0.0;
    walk_candidate(g, c, ax, ay, bx, by,
                   [&](std::size_t e) { cost += g.edge_cost(e); });
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  };
  consider(0);
  consider(1);
  if (opt.congestion_aware && std::abs(ax - bx) > 1) consider(2);
  if (opt.congestion_aware && std::abs(ay - by) > 1) consider(3);
  return best;
}

}  // namespace

RouteResult route(Netlist& nl, const RouteOptions& options) {
  GAP_TRACE_SPAN("route::route");
  GAP_EXPECTS(options.grid_bins >= 2);
  GAP_EXPECTS(options.capacity_per_edge > 0.0);
  static common::Counter& runs = common::metrics().counter("route.runs");
  static common::Counter& nets_routed =
      common::metrics().counter("route.nets_routed");
  static common::Counter& segments =
      common::metrics().counter("route.segments_committed");
  static common::Counter& detours =
      common::metrics().counter("route.detoured_nets");
  runs.add();
  std::uint64_t local_nets = 0;
  std::uint64_t local_segments = 0;

  // Placement bounding box.
  double x0 = 1e300, y0 = 1e300, x1 = -1e300, y1 = -1e300;
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& inst = nl.instance(id);
    GAP_EXPECTS(inst.x_um >= 0.0);  // must be placed
    x0 = std::min(x0, inst.x_um);
    x1 = std::max(x1, inst.x_um);
    y0 = std::min(y0, inst.y_um);
    y1 = std::max(y1, inst.y_um);
  }
  RouteResult result;
  if (x1 <= x0 && y1 <= y0) return result;  // degenerate placement

  const double span = std::max(x1 - x0, y1 - y0);
  const double pitch = std::max(span / options.grid_bins, 1.0);
  const int w = std::max(2, static_cast<int>((x1 - x0) / pitch) + 1);
  const int h = std::max(2, static_cast<int>((y1 - y0) / pitch) + 1);
  Grid grid(x0, y0, pitch, w, h, options);

  // Trunk sharing within a net: an edge joins net_edges the first time
  // the net's epoch stamps it, so each net commits each edge once.
  std::vector<std::uint32_t> stamp(grid.num_edges(), 0);
  std::uint32_t epoch = 0;
  std::vector<std::size_t> net_edges;
  auto add_edge = [&](std::size_t e) {
    if (stamp[e] == epoch) return;
    stamp[e] = epoch;
    net_edges.push_back(e);
  };

  for (NetId nid : nl.all_nets()) {
    const netlist::Net& n = nl.net(nid);
    if (n.driver.kind != NetDriver::Kind::kInstance) continue;
    const netlist::Instance& drv = nl.instance(n.driver.inst);
    const int dx = grid.bin_x(drv.x_um);
    const int dy = grid.bin_y(drv.y_um);
    ++epoch;
    net_edges.clear();

    // HPWL for the comparison baseline.
    double hx0 = drv.x_um, hx1 = drv.x_um, hy0 = drv.y_um, hy1 = drv.y_um;
    for (const NetSink& s : n.sinks) {
      if (s.kind != NetSink::Kind::kInstancePin) continue;
      const netlist::Instance& sink = nl.instance(s.inst);
      hx0 = std::min(hx0, sink.x_um);
      hx1 = std::max(hx1, sink.x_um);
      hy0 = std::min(hy0, sink.y_um);
      hy1 = std::max(hy1, sink.y_um);
      const int sx = grid.bin_x(sink.x_um);
      const int sy = grid.bin_y(sink.y_um);
      if (sx == dx && sy == dy) continue;  // same bin: no global edges
      walk_candidate(grid, best_candidate(grid, dx, dy, sx, sy, options), dx,
                     dy, sx, sy, add_edge);
    }
    // Commit after every sink is routed: the net's own edges never
    // change the costs its later sinks see.
    for (std::size_t e : net_edges) grid.commit(e);
    ++local_nets;
    local_segments += net_edges.size();

    const double hpwl = (hx1 - hx0) + (hy1 - hy0);
    const double routed = std::max(
        hpwl, static_cast<double>(net_edges.size()) * grid.pitch());
    nl.net(nid).length_um = routed;
    result.total_hpwl_um += hpwl;
    result.total_routed_um += routed;
    if (routed > hpwl * 1.001 && !net_edges.empty()) ++result.detoured_nets;
  }

  std::size_t over = 0;
  for (std::size_t e = 0; e < grid.num_edges(); ++e) {
    result.max_utilization = std::max(result.max_utilization,
                                      grid.utilization(e));
    if (grid.utilization(e) > 1.0) ++over;
  }
  result.overflow_edges =
      static_cast<double>(over) / static_cast<double>(grid.num_edges());
  nets_routed.add(local_nets);
  segments.add(local_segments);
  detours.add(static_cast<std::uint64_t>(result.detoured_nets));
  common::metrics().gauge("route.max_utilization").set(result.max_utilization);
  return result;
}

}  // namespace gap::route
