#include "floorplan/floorplan.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace gap::floorplan {
namespace {

/// Initial annealing temperature as a fraction of the initial cost.
constexpr double kInitialTempScale = 0.3;

struct Dims {
  double w, h;
};

/// Sequence-pair state: two permutations plus per-module rotation.
struct SpState {
  std::vector<int> gp;  ///< Gamma+ (module indices in sequence order)
  std::vector<int> gn;  ///< Gamma-
  std::vector<bool> rotated;
};

/// Evaluate a sequence pair into placed rectangles (longest-path packing).
std::vector<PlacedModule> evaluate(const SpState& s,
                                   const std::vector<Dims>& dims) {
  const std::size_t n = s.gp.size();
  std::vector<int> pos_gp(n), pos_gn(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_gp[static_cast<std::size_t>(s.gp[i])] = static_cast<int>(i);
    pos_gn[static_cast<std::size_t>(s.gn[i])] = static_cast<int>(i);
  }
  auto dim = [&](std::size_t m) {
    Dims d = dims[m];
    if (s.rotated[m]) std::swap(d.w, d.h);
    return d;
  };

  std::vector<PlacedModule> placed(n);
  // a left-of b <=> a before b in both sequences.
  for (std::size_t bi = 0; bi < n; ++bi) {
    const auto b = static_cast<std::size_t>(s.gp[bi]);
    double x = 0.0;
    for (std::size_t ai = 0; ai < bi; ++ai) {
      const auto a = static_cast<std::size_t>(s.gp[ai]);
      if (pos_gn[a] < pos_gn[b]) x = std::max(x, placed[a].x_um + dim(a).w);
    }
    placed[b].x_um = x;
    placed[b].w_um = dim(b).w;
    placed[b].h_um = dim(b).h;
  }
  // a below b <=> a after b in Gamma+ and a before b in Gamma-.
  for (std::size_t bi = n; bi-- > 0;) {
    const auto b = static_cast<std::size_t>(s.gp[bi]);
    double y = 0.0;
    for (std::size_t ai = bi + 1; ai < n; ++ai) {
      const auto a = static_cast<std::size_t>(s.gp[ai]);
      if (pos_gn[a] < pos_gn[b]) y = std::max(y, placed[a].y_um + dim(a).h);
    }
    placed[b].y_um = y;
  }
  return placed;
}

struct Cost {
  double area;
  double wl;
  double die_w, die_h;
};

Cost cost_of(const std::vector<PlacedModule>& placed,
             const std::vector<ModuleNet>& nets) {
  Cost c{0.0, 0.0, 0.0, 0.0};
  for (const PlacedModule& m : placed) {
    c.die_w = std::max(c.die_w, m.x_um + m.w_um);
    c.die_h = std::max(c.die_h, m.y_um + m.h_um);
  }
  c.area = c.die_w * c.die_h;
  c.wl = wirelength(placed, nets);
  return c;
}

}  // namespace

double wirelength(const std::vector<PlacedModule>& placed,
                  const std::vector<ModuleNet>& nets) {
  double total = 0.0;
  for (const ModuleNet& net : nets) {
    if (net.modules.size() < 2) continue;
    double x0 = 1e30, x1 = -1e30, y0 = 1e30, y1 = -1e30;
    for (ModuleId m : net.modules) {
      const PlacedModule& p = placed[m.index()];
      x0 = std::min(x0, p.cx());
      x1 = std::max(x1, p.cx());
      y0 = std::min(y0, p.cy());
      y1 = std::max(y1, p.cy());
    }
    total += net.weight * ((x1 - x0) + (y1 - y0));
  }
  return total;
}

FloorplanResult floorplan(const std::vector<Module>& modules,
                          const std::vector<ModuleNet>& nets,
                          const FloorplanOptions& options) {
  GAP_EXPECTS(!modules.empty());
  const std::size_t n = modules.size();
  std::vector<Dims> dims(n);
  for (std::size_t i = 0; i < n; ++i) {
    GAP_EXPECTS(modules[i].area_um2 > 0.0);
    const double w = std::sqrt(modules[i].area_um2 * modules[i].aspect);
    dims[i] = {w, modules[i].area_um2 / w};
  }

  Rng rng(options.seed);
  SpState state;
  state.gp.resize(n);
  state.gn.resize(n);
  state.rotated.assign(n, false);
  for (std::size_t i = 0; i < n; ++i)
    state.gp[i] = state.gn[i] = static_cast<int>(i);

  auto placed = evaluate(state, dims);
  Cost cur = cost_of(placed, nets);
  const double area0 = std::max(cur.area, 1.0);
  const double wl0 = std::max(cur.wl, 1.0);
  auto scalar = [&](const Cost& c) {
    return c.area / area0 + options.wirelength_weight * c.wl / wl0;
  };

  double cur_cost = scalar(cur);
  SpState best_state = state;
  double best_cost = cur_cost;

  double temp = kInitialTempScale * std::max(cur_cost, 1e-9);
  const double cooling =
      std::pow(1e-3, 1.0 / std::max(1, options.sa_moves));  // to 0.1% of T0

  for (int move = 0; move < options.sa_moves; ++move) {
    SpState next = state;
    const int kind = static_cast<int>(rng.uniform_index(3));
    const auto i = static_cast<std::size_t>(rng.uniform_index(n));
    auto j = static_cast<std::size_t>(rng.uniform_index(n));
    if (n > 1)
      while (j == i) j = static_cast<std::size_t>(rng.uniform_index(n));
    switch (kind) {
      case 0:
        std::swap(next.gp[i], next.gp[j]);
        break;
      case 1:
        std::swap(next.gp[i], next.gp[j]);
        std::swap(next.gn[i], next.gn[j]);
        break;
      default:
        next.rotated[i] = !next.rotated[i];
        break;
    }
    const auto next_placed = evaluate(next, dims);
    const double next_cost = scalar(cost_of(next_placed, nets));
    const double delta = next_cost - cur_cost;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
      state = std::move(next);
      cur_cost = next_cost;
      if (cur_cost < best_cost) {
        best_cost = cur_cost;
        best_state = state;
      }
    }
    temp *= cooling;
  }

  FloorplanResult r;
  r.modules = evaluate(best_state, dims);
  const Cost final_cost = cost_of(r.modules, nets);
  r.die_w_um = final_cost.die_w;
  r.die_h_um = final_cost.die_h;
  r.total_wirelength_um = final_cost.wl;
  return r;
}

}  // namespace gap::floorplan
