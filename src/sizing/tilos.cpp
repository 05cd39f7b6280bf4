#include "sizing/tilos.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "netlist/checks.hpp"

namespace gap::sizing {
namespace {

using netlist::NetDriver;
using netlist::Netlist;

constexpr double kMaxDrive = 64.0;    ///< cap for continuous sizing
constexpr double kContinuousStep = 1.25;  ///< continuous drive multiplier
constexpr double kMinGainTau = 1e-4;  ///< stop when the best move gains less

/// A candidate resize of one instance.
struct Move {
  sta::Edit edit;  ///< set_drive (continuous) or replace_cell (discrete)
  double gain_estimate = 0.0;
};

/// Estimated path-delay gain of upsizing: the gate's own effort delay
/// shrinks; every fanin driver pays the extra input capacitance.
double estimate_gain(const Netlist& nl, InstanceId id, double new_drive) {
  const double old_drive = nl.drive_of(id);
  const double load = nl.net_load(nl.instance(id).output);
  const double own_gain = load / old_drive - load / new_drive;

  const double g = nl.cell_of(id).logical_effort;
  const double delta_cin = g * (new_drive - old_drive);
  double penalty = 0.0;
  for (NetId in : nl.instance(id).inputs) {
    const NetDriver& d = nl.net(in).driver;
    if (d.kind == NetDriver::Kind::kInstance)
      penalty = std::max(penalty, delta_cin / nl.drive_of(d.inst));
    else if (d.kind == NetDriver::Kind::kPrimaryInput)
      penalty = std::max(penalty, delta_cin / nl.port(d.port).ext_drive);
  }
  // The worst fanin is usually on the same critical path; others are not.
  return own_gain - penalty;
}

/// Best available upsize of `id`, if any.
std::optional<Move> upsize_move(const Netlist& nl, InstanceId id,
                                const SizingOptions& opt) {
  const library::Cell& c = nl.cell_of(id);
  const double cur = nl.drive_of(id);
  Move m;
  double drive = 0.0;  // the drive after the move
  if (opt.continuous) {
    drive = cur * kContinuousStep;
    if (drive > kMaxDrive) return std::nullopt;
    m.edit = sta::Edit::set_drive(id, drive);
  } else {
    // Next cell up the ladder for the same function and family.
    const auto& ladder = nl.lib().cells_of(c.func, c.family);
    CellId next_cell;
    for (CellId cand : ladder) {
      if (nl.lib().cell(cand).drive > cur + 1e-12) {
        next_cell = cand;
        break;
      }
    }
    if (!next_cell.valid()) return std::nullopt;
    m.edit = sta::Edit::replace_cell(id, next_cell);
    drive = nl.lib().cell(next_cell).drive;
  }
  m.gain_estimate = estimate_gain(nl, id, drive);
  return m;
}

/// Route a resize through the timer, keeping its dirty cones exact, and
/// return the edit that undoes it. These moves are generated from the
/// library ladder, so timer validation cannot fail — a rejection would be
/// an internal contract violation.
sta::Edit apply(sta::IncrementalTimer& timer, const sta::Edit& edit) {
  const common::Result<sta::Edit> inverse = timer.apply_undoable(edit);
  GAP_EXPECTS(inverse.ok());
  return *inverse;
}

}  // namespace

SizingResult tilos_size(sta::IncrementalTimer& timer,
                        const SizingOptions& options) {
  GAP_TRACE_SPAN("sizing::tilos");
  static common::Counter& runs = common::metrics().counter("tilos.runs");
  static common::Counter& iterations =
      common::metrics().counter("tilos.iterations");
  static common::Counter& accepted =
      common::metrics().counter("tilos.moves_accepted");
  static common::Counter& rejected =
      common::metrics().counter("tilos.moves_rejected");
  runs.add();

  Netlist& nl = timer.netlist();
  SizingResult result;
  sta::TimingResult timing = timer.timing();
  result.initial_period_tau = timing.min_period_tau;
  result.final_period_tau = timing.min_period_tau;
  if (timing.num_endpoints == 0) return result;

  // Instances whose upsize was tried and made things worse.
  std::unordered_set<std::uint32_t> blocked;

  while (result.moves < options.max_moves) {
    iterations.add();
    // Best estimated move along the current critical path.
    std::optional<Move> best;
    for (InstanceId id : timing.critical_path) {
      if (blocked.contains(id.value())) continue;
      const auto m = upsize_move(nl, id, options);
      if (!m) continue;
      if (!best || m->gain_estimate > best->gain_estimate) best = m;
    }
    if (!best || best->gain_estimate <= kMinGainTau) break;

    const sta::Edit undo = apply(timer, best->edit);
    const sta::TimingResult after = timer.timing();
    if (after.min_period_tau < result.final_period_tau - kMinGainTau) {
      timing = after;
      result.final_period_tau = after.min_period_tau;
      ++result.moves;
      accepted.add();
      blocked.clear();  // the landscape changed; retry earlier failures
    } else {
      apply(timer, undo);
      blocked.insert(best->edit.inst.value());
      rejected.add();
    }
  }
  return result;
}

SizingResult tilos_size(Netlist& nl, const SizingOptions& options) {
  sta::IncrementalTimer timer(nl, options.sta);
  return tilos_size(timer, options);
}

double recover_area(Netlist& nl, const SizingOptions& options,
                    double period_tau) {
  sta::IncrementalTimer timer(nl, options.sta);
  const double area_before = nl.total_area_um2();

  double safety = 0.5;  // accept a move only if est. delta < safety * slack
  for (int round = 0; round < 20; ++round) {
    const auto slacks = timer.slacks(period_tau);
    std::vector<sta::Edit> undo;  // the batch's inverses, in apply order
    for (InstanceId id : nl.all_instances()) {
      const library::Cell& c = nl.cell_of(id);
      const double slack = slacks[nl.instance(id).output.index()];
      if (slack < 0.5) continue;  // keep margin on near-critical gates

      // Next cell down the ladder.
      const double cur = nl.drive_of(id);
      const auto& ladder = nl.lib().cells_of(c.func, c.family);
      CellId smaller;
      for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
        if (nl.lib().cell(*it).drive < cur - 1e-12) {
          smaller = *it;
          break;
        }
      }
      if (!smaller.valid()) continue;
      // Own delay increase bound: load / s_small - load / s_cur.
      const double load = nl.net_load(nl.instance(id).output);
      const double delta = load / nl.lib().cell(smaller).drive - load / cur;
      if (delta >= slack * safety) continue;
      undo.push_back(apply(timer, sta::Edit::set_drive(id, 0.0)));
      undo.push_back(apply(timer, sta::Edit::replace_cell(id, smaller)));
    }
    if (undo.empty()) break;

    // One global verification per batch; revert wholesale on violation
    // and retry more conservatively.
    const auto after = timer.slacks(period_tau);
    double worst = 1e30;
    for (double s : after) worst = std::min(worst, s);
    if (worst < 0.0) {
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) apply(timer, *it);
      safety *= 0.5;
      if (safety < 0.05) break;
    }
  }
  return area_before - nl.total_area_um2();
}

void initial_drive_assignment(Netlist& nl, double stage_effort,
                              int iterations) {
  GAP_EXPECTS(stage_effort > 0.0);
  const auto order = netlist::topo_order(nl);
  for (int pass = 0; pass < iterations; ++pass) {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const InstanceId id = *it;
      const library::Cell& c = nl.cell_of(id);
      const double load = nl.net_load(nl.instance(id).output);
      const double want = std::max(1.0, load / stage_effort);
      const auto cell =
          nl.lib().best_for_drive(c.func, c.family, want);
      if (!cell) continue;
      nl.instance(id).drive_override = 0.0;
      if (*cell != nl.instance(id).cell) nl.replace_cell(id, *cell);
    }
  }
}

double path_upsize_headroom_tau(const Netlist& nl,
                                const std::vector<InstanceId>& path,
                                const SizingOptions& options) {
  double headroom = 0.0;
  for (InstanceId id : path) {
    if (nl.is_sequential(id)) continue;
    const auto m = upsize_move(nl, id, options);
    if (m && m->gain_estimate > 0.0) headroom += m->gain_estimate;
  }
  return headroom;
}

}  // namespace gap::sizing
