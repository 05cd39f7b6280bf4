#pragma once
/// \file tilos.hpp
/// Gate sizing in the style of TILOS (Fishburn & Dunlop, ICCAD '85 — the
/// paper's reference [7]): repeatedly upsize the gate on the critical path
/// with the best delay-gain estimate, re-running STA after each move.
///
/// Two sizing regimes mirror section 6:
///  - discrete: repowering within the library's drive ladder (any ASIC);
///  - continuous: arbitrary drive via Instance::drive_override (custom).
/// recover_area() is the complementary pass ("sizing transistors minimally
/// to reduce power consumption, except on critical paths").

#include "netlist/netlist.hpp"
#include "sta/incremental.hpp"
#include "sta/sta.hpp"

namespace gap::sizing {

struct SizingOptions {
  sta::StaOptions sta;

  /// Continuous transistor sizing (custom methodology). When false, moves
  /// are restricted to the cells present in the library.
  bool continuous = false;
  double continuous_step = 1.15;  ///< multiplicative drive step
  double max_drive = 64.0;        ///< cap for continuous sizing

  int max_moves = 4000;
  double min_gain_tau = 1e-4;  ///< stop when the best move gains less
};

struct SizingResult {
  int moves = 0;
  double initial_period_tau = 0.0;
  double final_period_tau = 0.0;

  [[nodiscard]] double speedup() const {
    return final_period_tau > 0.0 ? initial_period_tau / final_period_tau
                                  : 1.0;
  }
};

/// Initial drive selection as logic synthesis performs it ("initial logic
/// synthesis may choose drive strengths using estimations for wire
/// lengths and the net load a gate has to drive", section 6.2): set every
/// instance's drive so its electrical effort is about `stage_effort`,
/// iterating in reverse topological order because loads depend on sink
/// drives. Drives snap to the library ladder.
void initial_drive_assignment(netlist::Netlist& nl, double stage_effort = 4.0,
                              int iterations = 3);

/// Upsize critical-path gates until no move helps. Modifies `nl` in place;
/// a sta::IncrementalTimer built with options.sta re-times each move.
SizingResult tilos_size(netlist::Netlist& nl, const SizingOptions& options);

/// tilos_size on an existing resident timer (its netlist is sized in
/// place through edits). `options.sta` is ignored in favor of the
/// timer's own options.
SizingResult tilos_size(sta::IncrementalTimer& timer,
                        const SizingOptions& options);

/// Downsize gates with positive slack at the given period without creating
/// violations (checked through an incremental timer built with
/// options.sta). Returns area saved in um^2.
double recover_area(netlist::Netlist& nl, const SizingOptions& options,
                    double period_tau);

/// Remaining sizing headroom along a path (tau): the sum of the positive
/// TILOS gain estimates of the best next upsize of each gate on `path`.
/// Zero for a path TILOS has fully converged on; a large value flags a
/// run that left critical-path sizing on the table (the paper's section 6
/// ">= 20% critical-path sizing" sub-claim). Read-only: no move is made.
[[nodiscard]] double path_upsize_headroom_tau(
    const netlist::Netlist& nl, const std::vector<InstanceId>& path,
    const SizingOptions& options);

}  // namespace gap::sizing
