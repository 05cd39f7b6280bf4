#pragma once
/// \file pipeline.hpp
/// Pipelining (section 4 — the largest factor, up to x4): cut a
/// combinational core into N register-bounded stages. Stage assignment is
/// a feed-forward retiming: each instance gets a stage index s(v)
/// monotone along every edge, and (s(v) - s(u)) registers are inserted on
/// each crossing connection, so every PI-to-PO path crosses the same
/// number of ranks (functional equivalence as a pipelined transform).
///
/// Two assignment policies mirror the paper's ASIC/custom contrast:
///  - naive: equal arrival-time thresholds (what quick ASIC pipelining
///    yields: "an ASIC may have unbalanced pipeline stages");
///  - balanced: binary search on the stage-delay bound with a greedy
///    topological packing (what a custom team achieves by hand).

#include <vector>

#include "netlist/netlist.hpp"

namespace gap::pipeline {

struct PipelineOptions {
  int stages = 2;
  bool balanced = true;
};

struct PipelineResult {
  netlist::Netlist nl;
  std::vector<double> stage_delays_tau;  ///< estimated logic per stage
  int registers_added = 0;
};

/// Pipeline a purely combinational netlist into `stages` logic stages with
/// input and output registers (stages == 1 just adds the boundary
/// registers). Every register is the library's smallest static DFF. The
/// input netlist is not modified.
[[nodiscard]] PipelineResult pipeline_insert(const netlist::Netlist& comb,
                                             const PipelineOptions& options);

/// The paper's analytical pipelining model (section 4): an N-stage
/// pipeline with per-stage overhead fraction `overhead` of the logic delay
/// speeds up by N / (1 + overhead). With the paper's numbers: 5 stages at
/// 30% ASIC overhead -> 3.8x; 4 stages at 20% custom overhead -> 3.3x.
[[nodiscard]] double ideal_pipeline_speedup(int stages, double overhead);

}  // namespace gap::pipeline
