#pragma once
/// \file sta.hpp
/// Graph-based static timing analysis. Propagates arrival times in tau
/// units through the mapped netlist (gate delay = logical-effort arc delay
/// at the actual net load; wire delay = Elmore of the annotated length,
/// optionally assuming optimal repeaters on long nets), then converts the
/// worst path into a minimum clock period:
///
///   T = (worst_path + extra_skew) / (1 - skew_fraction)
///
/// where worst_path includes the launching clk-to-Q and capturing setup.
/// The skew fraction is the clock-distribution quality knob of section 4.1
/// (about 10% for ASICs, 5% for the best custom trees).

#include <vector>

#include "netlist/netlist.hpp"

namespace gap::sta {

/// Clocking environment for the analysis.
struct ClockSpec {
  double skew_fraction = 0.10;  ///< skew as a fraction of the cycle
  double extra_skew_tau = 0.0;  ///< absolute additional skew/jitter
};

struct StaOptions {
  double corner_delay_factor = 1.0;  ///< process corner multiplier
  ClockSpec clock;
  /// Assume long nets (over kern::kRepeaterThresholdUm) are optimally
  /// repeated (section 5's "proper driving of a wire") instead of
  /// unbuffered RC lines.
  bool optimal_repeaters = false;

  /// Optional per-instance delay multipliers (indexed by InstanceId),
  /// used by Monte Carlo statistical STA. Not owned; may be null.
  const std::vector<double>* instance_delay_factors = nullptr;
};

struct TimingResult {
  /// Worst data path in tau: launch clk-to-Q (or PI drive) + gates + wires
  /// + capture setup. Excludes skew.
  double worst_path_tau = 0.0;
  double min_period_tau = 0.0;
  double min_period_ps = 0.0;
  double min_period_fo4 = 0.0;  ///< "FO4 delays per cycle" of section 4
  /// Instances on the critical path, launch to capture.
  std::vector<InstanceId> critical_path;
  /// Arrival at each path instance's output net (tau), parallel to
  /// critical_path: the bits sta::net_arrivals would give for those nets.
  std::vector<double> critical_path_arrival_tau;
  std::size_t num_endpoints = 0;

  [[nodiscard]] double frequency_mhz() const {
    return min_period_ps > 0.0 ? 1.0e6 / min_period_ps : 0.0;
  }
};

/// Run STA over the netlist.
[[nodiscard]] TimingResult analyze(const netlist::Netlist& nl,
                                   const StaOptions& options);

/// Wire modeling of one net exactly as the arrival propagation applies it
/// (Elmore delay, optionally replaced by an optimally repeated line), in
/// tau *before* the corner delay factor. Exposed for consumers that
/// decompose path delay into components (sta::report, gap::qor).
struct WireModel {
  double delay_tau = 0.0;         ///< added at every sink, pre-corner
  double driver_load_units = 0.0; ///< load the driver actually sees
};

class CompactGraph;

[[nodiscard]] WireModel wire_model(const CompactGraph& g, NetId id,
                                   const StaOptions& options);

/// One gate on an extracted critical path.
struct PathNode {
  InstanceId inst;
  /// The worst (arrival-setting) input net of `inst`; invalid for a
  /// sequential launch point (its data path starts at the clock edge).
  NetId input_net;
  /// Arrival at the instance output, in tau.
  double arrival_tau = 0.0;
};

/// A register-to-register (or PI/PO-bounded) critical path.
struct CriticalPath {
  std::vector<PathNode> nodes;  ///< launch to capture driver, in order
  NetId endpoint_net;           ///< net feeding the endpoint
  netlist::NetSink endpoint;    ///< the capturing sink (D pin or PO)
  double path_tau = 0.0;        ///< full path delay incl. capture setup
};

/// The `k` worst endpoint paths, sorted from worst to best. Endpoints are
/// distinct (net, sink) pairs; ties break on net then sink indices so the
/// result is deterministic. Paths may share gates near the launch.
[[nodiscard]] std::vector<CriticalPath> top_critical_paths(
    const netlist::Netlist& nl, const StaOptions& options, int k);

/// Arrival time at every net (tau, at the driver pin), for passes that
/// need per-node criticality (sizing). Index by NetId::index().
[[nodiscard]] std::vector<double> net_arrivals(const netlist::Netlist& nl,
                                               const StaOptions& options);

/// Required-time analysis: worst slack per net for the given period.
[[nodiscard]] std::vector<double> net_slacks(const netlist::Netlist& nl,
                                             const StaOptions& options,
                                             double period_tau);

/// Hold (min-delay) analysis: the shortest launch-to-capture path at each
/// register must exceed the hold requirement plus the absolute skew
/// uncertainty. Registers and latches guard-banded against skew (section
/// 4.1) exist precisely because of this check.
struct HoldResult {
  double worst_slack_tau = 0.0;
  std::size_t violations = 0;
  std::size_t endpoints = 0;
};

[[nodiscard]] HoldResult analyze_hold(const netlist::Netlist& nl,
                                      const StaOptions& options,
                                      double skew_abs_tau);

/// Insert delay cells (buffers or inverter pairs) in front of violating
/// register D pins until hold is clean. Returns the number of cells
/// added. Functionality is preserved.
int fix_hold(netlist::Netlist& nl, const StaOptions& options,
             double skew_abs_tau);

}  // namespace gap::sta
