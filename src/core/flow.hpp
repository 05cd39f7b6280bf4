#pragma once
/// \file flow.hpp
/// The end-to-end implementation flow: technology map -> pipeline ->
/// place -> size -> timing sign-off, all steered by a Methodology. This
/// is the engine behind the factor decomposition: every number in the
/// reproduction is produced by running this flow, not by table lookup.
///
/// Each stage runs under a guard: wall time is measured, structural
/// violations (netlist::verify after every netlist-mutating stage) and
/// captured contract failures become diagnostics in a per-stage report
/// instead of aborting the process, and downstream stages are skipped
/// after a failure.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/methodology.hpp"
#include "logic/aig.hpp"
#include "netlist/netlist.hpp"
#include "qor/snapshot.hpp"
#include "sta/sta.hpp"

namespace gap::core {

enum class StageStatus : std::uint8_t { kOk, kFailed, kSkipped };
[[nodiscard]] std::string to_string(StageStatus s);

/// Record of one flow stage: what ran, how long it took, what the
/// engines did (counter deltas over the stage), what went wrong.
struct StageReport {
  std::string name;
  StageStatus status = StageStatus::kOk;
  double wall_ms = 0.0;
  std::vector<common::Diagnostic> diagnostics;
  /// gap::common::metrics() counters that grew while this stage ran,
  /// with their per-stage deltas ("tilos.moves_accepted" -> 17, ...).
  /// Sorted by name. Attribution is exact while one flow runs at a time
  /// (the registry is process-wide, so concurrent flows blend).
  std::vector<std::pair<std::string, std::uint64_t>> metric_deltas;
  /// QoR snapshot of the netlist after this stage, when the flow ran with
  /// FlowOptions::qor.enabled and the stage both succeeded and left a
  /// netlist to measure. Captured outside the stage timer, so wall_ms is
  /// unaffected by the capture itself.
  std::optional<qor::QorSnapshot> qor;
};

/// Per-stage account of a flow run. A flow whose report is not ok()
/// produced no trustworthy timing/area numbers.
struct FlowReport {
  std::vector<StageReport> stages;

  [[nodiscard]] bool ok() const;
  /// First failed stage, or nullptr when everything ran clean.
  [[nodiscard]] const StageReport* failed_stage() const;
  /// All diagnostics across stages, in stage order.
  [[nodiscard]] std::vector<common::Diagnostic> all_diagnostics() const;
  /// Human-readable table: one line per stage plus indented diagnostics.
  [[nodiscard]] std::string format() const;
  /// format() plus per-stage counter deltas, one indented line each.
  [[nodiscard]] std::string format_with_metrics() const;
};

/// Per-stage QoR capture (gap::qor). Off by default: a run without
/// --qor-out is bit-identical to one built before this subsystem existed.
struct QorCaptureOptions {
  bool enabled = false;
  /// Monte Carlo variation spread at signoff only (0 disables). The seed
  /// and thread count feed sta::monte_carlo_sta; results are
  /// thread-invariant by the determinism contract.
  int mc_samples = 0;
  std::uint64_t mc_seed = 1;
  int mc_threads = 1;
};

/// Optional stages and captures of a flow run.
struct FlowOptions {
  /// Per-stage QoR snapshots for the run manifest (gapflow --qor-out).
  QorCaptureOptions qor;
  /// Run the gap::lint rule catalog on the mapped netlist as a "lint"
  /// stage between map and pipeline. Error findings fail the stage;
  /// warnings are recorded as diagnostics without failing it. Off by
  /// default: the stage is absent entirely, so existing reports and QoR
  /// manifests are unchanged.
  bool lint = false;
  /// Run the dataflow rule families (GL-D clock/reset domains, GL-X
  /// constants and dead logic) on the sized netlist as a "lint-dataflow"
  /// stage between size and signoff — the point where the netlist is
  /// final and register clocking is settled. Off by default, same
  /// report-compatibility contract as `lint`.
  bool lint_dataflow = false;
};

struct FlowResult {
  std::shared_ptr<netlist::Netlist> nl;  ///< final implemented netlist
  sta::TimingResult timing;
  double freq_mhz = 0.0;
  double area_um2 = 0.0;
  int pipeline_registers = 0;
  int sizing_moves = 0;
  double die_w_um = 0.0;
  double die_h_um = 0.0;
  FlowReport report;

  [[nodiscard]] bool ok() const { return report.ok(); }
};

/// The STA options the flow signs off with under methodology `m` (corner
/// delay factor, clock skew, repeater policy). Exposed so resident
/// services (gapd) can build an IncrementalTimer whose queries are
/// byte-identical to the flow's own signoff numbers.
[[nodiscard]] sta::StaOptions signoff_sta_options(const Methodology& m);

/// Owns the cell libraries for one technology and runs flows against it.
class Flow {
 public:
  explicit Flow(tech::Technology technology, std::uint64_t seed = 1);
  ~Flow();
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// Implement a combinational core under the given methodology.
  [[nodiscard]] FlowResult run(const logic::Aig& design,
                               const Methodology& m) const;
  [[nodiscard]] FlowResult run(const logic::Aig& design, const Methodology& m,
                               const FlowOptions& opt) const;

  [[nodiscard]] const library::CellLibrary& library_for(LibraryKind k) const;
  [[nodiscard]] const tech::Technology& technology() const { return tech_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  tech::Technology tech_;
  std::uint64_t seed_;
  std::unique_ptr<library::CellLibrary> poor_;
  std::unique_ptr<library::CellLibrary> rich_;
  std::unique_ptr<library::CellLibrary> custom_;
};

}  // namespace gap::core
