#pragma once
/// \file manifest.hpp
/// QoR run manifest: one JSON document describing a whole gapflow run —
/// configuration, seed, per-stage QoR snapshots and metric deltas, the
/// gap-factor attribution, a diagnostics summary and the final result.
/// Written by `gapflow --qor-out FILE`, consumed by `gapreport` (show /
/// diff) and the CI QoR gate. Schema documented in docs/qor.md.
///
/// Byte-identity: the manifest deliberately records no wall-clock times
/// and no thread count. Results are thread-invariant by the determinism
/// contract (docs/parallelism.md), so two runs of the same configuration
/// at different --threads settings must produce byte-identical manifests
/// — that is what makes `gapreport diff` trustworthy in CI.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "qor/attribution.hpp"
#include "qor/snapshot.hpp"

namespace gap::qor {

/// Current manifest schema. Bump when a field changes meaning; gapreport
/// warns on mismatch but still diffs shared keys.
inline constexpr int kManifestSchemaVersion = 1;

/// One flow stage in the manifest.
struct ManifestStage {
  std::string name;
  std::string status;  ///< "ok" | "failed" | "skipped"
  std::size_t diagnostics = 0;
  /// Per-stage engine counter deltas, sorted by name (from StageReport).
  std::vector<std::pair<std::string, std::uint64_t>> metric_deltas;
  /// Present for stages that ran with QoR capture enabled.
  std::optional<QorSnapshot> qor;
};

/// Gap-factor section: top-K path attributions plus the composed score.
struct ManifestAttribution {
  std::vector<PathAttribution> paths;  ///< worst first
  GapScore score;
};

/// Everything `gapflow --qor-out` records about one run.
struct RunManifest {
  std::string design;
  RunContext context;  ///< methodology/corner facts (also echoed in JSON)
  std::uint64_t seed = 1;
  /// Free-form configuration echo ("threads" excluded by design), in
  /// insertion order.
  std::vector<std::pair<std::string, std::string>> config;

  std::vector<ManifestStage> stages;
  std::optional<ManifestAttribution> attribution;

  // Final flow result (zeros when the flow failed).
  bool ok = false;
  double freq_mhz = 0.0;
  double area_um2 = 0.0;
  int pipeline_registers = 0;
  int sizing_moves = 0;

  // Diagnostics summary across all stages.
  std::size_t notes = 0;
  std::size_t warnings = 0;
  std::size_t errors = 0;
};

/// The snapshot's scalar QoR members, worst_path_tau through
/// sizing_headroom_tau, into the open object in `w`: the manifest's
/// per-stage "qor" block and the gapd `qor` reply both start with them.
void write_scalars(common::json::Writer& w, const QorSnapshot& s);

/// Render the manifest as pretty-printed JSON (UTF-8, two-space indent,
/// '\n' line ends, trailing newline). Purely a function of the manifest,
/// so equal manifests produce byte-identical text. A non-finite number
/// anywhere in the manifest is not JSON: the result is then a kInternal
/// error naming it, never a file with "nan" in it.
[[nodiscard]] common::Result<std::string> write_json(const RunManifest& m);

}  // namespace gap::qor
