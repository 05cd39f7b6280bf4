#include "qor/manifest.hpp"

#include "common/json.hpp"
#include "sta/report.hpp"

namespace gap::qor {
namespace {

namespace json = common::json;

void emit_snapshot(json::Writer& w, const QorSnapshot& s) {
  write_scalars(w.key("qor").begin_object(), s);
  w.key("wave").begin_object().member("levels", s.wave_levels);
  w.member("widest", s.wave_widest);
  w.member("narrow_fraction", s.wave_narrow_fraction).end_object();
  // The histogram object comes from sta::slack_histogram_json so the
  // bucket semantics stay single-sourced with the text rendering.
  w.key("slack_histogram");
  sta::slack_histogram_json(w, s.slack_histogram);
  if (s.mc_samples > 0) {
    w.key("variation").begin_object().member("samples", s.mc_samples);
    w.member("relative_spread", s.mc_relative_spread);
    w.member("mean_shift", s.mc_mean_shift).end_object();
  }
  w.end_object();
}

void emit_attribution_path(json::Writer& w, const PathAttribution& a) {
  w.begin_object().member("delay_tau", a.delay_tau).member("gates", a.gates);
  w.key("buckets").begin_object();
  w.member("logic_depth_tau", a.logic_depth_tau);
  w.member("placement_wire_tau", a.placement_wire_tau);
  w.member("sizing_tau", a.sizing_tau);
  w.member("logic_style_tau", a.logic_style_tau);
  w.member("process_margin_tau", a.process_margin_tau).end_object();
  w.member("sequential_overhead_tau", a.sequential_overhead_tau);
  w.member("domino_headroom_tau", a.domino_headroom_tau).end_object();
}

}  // namespace

void write_scalars(json::Writer& w, const QorSnapshot& s) {
  w.member("worst_path_tau", s.worst_path_tau);
  w.member("min_period_tau", s.min_period_tau);
  w.member("min_period_ps", s.min_period_ps);
  w.member("min_period_fo4", s.min_period_fo4);
  w.member("critical_path_fo4", s.critical_path_fo4);
  w.member("critical_path_gates", s.critical_path_gates);
  w.member("endpoints", s.endpoints).member("area_um2", s.area_um2);
  w.member("total_wirelength_um", s.total_wirelength_um);
  w.member("critical_wirelength_um", s.critical_wirelength_um);
  w.member("sizing_headroom_tau", s.sizing_headroom_tau);
}

common::Result<std::string> write_json(const RunManifest& m) {
  json::Writer w(json::Layout::kPretty);
  w.begin_object().member("schema_version", kManifestSchemaVersion);
  w.member("tool", "gapflow").member("design", m.design);
  w.member("methodology", m.context.methodology_name);
  w.key("corner").begin_object().member("name", m.context.corner_name);
  w.member("delay_factor", m.context.corner_delay_factor).end_object();
  w.member("seed", m.seed);

  w.key("config").begin_object();
  for (const auto& [key, value] : m.config) w.member(key, value);
  w.end_object();

  w.key("stages").begin_array();
  for (const ManifestStage& s : m.stages) {
    w.begin_object().member("name", s.name).member("status", s.status);
    w.member("diagnostics", s.diagnostics);
    if (!s.metric_deltas.empty()) {
      w.key("metric_deltas").begin_object();
      for (const auto& [name, delta] : s.metric_deltas) w.member(name, delta);
      w.end_object();
    }
    if (s.qor) emit_snapshot(w, *s.qor);
    w.end_object();
  }
  w.end_array();

  if (m.attribution) {
    const ManifestAttribution& a = *m.attribution;
    w.key("attribution").begin_object().key("paths").begin_array();
    for (const PathAttribution& p : a.paths) emit_attribution_path(w, p);
    w.end_array().key("gap_score").begin_object();
    w.member("pipelining", a.score.pipelining);
    w.member("placement_wire", a.score.placement_wire);
    w.member("sizing", a.score.sizing);
    w.member("logic_style", a.score.logic_style);
    w.member("process", a.score.process);
    w.member("composed", a.score.composed()).end_object().end_object();
  }

  w.key("diagnostics").begin_object().member("notes", m.notes);
  w.member("warnings", m.warnings).member("errors", m.errors).end_object();

  w.key("result").begin_object().member("ok", m.ok);
  w.member("frequency_mhz", m.freq_mhz).member("area_um2", m.area_um2);
  w.member("pipeline_registers", m.pipeline_registers);
  w.member("sizing_moves", m.sizing_moves).end_object().end_object();
  if (!w.ok())
    return common::Status::error(common::ErrorCode::kInternal,
                                 "QoR manifest has a " + w.error(), {},
                                 "qor");
  return w.take() + '\n';
}

}  // namespace gap::qor
