#include "core/flow.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <sstream>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "library/builders.hpp"
#include "lint/lint.hpp"
#include "netlist/checks.hpp"
#include "pipeline/pipeline.hpp"
#include "route/router.hpp"
#include "sizing/buffers.hpp"
#include "synth/mapper.hpp"

namespace gap::core {
namespace {

common::Diagnostic make_diag(common::ErrorCode code, std::string msg,
                             const std::string& stage) {
  common::Diagnostic d;
  d.severity = common::Severity::kError;
  d.code = code;
  d.message = std::move(msg);
  d.where = "flow:" + stage;
  return d;
}

/// An unwaived lint finding as a diagnostic of `stage`.
common::Diagnostic lint_diag(const lint::Finding& f,
                             const std::string& stage) {
  common::Diagnostic d = make_diag(
      common::ErrorCode::kLint,
      "[" + f.rule + "] " + std::string(lint::to_string(f.anchor)) + " '" +
          f.anchor_name + "': " + f.message,
      stage);
  d.severity = f.severity;
  return d;
}

/// Run the lint catalog on `nl` at `m`'s clock skew, with each rule that
/// `off` names switched off, appending unwaived findings to the stage.
template <typename Off>
void lint_into(StageReport& sr, const netlist::Netlist& nl,
               const Methodology& m, const std::string& stage, Off&& off) {
  const lint::RuleRegistry registry = lint::default_registry();
  lint::LintConfig config;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const lint::RuleInfo& info = registry.rule(i).info();
    if (off(info))
      config.rule_levels.emplace_back(info.id, lint::SeverityOverride::kOff);
  }
  lint::LintContext ctx;
  ctx.nl = &nl;
  ctx.limits = tech::default_electrical_limits();
  ctx.constraints.skew_fraction = m.skew_fraction;
  for (const lint::Finding& f : lint::run_lint(registry, ctx, config).findings)
    if (!f.waived) sr.diagnostics.push_back(lint_diag(f, stage));
}

/// Append netlist::verify findings to the stage; any violation fails it.
void verify_into(StageReport& sr, const netlist::Netlist& nl,
                 const std::string& stage) {
  const netlist::CheckResult check = netlist::verify(nl);
  for (const common::Diagnostic& d : check.diagnostics) {
    common::Diagnostic copy = d;
    copy.where = "flow:" + stage + "/" + copy.where;
    sr.diagnostics.push_back(std::move(copy));
  }
}

/// Runs each stage body under a timing + failure guard that turns
/// GAP_EXPECTS/GAP_ENSURES failures into kContract diagnostics, and
/// appends a StageReport. Once a stage fails, every later stage is
/// reported kSkipped, as is a stage that is not `runnable`.
class StageRunner {
 public:
  explicit StageRunner(FlowReport& report) : report_(report) {}

  template <typename Body>
  bool run(const std::string& name, bool runnable, Body&& body) {
    StageReport sr;
    sr.name = name;
    if (!runnable || failed_) {
      sr.status = StageStatus::kSkipped;
      report_.stages.push_back(std::move(sr));
      return false;
    }
    const common::MetricsSnapshot before = common::metrics().snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      const common::TraceSpan stage_span("flow::", name);
      const ScopedContractCapture guard;
      body(sr);
    } catch (const ContractViolation& v) {
      sr.diagnostics.push_back(
          make_diag(common::ErrorCode::kContract, v.what(), name));
    } catch (const std::exception& e) {
      sr.diagnostics.push_back(
          make_diag(common::ErrorCode::kInternal, e.what(), name));
    }
    const auto t1 = std::chrono::steady_clock::now();
    sr.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // Wall metrics depend on the lane count; manifests stay
    // thread-invariant without them, as MetricsRegistry::json does.
    sr.metric_deltas =
        common::metrics().snapshot().counter_deltas_since(before);
    std::erase_if(sr.metric_deltas, [](const auto& d) {
      return common::MetricsRegistry::is_wall_metric(d.first);
    });
    // Only error-or-worse diagnostics fail the stage; the lint stage
    // records warning findings on an otherwise healthy run.
    bool blocking = false;
    for (const common::Diagnostic& d : sr.diagnostics)
      blocking = blocking || d.severity >= common::Severity::kError;
    if (blocking) {
      sr.status = StageStatus::kFailed;
      failed_ = true;
    }
    const bool ok = sr.status == StageStatus::kOk;
    report_.stages.push_back(std::move(sr));
    return ok;
  }

 private:
  FlowReport& report_;
  bool failed_ = false;
};

}  // namespace

sta::StaOptions signoff_sta_options(const Methodology& m) {
  sta::StaOptions opt;
  opt.corner_delay_factor = m.corner.delay_factor;
  opt.clock.skew_fraction = m.skew_fraction;
  opt.optimal_repeaters = m.optimal_repeaters;
  return opt;
}

qor::RunContext run_context(const Methodology& m) {
  qor::RunContext ctx;
  ctx.skew_fraction = m.skew_fraction;
  ctx.pipeline_stages = m.pipeline_stages;
  ctx.corner_delay_factor = m.corner.delay_factor;
  ctx.dynamic_logic = m.dynamic_logic;
  ctx.methodology_name = m.name;
  ctx.corner_name = m.corner.name;
  return ctx;
}

sizing::SizingResult size_netlist(netlist::Netlist& nl, const Methodology& m,
                                  std::optional<sta::IncrementalTimer>& timer) {
  sizing::initial_drive_assignment(nl);
  sizing::insert_buffers(nl, 96.0);
  sizing::initial_drive_assignment(nl);
  sizing::SizingOptions opt;
  opt.continuous = continuous_sizing(m, nl.lib());
  timer.emplace(nl, signoff_sta_options(m));
  return sizing::tilos_size(*timer, opt);
}

std::string to_string(StageStatus s) {
  switch (s) {
    case StageStatus::kOk: return "ok";
    case StageStatus::kFailed: return "failed";
    case StageStatus::kSkipped: return "skipped";
  }
  return "?";
}

bool FlowReport::ok() const {
  for (const StageReport& s : stages)
    if (s.status == StageStatus::kFailed) return false;
  return true;
}

const StageReport* FlowReport::failed_stage() const {
  for (const StageReport& s : stages)
    if (s.status == StageStatus::kFailed) return &s;
  return nullptr;
}

std::vector<common::Diagnostic> FlowReport::all_diagnostics() const {
  std::vector<common::Diagnostic> out;
  for (const StageReport& s : stages)
    out.insert(out.end(), s.diagnostics.begin(), s.diagnostics.end());
  return out;
}

namespace {

std::string format_stages(const std::vector<StageReport>& stages,
                          bool with_metrics) {
  std::ostringstream os;
  for (const StageReport& s : stages) {
    os << "  " << s.name;
    for (std::size_t i = s.name.size(); i < 15; ++i) os << ' ';
    os << to_string(s.status);
    if (s.status != StageStatus::kSkipped) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "  %8.2f ms", s.wall_ms);
      os << buf;
    }
    os << '\n';
    if (with_metrics)
      for (const auto& [name, delta] : s.metric_deltas)
        os << "    " << name << " +" << delta << '\n';
    for (const common::Diagnostic& d : s.diagnostics)
      os << "    " << d.format() << '\n';
  }
  return os.str();
}

}  // namespace

std::string FlowReport::format() const { return format_stages(stages, false); }

std::string FlowReport::format_with_metrics() const {
  return format_stages(stages, true);
}

Flow::Flow(tech::Technology technology, std::uint64_t seed)
    : tech_(std::move(technology)), seed_(seed) {
  poor_ = std::make_unique<library::CellLibrary>(
      library::make_poor_asic_library(tech_));
  rich_ = std::make_unique<library::CellLibrary>(
      library::make_rich_asic_library(tech_));
  custom_ = std::make_unique<library::CellLibrary>(
      library::make_custom_library(tech_));
  // Domino counterparts are available everywhere; whether a flow uses
  // them is the Methodology's dynamic_logic knob.
  library::add_domino_cells(*poor_);
  library::add_domino_cells(*rich_);
  library::add_domino_cells(*custom_);
}

Flow::~Flow() = default;

const library::CellLibrary& Flow::library_for(LibraryKind k) const {
  switch (k) {
    case LibraryKind::kPoorAsic: return *poor_;
    case LibraryKind::kRichAsic: return *rich_;
    case LibraryKind::kCustom: return *custom_;
  }
  return *rich_;
}

FlowResult Flow::run(const logic::Aig& design, const Methodology& m) const {
  return run(design, m, FlowOptions{});
}

FlowResult Flow::run(const logic::Aig& design, const Methodology& m,
                     const FlowOptions& opt) const {
  GAP_TRACE_SPAN("flow::run");
  static common::Counter& runs = common::metrics().counter("flow.runs");
  runs.add();
  const library::CellLibrary& lib = library_for(m.library);
  FlowResult result;
  StageRunner stages(result.report);
  const sta::StaOptions sta_opt = signoff_sta_options(m);

  // Resident incremental timer, created by the size stage: TILOS re-times
  // each move through it, and sign-off and the QoR captures after it
  // answer from the same cached state. It references *result.nl, whose
  // address is stable once the pipeline stage allocates it.
  std::optional<sta::IncrementalTimer> timer;

  // QoR capture runs after a stage's guard (and outside its timer), on
  // whatever netlist the stage left behind. The Monte Carlo spread is
  // signoff-only; every other stage gets the cheap deterministic set.
  const auto capture_qor = [&](bool ok, const netlist::Netlist* nl,
                               bool with_mc = false) {
    if (!opt.qor.enabled || !ok || nl == nullptr) return;
    qor::SnapshotOptions so;
    so.sta = sta_opt;
    so.continuous_sizing = continuous_sizing(m, lib);
    if (with_mc) {
      so.mc_samples = opt.qor.mc_samples;
      so.mc_seed = opt.qor.mc_seed;
      so.mc_threads = opt.qor.mc_threads;
    }
    result.report.stages.back().qor = timer && nl == &timer->netlist()
                                          ? qor::capture(*timer, so)
                                          : qor::capture(*nl, so);
  };

  // 1. Technology mapping.
  std::optional<netlist::Netlist> mapped;
  bool ok = stages.run("map", true, [&](StageReport& sr) {
    synth::MapOptions map_opt;
    map_opt.objective = synth::MapObjective::kDelay;
    map_opt.family = m.dynamic_logic ? library::Family::kDomino
                                     : library::Family::kStatic;
    mapped = synth::map_to_netlist(design, lib, map_opt,
                                   design.po_name(0) + "_impl");
    verify_into(sr, *mapped, "map");
    if (!sr.diagnostics.empty()) mapped.reset();
  });
  capture_qor(ok, mapped ? &*mapped : nullptr);

  // 1b. Optional pre-flow lint gate on the mapped netlist. Error
  // findings block the flow like a failed verify; warnings ride along as
  // diagnostics. The stage only exists when requested, so default runs
  // (and their QoR manifests) are untouched.
  if (opt.lint) {
    stages.run("lint", mapped.has_value(), [&](StageReport& sr) {
      // The flow derives its own period from signoff STA, so the
      // missing-period rule has nothing to check. The mapped netlist is
      // unsized (1x drives everywhere): electrical violations at this
      // point are the *input* to the size stage, not design errors.
      lint_into(sr, *mapped, m, "lint", [](const lint::RuleInfo& info) {
        return info.id == "GL-K001" ||
               info.category == lint::Category::kElectrical;
      });
    });
  }

  // 2. Pipelining (stages == 1 just register-bounds the design).
  ok = stages.run("pipeline", mapped.has_value(), [&](StageReport& sr) {
    pipeline::PipelineOptions pipe_opt;
    pipe_opt.stages = m.pipeline_stages;
    pipe_opt.balanced = m.balanced_stages;
    pipeline::PipelineResult piped =
        pipeline::pipeline_insert(*mapped, pipe_opt);
    result.nl = std::make_shared<netlist::Netlist>(std::move(piped.nl));
    result.pipeline_registers = piped.registers_added;
    verify_into(sr, *result.nl, "pipeline");
    if (!sr.diagnostics.empty()) result.nl.reset();
  });
  capture_qor(ok, result.nl.get());
  // Every later stage works on the pipelined copy; the mapped netlist is
  // dead, so free it before placement, routing and sizing allocate.
  mapped.reset();

  const bool have_nl = result.nl != nullptr;

  // 3. Placement, then global routing: net lengths come from the routed
  // topology (HPWL plus congestion detours), not bare bounding boxes.
  ok = stages.run("place", have_nl, [&](StageReport& sr) {
    place::PlaceOptions place_opt;
    place_opt.mode = m.placement;
    place_opt.seed = seed_;
    const place::PlaceResult placed = place::place(*result.nl, place_opt);
    result.die_w_um = placed.die_w_um;
    result.die_h_um = placed.die_h_um;
    verify_into(sr, *result.nl, "place");
  });
  capture_qor(ok, result.nl.get());
  ok = stages.run("route", have_nl, [&](StageReport&) {
    route::route(*result.nl, route::RouteOptions{});
  });
  capture_qor(ok, result.nl.get());

  // 4. Gate sizing against the post-placement loads (size_netlist's
  // recipe), leaving the resident timer behind.
  ok = stages.run("size", have_nl, [&](StageReport& sr) {
    result.sizing_moves = size_netlist(*result.nl, m, timer).moves;
    verify_into(sr, *result.nl, "size");
  });
  capture_qor(ok, result.nl.get());

  // 4b. Optional post-sizing dataflow gate: clock/reset-domain and
  // constant/dead-logic rules on the final netlist, where every register
  // and its clock phase is settled. Only the dataflow families run —
  // the structural/electrical catalog already had its pre-flow gate.
  if (opt.lint_dataflow) {
    stages.run("lint-dataflow", have_nl, [&](StageReport& sr) {
      lint_into(sr, *result.nl, m, "lint-dataflow",
                [](const lint::RuleInfo& info) {
                  return info.category != lint::Category::kDomain &&
                         info.category != lint::Category::kDataflow;
                });
    });
  }

  // 5. Sign-off timing, answered by the size stage's resident timer: a
  // stage runs only after every earlier one succeeded, so the timer exists.
  ok = stages.run("signoff", have_nl, [&](StageReport&) {
    result.timing = timer.value().timing();
    result.freq_mhz = result.timing.frequency_mhz();
    result.area_um2 = result.nl->total_area_um2();
  });
  capture_qor(ok, result.nl.get(), /*with_mc=*/true);

  return result;
}

}  // namespace gap::core
