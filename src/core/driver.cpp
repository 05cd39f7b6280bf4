#include "core/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <ostream>
#include <span>
#include <utility>

#include "common/cli.hpp"
#include "common/io_guard.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/flow.hpp"
#include "core/gap.hpp"
#include "designs/registry.hpp"
#include "dft/scan.hpp"
#include "library/liberty.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "noise/crosstalk.hpp"
#include "power/power.hpp"
#include "qor/manifest.hpp"
#include "sta/report.hpp"
#include "sta/statistical.hpp"

namespace gap::core::cli {
namespace {

using common::ErrorCode;
using common::Result;
using common::Status;
namespace cl = common::cli;

template <typename... A>
void put(std::ostream& os, const char* fmt, A... a) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a...);
  os << buf;
}

/// The gapflow flag table, storing into `a`.
std::vector<cl::Flag> flag_table(DriverArgs& a) {
  return {
      cl::string_flag("--design", a.design, "NAME",
                      "design from the registry (default alu32)"),
      cl::switch_flag("--list-designs", a.list_designs,
                      "print available designs and exit"),
      cl::string_flag("--methodology", a.methodology, "M",
                      "typical | good | custom | reference"),
      cl::string_flag("--tech", a.tech, "T",
                      "asic025 | custom025 | ibm018 | asic035"),
      cl::number_flag("--stages", a.stages, "N", {1, 1000000},
                      "override pipeline stage count"),
      cl::string_flag("--corner", a.corner, "C",
                      "typical | worst | conservative | fast"),
      cl::switch_flag("--macro", a.macro_style,
                      "use macro-cell datapath style"),
      cl::switch_flag("--scan", a.scan, "insert a scan chain before signoff"),
      cl::string_flag("--report", a.report, "R",
                      "timing | power | noise | all"),
      cl::number_flag("--mc", a.mc_samples, "N", {0, 1000000},
                      "Monte Carlo statistical signoff, N samples"),
      cl::number_flag("--threads", a.threads, "N", {0, 1024},
                      "fan-out thread count (0 = all cores); results are "
                      "identical at any setting"),
      cl::switch_flag("--diagnostics", a.diagnostics,
                      "dump the per-stage flow report"),
      cl::switch_flag("--lint", a.lint,
                      "run the gap::lint gate on the mapped netlist (error "
                      "findings fail the flow; see gaplint for the "
                      "standalone tool)"),
      cl::switch_flag("--lint-dataflow", a.lint_dataflow,
                      "run the dataflow rule families (clock/reset domains, "
                      "constants, dead logic) on the sized netlist before "
                      "signoff"),
      cl::string_flag("--trace-out", a.trace_out, "FILE",
                      "write a Chrome trace_event JSON of the run "
                      "(chrome://tracing / Perfetto)"),
      cl::string_flag("--metrics-out", a.metrics_out, "FILE",
                      "write engine counters/histograms as JSON "
                      "(docs/observability.md)"),
      cl::string_flag("--qor-out", a.qor_out, "FILE",
                      "write the QoR run manifest: per-stage snapshots + "
                      "gap-factor attribution (docs/qor.md, diff with "
                      "gapreport)"),
      cl::string_flag("--check-liberty", a.check_liberty, "FILE",
                      "lint a Liberty file and exit"),
      cl::string_flag("--check-verilog", a.check_verilog, "FILE",
                      "lint a Verilog file (against the methodology's "
                      "library) and exit"),
      cl::string_flag("--write-verilog", a.verilog_out, "FILE",
                      "dump the implemented netlist"),
      cl::string_flag("--write-liberty", a.liberty_out, "FILE",
                      "dump the methodology's cell library"),
      cl::help_flag(a.help),
  };
}

std::string help_text() {
  DriverArgs unused;
  return cl::usage(
      "gapflow — implement a design and report timing/power\n\n"
      "usage: gapflow [options]\n",
      {{"options:", flag_table(unused)}},
      "exit codes: 0 ok, 2 unknown flag, 3 bad flag value,\n"
      "  4 unknown name, 5 input error, 6 flow failure\n");
}

Status usage_error(ErrorCode code, std::string msg) {
  return Status::error(code, std::move(msg), {}, "gapflow");
}

/// Emit the one-line diagnostic for a failed status and return its exit
/// code.
int report_failure(const Status& s, std::ostream& err) {
  err << s.to_diagnostic().format() << '\n';
  return exit_code_for(s.code());
}

/// Write one output file (manifest, trace, metrics) and say so on `out`.
Status write_output(const std::string& path, const std::string& text,
                    std::ostream& out) {
  std::ofstream os(path, std::ios::binary);
  if (!os)
    return Status::error(ErrorCode::kIo, "cannot write '" + path + "'", {},
                         "gapflow");
  os << text;
  out << "wrote " << path << '\n';
  return Status();
}

/// Arm the observability sinks requested on the command line, then write
/// them with finish(). The registry/tracer are process-wide, so each run
/// starts from a clean slate to report only its own work; tracing is
/// switched off again after the dump so in-process callers (tests,
/// sweeps) do not inherit an enabled tracer.
class ObservabilityOutputs {
 public:
  explicit ObservabilityOutputs(const DriverArgs& args)
      : trace_path_(args.trace_out), metrics_path_(args.metrics_out) {
    if (!metrics_path_.empty()) common::metrics().reset();
    if (!trace_path_.empty()) {
      common::tracer().clear();
      common::tracer().set_enabled(true);
    }
  }

  /// Write the requested files; empty Status on success.
  [[nodiscard]] Status finish(std::ostream& out) {
    if (!trace_path_.empty()) {
      common::tracer().set_enabled(false);
      const std::string path = std::exchange(trace_path_, {});
      if (Status s = write_output(path, common::tracer().chrome_json(), out);
          !s.ok())
        return s;
    }
    if (metrics_path_.empty()) return Status();
    return write_output(std::exchange(metrics_path_, {}),
                        common::metrics().json(), out);
  }

  ~ObservabilityOutputs() {
    // Never leave the process-wide tracer enabled past this run.
    if (!trace_path_.empty()) common::tracer().set_enabled(false);
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

/// Critical paths attributed in the manifest's gap-factor section.
constexpr int kManifestTopPaths = 5;

/// Assemble the QoR run manifest from a finished (or failed) flow. The
/// manifest deliberately records neither wall times nor the thread count:
/// results are thread-invariant by the determinism contract, and only
/// run-describing inputs belong in a diffable document (docs/qor.md).
qor::RunManifest build_manifest(const DriverArgs& args, const Methodology& m,
                                const Flow& flow, const FlowResult& r) {
  qor::RunManifest man;
  man.design = args.design;
  man.context.skew_fraction = m.skew_fraction;
  man.context.pipeline_stages = m.pipeline_stages;
  man.context.corner_delay_factor = m.corner.delay_factor;
  man.context.dynamic_logic = m.dynamic_logic;
  man.context.methodology_name = m.name;
  man.context.corner_name = m.corner.name;
  man.seed = flow.seed();
  man.config = {
      {"design", args.design},
      {"methodology", args.methodology},
      {"tech", args.tech},
      {"corner", m.corner.name},
      {"pipeline_stages", std::to_string(m.pipeline_stages)},
      {"macro", args.macro_style ? "true" : "false"},
      {"scan", args.scan ? "true" : "false"},
      {"mc_samples", std::to_string(args.mc_samples)},
  };

  for (const StageReport& s : r.report.stages) {
    qor::ManifestStage ms;
    ms.name = s.name;
    ms.status = to_string(s.status);
    ms.diagnostics = s.diagnostics.size();
    // Counter deltas describe the work the engines did, not the design's
    // QoR, so they belong in the manifest only on an observability run:
    // plain manifests stay byte-equal to the committed goldens and to
    // earlier runs.
    if (!args.metrics_out.empty()) ms.metric_deltas = s.metric_deltas;
    ms.qor = s.qor;
    man.stages.push_back(std::move(ms));
    for (const common::Diagnostic& d : s.diagnostics) {
      if (d.severity == common::Severity::kNote) ++man.notes;
      else if (d.severity == common::Severity::kWarning) ++man.warnings;
      else ++man.errors;
    }
  }

  man.ok = r.ok();
  if (r.ok() && r.nl) {
    man.freq_mhz = r.freq_mhz;
    man.area_um2 = r.area_um2;
    man.pipeline_registers = r.pipeline_registers;
    man.sizing_moves = r.sizing_moves;

    const sta::StaOptions so = signoff_sta_options(m);
    const auto paths =
        sta::top_critical_paths(*r.nl, so, kManifestTopPaths);
    if (!paths.empty()) {
      qor::ManifestAttribution attr;
      for (const sta::CriticalPath& p : paths)
        attr.paths.push_back(qor::attribute_path(*r.nl, p, so));
      attr.score = qor::gap_score(attr.paths.front(), man.context);
      man.attribution = std::move(attr);
    }
  }
  return man;
}

Result<std::string> read_file(const std::string& path) {
  std::optional<std::string> text = common::read_file(path);
  if (!text)
    return Status::error(ErrorCode::kIo, "cannot read '" + path + "'", {},
                         "gapflow");
  return std::move(*text);
}

}  // namespace

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return cl::kExitOk;
    case ErrorCode::kUsage: return cl::kExitUsage;
    case ErrorCode::kMissingValue:
    case ErrorCode::kInvalidValue: return 3;
    case ErrorCode::kUnknownName: return 4;
    case ErrorCode::kParse:
    case ErrorCode::kDuplicate:
    case ErrorCode::kIo: return cl::kExitIo;
    case ErrorCode::kStructural:
    case ErrorCode::kContract:
    case ErrorCode::kInternal:
    case ErrorCode::kLint: return 6;
  }
  return 6;
}

Result<DriverArgs> parse_args(const std::vector<std::string>& argv) {
  DriverArgs a;
  const std::span<const std::string> args(argv);
  if (Status s = cl::parse(args.subspan(std::min<std::size_t>(1, args.size())),
                           flag_table(a));
      !s.ok())
    return usage_error(s.code(), s.message());
  if (!a.report.empty() && a.report != "timing" && a.report != "power" &&
      a.report != "noise" && a.report != "all")
    return usage_error(ErrorCode::kUnknownName,
                       "unknown --report '" + a.report + "'");
  return a;
}

int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err) {
  const Result<DriverArgs> parsed = parse_args(argv);
  if (!parsed.ok()) {
    const int code = report_failure(parsed.status(), err);
    err << "run 'gapflow --help' for usage\n";
    return code;
  }
  const DriverArgs& args = *parsed;
  if (args.help) {
    out << help_text();
    return 0;
  }
  if (args.list_designs) {
    for (const std::string& name : designs::design_names()) out << name << '\n';
    return 0;
  }

  const auto t = tech::technology_by_name(args.tech);
  if (!t)
    return report_failure(usage_error(ErrorCode::kUnknownName,
                                      "unknown --tech '" + args.tech + "'"),
                          err);
  auto m = core::methodology_by_name(args.methodology);
  if (!m)
    return report_failure(
        usage_error(ErrorCode::kUnknownName,
                    "unknown --methodology '" + args.methodology + "'"),
        err);
  if (args.stages) m->pipeline_stages = *args.stages;
  if (args.corner) {
    const auto c = tech::corner_by_name(*args.corner);
    if (!c)
      return report_failure(
          usage_error(ErrorCode::kUnknownName,
                      "unknown --corner '" + *args.corner + "'"),
          err);
    m->corner = *c;
  }
  if (args.macro_style) m->datapath = designs::DatapathStyle::kMacro;

  // Lint modes: parse the file, print every finding, exit without running
  // a flow.
  if (!args.check_liberty.empty()) {
    const auto text = read_file(args.check_liberty);
    if (!text.ok()) return report_failure(text.status(), err);
    const auto lib = library::read_liberty(*text);
    if (!lib.ok()) {
      Status s = lib.status();
      return report_failure(
          Status::error(s.code(), args.check_liberty + ": " + s.message(),
                        s.loc(), s.where()),
          err);
    }
    out << args.check_liberty << ": ok (" << lib->size() << " cells)\n";
    return 0;
  }

  // Arm tracing/metrics before the Flow is built so library construction
  // and every stage land in the dump.
  ObservabilityOutputs obs(args);

  core::Flow flow(*t);
  const library::CellLibrary& lib = flow.library_for(m->library);

  if (!args.check_verilog.empty()) {
    const auto text = read_file(args.check_verilog);
    if (!text.ok()) return report_failure(text.status(), err);
    const auto nl = netlist::read_verilog(*text, lib);
    if (!nl.ok()) {
      Status s = nl.status();
      return report_failure(
          Status::error(s.code(), args.check_verilog + ": " + s.message(),
                        s.loc(), s.where()),
          err);
    }
    out << args.check_verilog << ": ok (" << nl->num_instances()
        << " instances)\n";
    return 0;
  }

  bool known = false;
  for (const std::string& name : designs::design_names())
    if (name == args.design) known = true;
  if (!known)
    return report_failure(
        usage_error(ErrorCode::kUnknownName, "unknown design '" + args.design +
                                                 "' (--list-designs)"),
        err);

  const auto design = designs::make_design(args.design, m->datapath);
  FlowOptions fopt;
  fopt.lint = args.lint;
  fopt.lint_dataflow = args.lint_dataflow;
  if (!args.qor_out.empty()) {
    fopt.qor.enabled = true;
    fopt.qor.mc_samples = args.mc_samples;
    fopt.qor.mc_seed = flow.seed();
    fopt.qor.mc_threads = args.threads;
  }
  core::FlowResult r = flow.run(design, *m, fopt);

  // Manifest I/O shared by the success and failure paths; a run that
  // died mid-flow still records which stage failed and the QoR it
  // reached (status "failed"/"skipped" stages simply carry no snapshot).
  const auto write_manifest = [&]() -> Status {
    if (args.qor_out.empty()) return Status();
    const auto text = qor::write_json(build_manifest(args, *m, flow, r));
    return text.ok() ? write_output(args.qor_out, *text, out) : text.status();
  };

  if (args.diagnostics || !r.ok()) {
    // With --metrics-out the registry was reset for this run, so the
    // per-stage counter deltas are meaningful; show them.
    out << "flow report:\n"
        << (args.metrics_out.empty() ? r.report.format()
                                     : r.report.format_with_metrics());
  }
  if (!r.ok() || !r.nl) {
    // Dump trace/metrics/manifest for failed flows too: per-stage
    // visibility is most valuable exactly when a stage died.
    if (const Status s = write_manifest(); !s.ok()) return report_failure(s, err);
    if (const Status s = obs.finish(out); !s.ok()) report_failure(s, err);
    for (const common::Diagnostic& d : r.report.all_diagnostics())
      err << d.format() << '\n';
    const StageReport* failed = r.report.failed_stage();
    const ErrorCode code = (failed && !failed->diagnostics.empty())
                               ? failed->diagnostics.front().code
                               : ErrorCode::kInternal;
    return exit_code_for(code);
  }

  const sta::StaOptions sta_opt = signoff_sta_options(*m);

  if (args.scan) {
    const auto scan = dft::insert_scan(*r.nl);
    put(out, "scan chain inserted: %d flops, %d muxes\n", scan.chain_length,
        scan.muxes_added);
    r.timing = sta::analyze(*r.nl, sta_opt);
    r.freq_mhz = r.timing.frequency_mhz();
    r.area_um2 = r.nl->total_area_um2();
  }

  put(out, "gapflow: %s under %s in %s\n\n", args.design.c_str(),
      m->name.c_str(), t->name.c_str());
  const auto stats = netlist::collect_stats(*r.nl);
  put(out, "  frequency : %.0f MHz (%.1f FO4/cycle)\n", r.freq_mhz,
      r.timing.min_period_fo4);
  put(out, "  area      : %.0f um^2 (%zu instances, %zu registers)\n",
      r.area_um2, stats.instances, stats.sequential);
  put(out, "  die       : %.0f x %.0f um\n", r.die_w_um, r.die_h_um);
  put(out, "  stages    : %d (%d registers inserted)\n\n", m->pipeline_stages,
      r.pipeline_registers);

  if (args.report == "timing" || args.report == "all") {
    out << sta::format_critical_path(*r.nl, r.timing) << '\n';
    out << sta::format_slack_histogram(*r.nl, sta_opt,
                                       r.timing.min_period_tau)
        << '\n';
  }
  if (args.report == "power" || args.report == "all") {
    power::PowerOptions popt;
    popt.freq_mhz = r.freq_mhz;
    const auto p = power::estimate_power(*r.nl, popt);
    put(out, "power @ %.0f MHz:\n", r.freq_mhz);
    put(out, "  dynamic   : %.2f mW\n", p.dynamic_mw);
    put(out, "  clock     : %.2f mW\n", p.clock_mw);
    put(out, "  precharge : %.2f mW\n", p.precharge_mw);
    put(out, "  leakage   : %.3f mW\n", p.leakage_mw);
    put(out, "  total     : %.2f mW (%.1f MHz/mW)\n\n", p.total_mw(),
        r.freq_mhz / p.total_mw());
  }

  if (args.mc_samples > 0) {
    sta::McStaOptions mc;
    mc.base = sta_opt;
    mc.samples = args.mc_samples;
    mc.threads = args.threads;
    const auto r_mc = sta::monte_carlo_sta(*r.nl, mc);
    const double med = r_mc.period_tau.quantile(0.5);
    put(out, "statistical signoff (%d samples, %d thread(s)):\n", mc.samples,
        args.threads);
    put(out, "  nominal   : %.1f tau (%.0f MHz at signoff corner)\n",
        r_mc.nominal_period_tau, r.freq_mhz);
    put(out, "  median    : %.1f tau (mean shift %+.1f%%)\n", med,
        100.0 * r_mc.mean_shift());
    put(out, "  q05..q95  : %.1f .. %.1f tau (spread %.1f%%)\n\n",
        r_mc.period_tau.quantile(0.05), r_mc.period_tau.quantile(0.95),
        100.0 * r_mc.relative_spread());
  }

  if (args.report == "noise" || args.report == "all") {
    const auto noise = noise::analyze_noise(*r.nl, noise::NoiseOptions{});
    put(out,
        "crosstalk: worst bump %.2f Vdd, %zu static / %zu domino "
        "margin failures over %zu coupled nets\n\n",
        noise.worst_bump_fraction, noise.static_failures,
        noise.domino_failures, noise.nets.size());
  }

  if (!args.verilog_out.empty()) {
    std::ofstream os(args.verilog_out);
    if (!os)
      return report_failure(
          Status::error(ErrorCode::kIo,
                        "cannot write '" + args.verilog_out + "'", {},
                        "gapflow"),
          err);
    netlist::write_verilog(*r.nl, os);
    out << "wrote " << args.verilog_out << '\n';
  }
  if (!args.liberty_out.empty()) {
    std::ofstream os(args.liberty_out);
    if (!os)
      return report_failure(
          Status::error(ErrorCode::kIo,
                        "cannot write '" + args.liberty_out + "'", {},
                        "gapflow"),
          err);
    library::write_liberty(lib, os);
    out << "wrote " << args.liberty_out << '\n';
  }
  if (const Status s = write_manifest(); !s.ok()) return report_failure(s, err);
  if (const Status s = obs.finish(out); !s.ok()) return report_failure(s, err);
  return 0;
}

}  // namespace gap::core::cli
