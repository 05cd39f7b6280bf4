/// serve_eco and serve_report: one in-process serve::Server, one session,
/// one caller in a closed loop (the next request is sent only after the
/// previous reply returns). One operation is one Server::handle_line.
///
/// The benchmark keeps a twin of the session: the same design, run
/// through the same flow, under the same accepted edits. The generator
/// validates candidate edits against the twin (IncrementalTimer::check),
/// so a rejected edit is a failure, not traffic. In the traced run the
/// twin repeats each request's work call by call, which splits the
/// request's time into layers.

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "designs/registry.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "qor/snapshot.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sta/incremental.hpp"
#include "sta/report.hpp"
#include "tech/technology.hpp"

namespace perfbench {

namespace {

namespace json = gap::common::json;
using gap::InstanceId;
using gap::sta::Edit;

enum Cls : std::size_t {
  kLoad,
  kEdit,
  kUndo,
  kTiming,
  kSlacks,
  kTopPaths,
  kQor,
  kLintScan,
  kLintDataflow,
  kClasses
};
const char* const kClassNames[kClasses] = {
    "load", "edit",      "undo",      "timing",       "slacks",
    "top_paths", "qor", "lint_scan", "lint_dataflow"};

/// The calls the twin makes for one request, each timed as one span.
enum Child : std::size_t {
  kParse,
  kApply,
  kQuery,
  kRender,
  kCompact,
  kCapture,
  kLintRun,
  kLintRender,
  kDataflowRefresh,
  kChildren
};
const char* const kChildSpans[kChildren] = {
    "serve::parse_request",      "sta::IncrementalTimer::apply_undoable",
    "sta::IncrementalTimer::query", "sta::render_json",
    "common::json::compact",     "qor::capture",
    "lint::run_lint",            "lint::write_json",
    "lint::DataflowEngine::refresh"};
const char* const kChildMetrics[kChildren] = {
    "serve.parse_us", "sta.timer_apply_us",     "sta.timer_query_us",
    "sta.render_us",  "common.json_compact_us", "qor.capture_us",
    "lint.run_us",    "lint.render_us",         "lint.dataflow_refresh_us"};

constexpr const char* kSession = "s";
constexpr std::size_t kMaxUndoDepth = 64;  // ServerOptions default
constexpr int kBuckets = 10;               // slacks/qor default buckets
constexpr int kTopK = 5;

struct Workload {
  const char* design;
  int threads;
  bool eco;
};

std::string load_line(const Workload& w) {
  return std::string("{\"id\":0,\"cmd\":\"load\",\"session\":\"") + kSession +
         "\",\"design\":\"" + w.design + "\",\"methodology\":\"typical\"}";
}

/// The benchmark's copy of the session.
struct Twin {
  std::unique_ptr<gap::core::Flow> flow;
  gap::core::FlowResult result;
  gap::core::Methodology m;
  std::unique_ptr<gap::sta::IncrementalTimer> timer;
  std::unique_ptr<gap::lint::DataflowEngine> dataflow;
  int threads = 1;

  [[nodiscard]] gap::netlist::Netlist& nl() { return *result.nl; }
};

/// The server runs the flow with Flow's default seed, so the twin does
/// too: the same netlist, instance for instance. Returns the flow's work.
Probe::Snapshot build_twin(Twin& t, const Workload& w, const Probe& probe) {
  t.m = *gap::core::methodology_by_name("typical");
  t.threads = w.threads;
  t.flow = std::make_unique<gap::core::Flow>(
      *gap::tech::technology_by_name("asic025"));
  const gap::logic::Aig aig = gap::designs::make_design(w.design, t.m.datapath);
  const Probe::Snapshot before = probe.read();
  t.result = t.flow->run(aig, t.m);
  const Probe::Snapshot work = Probe::delta(before, probe.read());
  if (!t.result.ok() || !t.result.nl) return work;
  t.timer = std::make_unique<gap::sta::IncrementalTimer>(
      *t.result.nl, gap::core::signoff_sta_options(t.m), w.threads);
  t.timer->flush();
  return work;
}

/// The load reply the server must send for the twin's flow result.
std::string expected_load_reply(Twin& t, const Workload& w) {
  return gap::serve::ok_reply(
      "0", std::string("{\"session\":\"") + kSession + "\",\"design\":\"" +
               w.design +
               "\",\"methodology\":\"typical\",\"tech\":\"asic025\","
               "\"corner\":null,\"freq_mhz\":" +
               json::number(t.result.freq_mhz) +
               ",\"area_um2\":" + json::number(t.result.area_um2) +
               ",\"instances\":" + std::to_string(t.nl().num_instances()) +
               ",\"registers\":" +
               std::to_string(t.result.pipeline_registers) + "}");
}

std::string ok_prefix(std::uint64_t id) {
  return "{\"serve\":\"gap-serve-v1\",\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"result\":";
}

std::string edit_line(std::uint64_t id, const Edit& e) {
  return "{\"id\":" + std::to_string(id) + ",\"cmd\":\"edit\",\"session\":\"" +
         kSession + "\",\"edit\":" + gap::serve::edit_to_json(e) + "}";
}

struct Op {
  Cls cls = kTiming;
  std::uint64_t id = 0;
  Edit edit;  ///< kEdit: the edit sent; kUndo: the edit undo applies
  std::string line;
};

/// Generates the operation stream from the seed and the twin's state.
/// serve_eco repeats: one edit (about 10% undo, 4% rewires, each undone
/// by the next edit, the rest set_drive / replace_cell) then a slacks
/// read, plus a timing read every
/// 16th step. serve_report repeats cycles of eleven reads and one
/// set_drive edit (double or restore a gate's drive) in an order shuffled
/// per cycle.
class Generator {
 public:
  Generator(std::uint64_t seed, bool eco, Twin& twin)
      : rng_(gap::Rng::stream(seed, eco ? 1 : 2)),
        eco_(eco),
        twin_(twin) {
    gap::netlist::Netlist& nl = twin_.nl();
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      if (!nl.is_sequential(InstanceId{i})) comb_.push_back(InstanceId{i});
  }

  Op next() {
    if (queue_.empty()) refill();
    Op op;
    op.cls = queue_.back();
    queue_.pop_back();
    op.id = next_id_++;
    const std::string head = "{\"id\":" + std::to_string(op.id) +
                             ",\"cmd\":\"";
    const std::string session =
        std::string("\"session\":\"") + kSession + "\"";
    switch (op.cls) {
      case kEdit:
        // A rewire is undone by the next edit, so the netlist's structure
        // never drifts from the loaded design; other undos are random.
        if (eco_ && !undo_.empty() &&
            (undo_rewire_ || rng_.uniform() < 0.06) &&
            twin_.timer->check(undo_.back()).ok()) {
          op.cls = kUndo;
          op.edit = undo_.back();
          op.line = head + "undo\"," + session + "}";
        } else {
          op.edit = pick_edit();
          op.line = edit_line(op.id, op.edit);
        }
        break;
      case kTiming: op.line = head + "timing\"," + session + "}"; break;
      case kSlacks: op.line = head + "slacks\"," + session + "}"; break;
      case kTopPaths:
        op.line = head + "top_paths\"," + session +
                  ",\"k\":" + std::to_string(kTopK) + "}";
        break;
      case kQor: op.line = head + "qor\"," + session + "}"; break;
      case kLintScan:
        op.line = head + "lint\"," + session + ",\"mode\":\"scan\"}";
        break;
      case kLintDataflow:
        op.line = head + "lint\"," + session + ",\"mode\":\"dataflow\"}";
        break;
      default: break;
    }
    return op;
  }

  /// The server accepted `op`; keep the undo stack it keeps.
  void committed(const Op& op, const Edit& inverse) {
    undo_rewire_ =
        op.cls == kEdit && op.edit.kind == Edit::Kind::kRewireInput;
    if (op.cls == kUndo) {
      undo_.pop_back();
      return;
    }
    undo_.push_back(inverse);
    if (undo_.size() > kMaxUndoDepth) undo_.erase(undo_.begin());
  }

 private:
  void refill() {
    if (eco_) {
      // Stored in reverse: next() pops from the back.
      if (step_ % 16 == 15) queue_.push_back(kTiming);
      queue_.push_back(kSlacks);
      queue_.push_back(kEdit);
      ++step_;
      return;
    }
    // Weighted so the median request is a timing read: its 25th
    // percentile, away from the edges of any other class's band.
    queue_ = {kTiming, kTiming, kTiming,   kTiming,   kSlacks,      kSlacks,
              kQor,    kTopPaths, kLintScan, kLintScan, kLintDataflow, kEdit};
    for (std::size_t i = queue_.size(); i > 1; --i)
      std::swap(queue_[i - 1], queue_[rng_.uniform_index(i)]);
  }

  /// A random edit the twin's timer accepts.
  Edit pick_edit() {
    const gap::netlist::Netlist& nl = twin_.nl();
    for (int tries = 0; tries < 256; ++tries) {
      const double r = rng_.uniform();
      const InstanceId inst = comb_[rng_.uniform_index(comb_.size())];
      Edit e;
      if (!eco_) {
        // Report traffic doubles a gate's drive or restores it, so the
        // design, and the size of its lint report, stays near the loaded
        // one for the whole run.
        e = Edit::set_drive(inst, r < 0.5 ? 0.0 : 2.0 * nl.cell_of(inst).drive);
      } else if (r >= 0.96) {
        const auto& in = nl.instance(inst);
        if (in.inputs.empty()) continue;
        const auto pin = static_cast<int>(rng_.uniform_index(in.inputs.size()));
        const InstanceId src(static_cast<std::uint32_t>(
            rng_.uniform_index(nl.num_instances())));
        e = Edit::rewire(inst, pin, nl.instance(src).output);
      } else if (r < 0.5) {
        e = Edit::set_drive(inst, 0.5 * static_cast<double>(
                                            rng_.uniform_index(17)));
      } else {
        const gap::library::Cell& cell = nl.cell_of(inst);
        const auto& alts = nl.lib().cells_of(cell.func, cell.family);
        const gap::CellId pick = alts[rng_.uniform_index(alts.size())];
        if (pick == nl.instance(inst).cell) continue;
        e = Edit::replace_cell_named(inst, nl.lib().cell(pick).name);
      }
      if (twin_.timer->check(e).ok()) return e;
    }
    return Edit::set_drive(comb_.front(), 1.0);
  }

  gap::Rng rng_;
  bool eco_;
  Twin& twin_;
  std::vector<InstanceId> comb_;
  std::vector<Cls> queue_;
  std::vector<Edit> undo_;  ///< mirrors the server's undo stack
  std::uint64_t next_id_ = 1;
  std::uint64_t step_ = 0;
  bool undo_rewire_ = false;  ///< the last committed edit was a rewire
};

/// What the twin expects the server to have replied.
struct Expectation {
  std::string exact;   ///< whole reply; empty when not rebuilt
  std::string suffix;  ///< reply tail; empty when not checked
};

/// Repeat `op` on the twin, one span per call into a module, adding each
/// call's time into child_us. Edits are always applied (the twin must
/// follow the session); reads run only when `reads` is set.
Expectation twin_step(Twin& t, const Op& op, std::uint64_t seq, bool reads,
                      SpanRecorder& sp, double child_us[kChildren],
                      Edit* inverse) {
  Expectation ex;
  const bool is_edit = op.cls == kEdit || op.cls == kUndo;
  if (!is_edit && !reads && op.cls != kLintDataflow) return ex;
  const Scoped root(sp, "twin", -1, op.id);
  const auto timed = [&](Child k, auto&& fn) {
    const std::int64_t idx = sp.begin(kChildSpans[k], root.index(), op.id);
    fn();
    sp.end(idx);
    child_us[k] += sp.duration(idx);
  };
  const std::string id = std::to_string(op.id);
  const gap::sta::StaOptions& opts = t.timer->options();
  std::string rendered;
  const auto compact = [&] {
    timed(kCompact, [&] {
      auto v = json::Value::parse_checked(rendered);
      rendered = v.ok() ? v->dump() : std::string();
    });
  };

  if (reads) {
    timed(kParse, [&] {
      auto req = gap::serve::parse_request(op.line, 1u << 20);
      if (req.ok() && op.cls == kEdit)
        (void)gap::serve::edit_from_json(*req->frame.find("edit"));
    });
  }
  switch (op.cls) {
    case kEdit:
    case kUndo: {
      timed(kApply, [&] {
        if (!t.timer->check(op.edit).ok()) return;
        auto inv = t.timer->apply_undoable(op.edit);
        if (inv.ok()) *inverse = inv.value();
      });
      if (t.dataflow && t.dataflow->valid()) {
        timed(kDataflowRefresh, [&] {
          if (op.edit.kind == Edit::Kind::kRewireInput)
            (void)t.dataflow->update_rewire(t.nl(), op.edit.inst, t.threads);
          else
            t.dataflow->resync_value(t.nl());
        });
      }
      ex.exact = gap::serve::ok_reply(
          id, "{\"seq\":" + std::to_string(seq) +
                  (op.cls == kUndo
                       ? ",\"edit\":" + gap::serve::edit_to_json(op.edit)
                       : ",\"undo\":" + gap::serve::edit_to_json(*inverse)) +
                  "}");
      break;
    }
    case kTiming: {
      gap::sta::TimingResult timing;
      timed(kQuery, [&] { timing = t.timer->timing(); });
      timed(kRender, [&] {
        rendered = gap::sta::critical_path_json(t.nl(), opts, timing);
      });
      compact();
      ex.exact = gap::serve::ok_reply(id, rendered);
      break;
    }
    case kSlacks: {
      double period = 0.0;
      std::vector<double> slacks;
      timed(kQuery, [&] {
        period = t.timer->timing().min_period_tau;
        slacks = t.timer->slacks(period);
      });
      timed(kRender, [&] {
        rendered = gap::sta::slack_histogram_json(
            gap::sta::slack_histogram_from_slacks(slacks, kBuckets));
      });
      compact();
      ex.exact = gap::serve::ok_reply(id, "{\"period_tau\":" +
                                              json::number(period) +
                                              ",\"histogram\":" + rendered +
                                              "}");
      break;
    }
    case kTopPaths:
      timed(kQuery, [&] { (void)t.timer->top_paths(kTopK); });
      break;
    case kQor: {
      gap::qor::SnapshotOptions so;
      so.sta = opts;
      so.histogram_buckets = kBuckets;
      so.continuous_sizing =
          t.m.sizing == gap::core::SizingLevel::kContinuous;
      gap::qor::QorSnapshot snap;
      timed(kCapture, [&] { snap = gap::qor::capture(*t.timer, so); });
      timed(kRender, [&] {
        rendered = gap::sta::slack_histogram_json(snap.slack_histogram);
      });
      compact();
      ex.suffix = ",\"slack_histogram\":" + rendered + "}}";
      break;
    }
    case kLintScan:
    case kLintDataflow: {
      const bool dataflow = op.cls == kLintDataflow;
      // The session's lattice is refreshed on every dataflow lint, so the
      // twin's follows it even when reads are not repeated.
      if (dataflow) {
        if (!t.dataflow)
          t.dataflow = std::make_unique<gap::lint::DataflowEngine>();
        timed(kDataflowRefresh,
              [&] { (void)t.dataflow->refresh(t.nl(), {}, t.threads); });
      }
      if (!reads) break;
      double period = 0.0;
      timed(kQuery, [&] { period = t.timer->timing().min_period_tau; });
      gap::lint::LintReport report;
      gap::lint::RuleRegistry registry;
      timed(kLintRun, [&] {
        registry = gap::lint::default_registry();
        gap::lint::LintConfig config;
        if (!dataflow) {
          for (std::size_t i = 0; i < registry.size(); ++i) {
            const gap::lint::RuleInfo& info = registry.rule(i).info();
            if (info.category == gap::lint::Category::kDomain ||
                info.category == gap::lint::Category::kDataflow)
              config.rule_levels.emplace_back(
                  info.id, gap::lint::SeverityOverride::kOff);
          }
        }
        gap::lint::LintContext ctx;
        ctx.nl = &t.nl();
        ctx.limits = gap::tech::default_electrical_limits();
        ctx.constraints.period_tau = period;
        ctx.constraints.skew_fraction = opts.clock.skew_fraction;
        if (dataflow && t.dataflow->valid()) ctx.dataflow = t.dataflow.get();
        report = gap::lint::run_lint(registry, ctx, config, t.threads);
      });
      timed(kLintRender, [&] {
        rendered = gap::lint::write_json(registry, report, kSession);
      });
      compact();
      ex.exact = gap::serve::ok_reply(id, rendered);
      break;
    }
    default: break;
  }
  return ex;
}

/// Per request class, over the traced part of the run.
struct ClassStats {
  std::vector<double> us;
  std::vector<double> bytes;
  Probe::Snapshot work;
  double child_us[kChildren] = {};
  double self_us = 0.0;
};

/// A second session that loaded the same design and replays the edits the
/// live session accepted must answer timing / slacks / top_paths
/// byte-identically to it. Replays `applied` into the replica and clears
/// it; returns the number of mismatches.
int checkpoint(gap::serve::Server& replica, gap::serve::Server& live,
               std::vector<Edit>& applied, std::uint64_t& next_id) {
  int bad = 0;
  for (const Edit& e : applied)
    if (replica.handle_line(edit_line(0, e)).rfind(ok_prefix(0), 0) != 0) ++bad;
  applied.clear();
  for (const char* cmd : {"timing", "slacks", "top_paths"}) {
    const std::uint64_t id = next_id++;
    const std::string line = "{\"id\":" + std::to_string(id) +
                             ",\"cmd\":\"" + cmd + "\",\"session\":\"" +
                             kSession + "\"}";
    const std::string a = live.handle_line(line);
    if (a.rfind(ok_prefix(id), 0) != 0 || a != replica.handle_line(line)) ++bad;
  }
  return bad;
}

/// Best round: the lowest per-round p50 and tail and the highest
/// per-round throughput. Rounds hold the same operation mix, and other
/// tenants' interference only ever adds time.
Latency serve_latency(const std::vector<std::vector<double>>& rounds) {
  Latency lat;
  for (const std::vector<double>& r : rounds) {
    double busy_us = 0.0;
    for (double d : r) busy_us += d;
    const double p50 = median(r);
    const Tail tail = tail_latency(r);
    const double rate = ratio(static_cast<double>(r.size()), busy_us * 1e-6);
    if (lat.samples == 0) {
      lat.p50_us = p50;
      lat.tail = tail;
    }
    lat.p50_us = std::min(lat.p50_us, p50);
    if (tail.value < lat.tail.value) lat.tail = tail;
    lat.ops_per_s = std::max(lat.ops_per_s, rate);
    lat.samples = r.size();
  }
  return lat;
}

}  // namespace

Outcome run_serve(const Args& args, bool eco) {
  const Workload w = eco ? Workload{"mac16", 2, true}
                         : Workload{"cpu32", 1, false};
  Outcome out;
  gap::serve::ServerOptions so;
  so.threads = w.threads;  // no journal: journal_dir stays empty

  SpanRecorder spans(args.trace);
  SpanRecorder untraced(false);  // for the untraced part of a traced run
  const Probe probe;
  ClassStats cls[kClasses];
  Probe::Snapshot sweeps_work;  // every handle_line, loads included

  // Set-up: Server construction plus `load`. The session set up last
  // before the run is the one the run uses.
  std::vector<double> setup_s;
  std::string load_reply;
  const auto set_up = [&] {
    const Probe::Snapshot before = probe.read();
    const double t0 = now_us();
    auto s = std::make_unique<gap::serve::Server>(so);
    load_reply = s->handle_line(load_line(w));
    const double dt = now_us() - t0;
    setup_s.push_back(dt * 1e-6);
    const Probe::Snapshot d = Probe::delta(before, probe.read());
    accumulate(cls[kLoad].work, d);
    accumulate(sweeps_work, d);
    cls[kLoad].us.push_back(dt);
    cls[kLoad].bytes.push_back(static_cast<double>(load_reply.size()));
    return s;
  };
  std::unique_ptr<gap::serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    server = set_up();
  }
  const std::string first_load_reply = load_reply;

  Twin twin;
  const Probe::Snapshot fw = build_twin(twin, w, probe);
  if (!twin.timer) {
    out.fail(std::string("twin flow for ") + w.design + " failed");
    out.attempted = 1;
    return out;
  }
  if (load_reply != expected_load_reply(twin, w))
    out.fail("load reply differs from the twin's flow: " + load_reply);

  Generator gen(args.seed, eco, twin);
  if (args.dump_stream != 0) {
    // The stream alone: edits are committed on the twin as a server that
    // accepts them would.
    double scratch[kChildren] = {};
    for (std::uint64_t i = 0; i < args.dump_stream; ++i) {
      const Op op = gen.next();
      std::cout << op.line << '\n';
      Edit inverse;
      if (op.cls == kEdit || op.cls == kUndo) {
        (void)twin_step(twin, op, 0, false, untraced, scratch, &inverse);
        gen.committed(op, inverse);
      }
    }
    return out;
  }

  // The replica for checkpoints: a second session of the same design.
  gap::serve::Server replica(so);
  if (replica.handle_line(load_line(w)) != load_reply)
    out.fail("a second load of " + std::string(w.design) + " differs");

  // Rounds of whole operation mixes: 128 eco blocks of 16 steps (33
  // requests each), or 20 report cycles of 12 requests. The best round
  // is reported, so rounds are as short as their content allows: an eco
  // round needs many edits and timing reads to average over the random
  // cones, report traffic keeps the design near the loaded one. A
  // checkpoint follows every round.
  const std::size_t round_ops = eco ? 128 * 33 : 20 * 12;
  std::vector<std::vector<double>> rounds(1);
  rounds.back().reserve(round_ops);
  std::vector<double> untraced_us, traced_us;
  std::vector<Edit> applied;  // edits committed since the last checkpoint
  std::uint64_t seq = 0;
  std::uint64_t check_id = 1u << 30;  // ids for checkpoint queries
  std::uint64_t traced_requests = 0;
  double traced_self_us = 0.0;
  double traced_child_us[kChildren] = {};

  const double budget_us = args.seconds * 1e6;
  double paused_us = 0.0;  // checkpoint time, excluded from the run
  const double start = now_us();
  const auto elapsed = [&] { return now_us() - start - paused_us; };
  const auto run_checkpoint = [&] {
    const double t0 = now_us();
    const int bad = checkpoint(replica, *server, applied, check_id);
    if (bad != 0)
      out.fail("checkpoint after request " + std::to_string(out.attempted) +
               ": " + std::to_string(bad) + " mismatches");
    paused_us += now_us() - t0;
  };
  bool tracing = false;
  double last_setup_us = 0.0;

  while (true) {
    if (rounds.back().size() == round_ops) {
      run_checkpoint();
      rounds.emplace_back();
      rounds.back().reserve(round_ops);
      if (elapsed() - last_setup_us >= kSetupEveryUs) {
        last_setup_us = elapsed();
        const double t0 = now_us();
        if (set_up() == nullptr || load_reply != first_load_reply)
          out.fail("a repeated load of " + std::string(w.design) + " differs");
        paused_us += now_us() - t0;
      }
    }
    if (args.max_ops != 0 ? out.attempted >= args.max_ops
                          : elapsed() >= budget_us && rounds.back().empty())
      break;
    // With --trace 1 the first third of the run is untraced, so the
    // difference of the two medians is the tracing overhead.
    if (args.trace && !tracing &&
        (args.max_ops != 0 || elapsed() >= budget_us / 3)) {
      tracing = true;
      twin.timer->flush();
    }

    const Op op = gen.next();
    ++out.attempted;
    const Probe::Snapshot before = tracing ? probe.read() : Probe::Snapshot{};
    const std::int64_t span =
        tracing ? spans.begin("serve::Server::handle_line", -1, op.id) : -1;
    const double t0 = now_us();
    const std::string reply = server->handle_line(op.line);
    const double dt = now_us() - t0;
    spans.end(span);
    const Probe::Snapshot work =
        tracing ? Probe::delta(before, probe.read()) : Probe::Snapshot{};
    rounds.back().push_back(dt);
    if (args.trace) (tracing ? traced_us : untraced_us).push_back(dt);

    if (reply.rfind(ok_prefix(op.id), 0) != 0) {
      out.fail("request " + op.line + " -> " + reply);
      continue;
    }
    const bool is_edit = op.cls == kEdit || op.cls == kUndo;
    if (is_edit) ++seq;
    double child_us[kChildren] = {};
    Edit inverse;
    const Expectation ex = twin_step(twin, op, seq, tracing,
                                     tracing ? spans : untraced, child_us,
                                     &inverse);
    if (is_edit) {
      gen.committed(op, inverse);
      applied.push_back(op.edit);
    }
    if (!ex.exact.empty() && reply != ex.exact)
      out.fail("reply differs from the twin's: " + reply + " vs " + ex.exact);
    if (!ex.suffix.empty() &&
        (reply.size() < ex.suffix.size() ||
         reply.compare(reply.size() - ex.suffix.size(), ex.suffix.size(),
                       ex.suffix) != 0))
      out.fail("reply tail differs from the twin's: " + reply);

    if (!tracing) continue;
    ClassStats& c = cls[op.cls];
    accumulate(c.work, work);
    accumulate(sweeps_work, work);
    c.us.push_back(dt);
    c.bytes.push_back(static_cast<double>(reply.size()));
    double children = 0.0;
    for (std::size_t k = 0; k < kChildren; ++k) {
      c.child_us[k] += child_us[k];
      traced_child_us[k] += child_us[k];
      children += child_us[k];
    }
    c.self_us += dt - children;
    traced_self_us += dt - children;
    ++traced_requests;
  }
  if (!rounds.back().empty()) run_checkpoint();

  if (rounds.size() > 1 && rounds.back().size() < round_ops) rounds.pop_back();
  add_end_to_end(out, serve_latency(rounds), setup_s);
  if (!args.trace) return out;

  // Per-layer metrics, from the traced part of the run.
  out.set("core.flows", 1.0);
  for (const gap::core::StageReport& st : twin.result.report.stages)
    out.set("core.stage." + st.name + "_ms", st.wall_ms);
  out.set("synth.gates_mapped", static_cast<double>(fw[Probe::kGatesMapped]));
  const double sa = fw[Probe::kSaAccepted] + fw[Probe::kSaRejected];
  out.set("place.sa_moves", sa);
  out.set("place.accept_ratio", ratio(fw[Probe::kSaAccepted], sa));
  const double tilos = fw[Probe::kTilosAccepted] + fw[Probe::kTilosRejected];
  out.set("sizing.tilos_moves", tilos);
  out.set("sizing.accept_ratio", ratio(fw[Probe::kTilosAccepted], tilos));
  out.set("sta.arrival_passes_per_flow",
          static_cast<double>(fw[Probe::kArrivalPasses]));

  double edits = 0.0;
  Probe::Snapshot all;
  for (std::size_t k = 0; k < kClasses; ++k) {
    const ClassStats& c = cls[k];
    const std::string name = kClassNames[k];
    const auto n = static_cast<double>(c.us.size());
    out.set("serve." + name + "_us", median(c.us));
    out.set("serve." + name + "_reply_bytes", median(c.bytes));
    out.set("serve." + name + "_count", n);
    out.set("sta.arrival_passes_per_" + name,
            ratio(c.work[Probe::kArrivalPasses], n));
    if (k != kLoad) accumulate(all, c.work);
    if (k == kEdit || k == kUndo) edits += n;
  }
  out.set("sta.nodes_repropagated_per_edit",
          ratio(all[Probe::kNodesRepropagated], edits));
  out.set("sta.waves_per_edit", ratio(all[Probe::kIncrementalWaves], edits));
  const double sweeps =
      sweeps_work[Probe::kPooledSweeps] + sweeps_work[Probe::kSerialSweeps];
  out.set("sta.sweeps", sweeps);
  out.set("sta.pooled_sweep_share",
          ratio(sweeps_work[Probe::kPooledSweeps], sweeps));
  const auto requests = static_cast<double>(traced_requests);
  for (std::size_t k = 0; k < kChildren; ++k)
    out.set(kChildMetrics[k], ratio(traced_child_us[k], requests));
  out.set("serve.self_us", ratio(traced_self_us, requests));
  const double lints = static_cast<double>(cls[kLintDataflow].us.size());
  const double syncs = all[Probe::kDataflowReuses] +
                       all[Probe::kDataflowFullSweeps] +
                       all[Probe::kDataflowConePasses];
  out.set("lint.dataflow_evals_per_lint",
          ratio(all[Probe::kDataflowEvals], lints));
  out.set("lint.dataflow_reuse_share",
          ratio(all[Probe::kDataflowReuses], syncs));
  out.set("lint.dataflow_syncs", syncs);
  const double traced_p50 = median(traced_us);
  out.set("trace.op_us_p50", traced_p50);
  out.set("trace.overhead_us",
          untraced_us.empty() ? 0.0 : traced_p50 - median(untraced_us));

  // The split, per class: mean handle_line time = the twin's calls + self.
  std::string split = ",\"split_mean_us\":{";
  std::cerr << "perfbench: mean us per request: class = children + self\n";
  bool first = true;
  for (std::size_t k = kEdit; k < kClasses; ++k) {
    const ClassStats& c = cls[k];
    const auto n = static_cast<double>(c.us.size());
    if (n == 0.0) continue;
    double total = 0.0;
    for (double v : c.us) total += v;
    split += std::string(first ? "" : ",") + "\"" + kClassNames[k] +
             "\":{\"handle_line\":" + json::number(total / n);
    first = false;
    std::cerr << "  " << kClassNames[k] << " (" << c.us.size()
              << ") = " << total / n << " =";
    for (std::size_t j = 0; j < kChildren; ++j) {
      if (c.child_us[j] == 0.0) continue;
      split += ",\"" + std::string(kChildMetrics[j]) +
               "\":" + json::number(c.child_us[j] / n);
      std::cerr << ' ' << kChildMetrics[j] << ' ' << c.child_us[j] / n
                << " +";
    }
    split += ",\"serve.self_us\":" + json::number(c.self_us / n) + "}";
    std::cerr << " serve.self_us " << c.self_us / n << '\n';
  }
  split += "}";
  std::cerr << "perfbench: sta.pooled_sweep_share base " << sweeps
            << " sweeps (loads included); lint.dataflow_reuse_share base "
            << syncs << " syncs; per-class ratios over serve.<class>_count\n";
  const std::string path =
      args.out_dir + "/trace-" + (eco ? "serve_eco" : "serve_report") + ".json";
  if (!spans.write(path, split))
    std::cerr << "perfbench: could not write " << path << '\n';
  return out;
}

}  // namespace perfbench
