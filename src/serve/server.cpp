#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/io_guard.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "designs/registry.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "obs/expose.hpp"
#include "qor/manifest.hpp"
#include "qor/snapshot.hpp"
#include "serve/journal.hpp"
#include "serve/serve_cli.hpp"
#include "sta/report.hpp"

namespace gap::serve {

namespace json = common::json;
using common::ErrorCode;
using common::Result;
using common::Status;

namespace {

/// Every ServerCounters field with the common::metrics() counter that
/// mirrors it. Its name without the "serve." prefix is the field's member
/// of the `stats` counters object, emitted in this order.
struct CounterName {
  std::uint64_t ServerCounters::* field;
  std::string_view metric;
};
constexpr std::string_view kCounterPrefix = "serve.";
constexpr CounterName kCounters[] = {
    {&ServerCounters::requests, "serve.requests"},
    {&ServerCounters::errors, "serve.errors"},
    {&ServerCounters::edits_applied, "serve.edits_applied"},
    {&ServerCounters::edits_rejected, "serve.edits_rejected"},
    {&ServerCounters::degraded, "serve.degraded"},
    {&ServerCounters::journal_overflow, "serve.journal_overflow"},
    {&ServerCounters::overloaded, "serve.overloaded"},
    {&ServerCounters::deadline_exceeded, "serve.deadline_exceeded"},
    {&ServerCounters::oversized_frames, "serve.oversized_frames"},
    {&ServerCounters::recovered_sessions, "serve.recovered_sessions"},
    {&ServerCounters::recovered_edits, "serve.recovered_edits"},
};
static_assert(sizeof(ServerCounters) ==
                  std::size(kCounters) * sizeof(std::uint64_t),
              "every ServerCounters field needs a kCounters row");

constexpr std::size_t counter_row(std::uint64_t ServerCounters::* field) {
  std::size_t i = 0;
  while (kCounters[i].field != field) ++i;
  return i;
}

[[nodiscard]] bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Run untrusted-path work with contract failures captured into a Status
/// instead of aborting the process.
template <typename Fn>
[[nodiscard]] Status run_guarded(Fn&& fn) {
  try {
    const ScopedContractCapture guard;
    fn();
    return {};
  } catch (const ContractViolation& v) {
    return Status::error(ErrorCode::kContract, v.what(), {}, "serve");
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what(), {}, "serve");
  }
}

/// Optional string parameter: absent means `def`; any other type is an
/// error naming the member, never a silent fall back to the default.
[[nodiscard]] Result<std::string> string_param(const json::Value& frame,
                                               const char* key,
                                               const char* def) {
  const json::Value* f = frame.find(key);
  if (f == nullptr) return std::string(def);
  if (!f->is_string())
    return Status::error(ErrorCode::kInvalidValue,
                         std::string("\"") + key + "\" must be a string", {},
                         "serve");
  return f->str;
}

/// Optional positive-integer parameter with range checking.
[[nodiscard]] Result<int> int_param(const json::Value& frame, const char* key,
                                    int def, int lo, int hi) {
  const json::Value* f = frame.find(key);
  if (f == nullptr) return def;
  if (!f->is_number() || f->num != std::floor(f->num) || f->num < lo ||
      f->num > hi)
    return Status::error(ErrorCode::kInvalidValue,
                         std::string("\"") + key + "\" must be an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]",
                         {}, "serve");
  return static_cast<int>(f->num);
}

[[nodiscard]] std::string names_list(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// `lint` mode=scan keeps the pre-dataflow reply surface: the GL-D/GL-X
/// families stay off so existing clients see identical reports.
[[nodiscard]] lint::LintConfig scan_mode_config(
    const lint::RuleRegistry& registry) {
  lint::LintConfig config;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const lint::RuleInfo& info = registry.rule(i).info();
    if (info.category == lint::Category::kDomain ||
        info.category == lint::Category::kDataflow) {
      config.rule_levels.emplace_back(info.id, lint::SeverityOverride::kOff);
    }
  }
  return config;
}

}  // namespace

/// One resident design. The Flow owns the cell libraries the netlist
/// references, so it must outlive both the netlist and the timer.
struct Server::Session {
  std::string name;
  std::string design;
  std::string methodology;
  std::string tech;
  std::string corner;  ///< empty = the methodology's default corner
  core::Methodology meth;

  std::unique_ptr<core::Flow> flow;
  std::shared_ptr<netlist::Netlist> nl;
  std::unique_ptr<sta::IncrementalTimer> timer;

  /// Dataflow lattice for `lint` mode=dataflow, built lazily on first
  /// use and kept in sync from each edit's effect: an input rewire
  /// re-evaluates only the edited instance's forward cone, every other
  /// edit is a pure version resync (clock *phases* are not editable over
  /// the wire — the set_clock edit moves the STA clock constraint, not a
  /// phase).
  std::unique_ptr<lint::DataflowEngine> dataflow;

  /// Resident lint findings for both modes (the structural scan and each
  /// rule's findings), built by the first resident `lint` and told of
  /// every later edit's effect, so a re-lint re-checks only the nets an
  /// edit touched and re-runs connectivity rules only after a rewire.
  std::unique_ptr<lint::LintCache> lint;

  Journal journal;  ///< !is_open() when journaling is disabled
  std::uint64_t seq = 0;
  std::vector<sta::Edit> undo;
  bool degraded = false;
  bool recovered = false;
  std::uint64_t edits_applied = 0;  ///< through this process (not replay)
  /// Diagnostics the session raised: refused edits, failed journal
  /// appends, engine faults and its one degradation.
  std::uint64_t diags = 0;

  /// The session-naming members of the journal header and load reply.
  void write_names(json::Writer& w) const {
    w.member("session", name).member("design", design);
    w.member("methodology", methodology).member("tech", tech).key("corner");
    corner.empty() ? w.null() : w.value(corner);
  }

  [[nodiscard]] std::string header_record() const {
    json::Writer w;
    write_names(w.begin_object().member("gapd_journal", 1));
    return w.end_object().take();
  }
};

template <typename Render>
Result<std::string> Server::ok(const Request& req, Render&& render) {
  json::Writer w;
  begin_ok_reply(w, req.id_json);
  render(w);
  w.end_object();
  if (!w.ok())
    return Status::error(ErrorCode::kInternal, "result holds a " + w.error());
  return w.take();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      lint_registry_(lint::default_registry()),
      lint_scan_config_(scan_mode_config(lint_registry_)),
      flight_(options_.flight_capacity) {}
Server::~Server() = default;

template <std::uint64_t ServerCounters::* Field>
void Server::bump() {
  constexpr std::size_t row = counter_row(Field);
  // Resolved on the first bump, so the registry lists a counter only
  // once it has moved.
  static common::Counter& mirror =
      common::metrics().counter(std::string(kCounters[row].metric));
  ++(counters_.*Field);
  mirror.add(1);
}

void Server::flight_event(obs::FlightEventKind kind, std::uint32_t code,
                          std::uint64_t value, std::string_view detail) {
  flight_.record(kind, cur_req_id_, code, value, detail,
                 common::tracer().now_us());
}

void Server::write_expose() const {
  if (options_.expose_out.empty()) return;
  // Best-effort: a failed snapshot write must never fail a request (the
  // journal, not the exposition file, is the durability story).
  (void)obs::write_file_atomic(options_.expose_out,
                               obs::expose_text(common::metrics()));
}

std::vector<std::string> Server::dump_flight(const std::string& session) {
  std::vector<std::string> written;
  if (options_.journal_dir.empty()) return written;
  // A named session is trusted (degrade() calls this before the session
  // is registered during recover()); the empty form walks the residents.
  std::vector<std::string> names;
  if (!session.empty()) {
    names.push_back(session);
  } else {
    for (const auto& [name, s] : sessions_) {
      (void)s;
      names.push_back(name);
    }
  }
  const std::string dump = obs::flight_json(flight_);
  for (const std::string& name : names) {
    const std::string path =
        options_.journal_dir + "/" + name + ".flight.json";
    if (obs::write_file_atomic(path, dump)) written.push_back(path);
  }
  return written;
}

std::string Server::journal_path(const std::string& session) const {
  return options_.journal_dir + "/" + session + ".gapj";
}

bool Server::deadline_expired(const Request& req) const {
  double budget = options_.default_deadline_us;
  // dispatch() has already rejected a "deadline_us" that is not a number.
  if (const json::Value* d = req.frame.find("deadline_us")) budget = d->num;
  if (budget <= 0.0) return false;
  return common::tracer().now_us() - cur_t0_us_ > budget;
}

void Server::degrade(Session& s) {
  if (s.degraded) return;
  s.degraded = true;
  ++s.diags;
  bump<&ServerCounters::degraded>();
  flight_event(obs::FlightEventKind::kDegraded, 0, s.seq, s.name);
  // Whatever cached state the incremental engine holds is suspect; make
  // the timer rebuild if it is ever consulted again.
  const Status st = run_guarded([&] { s.timer->invalidate_all(); });
  (void)st;  // a timer too broken to invalidate stays bypassed anyway
  // Leave evidence next to the journal: the flight ring as of the moment
  // things went wrong (docs/observability.md).
  (void)dump_flight(s.name);
}

Result<Server::Session*> Server::find_session(const Request& req) {
  const json::Value* name = req.frame.find("session");
  if (name == nullptr || !name->is_string())
    return Status::error(ErrorCode::kMissingValue,
                         "request needs a \"session\" string", {}, "serve");
  auto it = sessions_.find(name->str);
  if (it == sessions_.end())
    return Status::error(ErrorCode::kUnknownName,
                         "no session named '" + name->str + "'", {}, "serve");
  return it->second.get();
}

template <typename Incremental, typename Batch>
Status Server::query(Session& s, Incremental&& inc, Batch&& batch) {
  if (s.degraded) return run_guarded(batch);
  const Status st = run_guarded(inc);
  if (st.ok()) return st;
  const Status fallback = run_guarded(batch);
  degrade(s);
  return fallback.ok() ? fallback : st;
}

Result<sta::Edit> Server::apply_edit(Session& s, const sta::Edit& edit,
                                     bool undo,
                                     std::optional<std::uint64_t> checked_at) {
  // The record is committed (journaled, or read back from the journal),
  // so its sequence number is spent even if the engine then trips.
  ++s.seq;
  Result<sta::Edit> inverse = sta::Edit{};
  const Status st = run_guarded([&] {
    inverse = checked_at ? s.timer->apply_checked(edit, *checked_at)
                         : s.timer->apply_undoable(edit);
  });
  if (!st.ok()) return st;
  if (!inverse.ok()) return inverse;

  // Tell the session's resident lint state (if it has any; never during
  // recovery) what the edit touched: the lattice syncs now, and the lint
  // cache only marks what its next run re-checks. A failed lattice update
  // invalidates the engine and the next dataflow lint rebuilds it.
  const bool lattice = s.dataflow != nullptr && s.dataflow->valid();
  if (lattice || s.lint != nullptr) {
    const sta::EditEffect effect = sta::edit_effect(*s.nl, edit);
    if (lattice) {
      (void)run_guarded([&] {
        (void)s.dataflow->sync(*s.nl, effect, options_.threads);
      });
    }
    if (s.lint != nullptr) s.lint->note(effect);
  }

  if (undo) {
    if (!s.undo.empty()) s.undo.pop_back();
  } else {
    s.undo.push_back(inverse.value());
    if (s.undo.size() > options_.max_undo_depth)
      s.undo.erase(s.undo.begin());
  }
  return inverse;
}

// --- load / recover ------------------------------------------------------

namespace {

struct LoadInfo {
  double freq_mhz = 0.0;
  double area_um2 = 0.0;
  int registers = 0;
};

/// Build a session from validated names: resolve methodology/tech/corner,
/// run the flow, stand up the resident timer. Pure function of its
/// arguments plus the deterministic flow, so a recover() rebuild lands on
/// the same state the original load produced.
[[nodiscard]] Result<std::unique_ptr<Server::Session>> build_session(
    const std::string& name, const std::string& design,
    const std::string& methodology, const std::string& tech,
    const std::string& corner, int threads, LoadInfo* info) {
  auto s = std::make_unique<Server::Session>();
  s->name = name;
  s->design = design;
  s->methodology = methodology;
  s->tech = tech;
  s->corner = corner;

  auto m = core::methodology_by_name(methodology);
  if (!m)
    return Status::error(ErrorCode::kUnknownName,
                         "unknown methodology '" + methodology +
                             "' (one of: " +
                             names_list(core::methodology_names()) + ")",
                         {}, "serve");
  auto t = tech::technology_by_name(tech);
  if (!t)
    return Status::error(ErrorCode::kUnknownName,
                         "unknown technology '" + tech + "' (one of: " +
                             names_list(tech::technology_names()) + ")",
                         {}, "serve");
  if (!corner.empty()) {
    auto c = tech::corner_by_name(corner);
    if (!c)
      return Status::error(ErrorCode::kUnknownName,
                           "unknown corner '" + corner + "'", {}, "serve");
    m->corner = *c;
  }
  const auto known_designs = designs::design_names();
  if (std::find(known_designs.begin(), known_designs.end(), design) ==
      known_designs.end())
    return Status::error(ErrorCode::kUnknownName,
                         "unknown design '" + design + "' (one of: " +
                             names_list(known_designs) + ")",
                         {}, "serve");
  s->meth = *m;

  core::FlowResult result;
  const Status st = run_guarded([&] {
    const logic::Aig aig = designs::make_design(design, m->datapath);
    s->flow = std::make_unique<core::Flow>(*t);
    result = s->flow->run(aig, *m);
  });
  if (!st.ok()) return st;
  if (!result.ok() || !result.nl) {
    std::string why = "flow failed";
    if (const core::StageReport* failed = result.report.failed_stage()) {
      why = "flow stage '" + failed->name + "' failed";
      if (!failed->diagnostics.empty())
        why += ": " + failed->diagnostics.front().message;
    }
    return Status::error(ErrorCode::kInternal, why, {}, "serve");
  }
  s->nl = result.nl;
  const Status timer_st = run_guarded([&] {
    s->timer = std::make_unique<sta::IncrementalTimer>(
        *s->nl, core::signoff_sta_options(*m), threads);
    s->timer->flush();
  });
  if (!timer_st.ok()) return timer_st;
  if (info != nullptr) {
    info->freq_mhz = result.freq_mhz;
    info->area_um2 = result.area_um2;
    info->registers = result.pipeline_registers;
  }
  return s;
}

}  // namespace

Result<std::string> Server::cmd_load(const Request& req) {
  const json::Value* name = req.frame.find("session");
  if (name == nullptr || !name->is_string() ||
      !valid_session_name(name->str))
    return Status::error(
        ErrorCode::kInvalidValue,
        "load needs a \"session\" name matching [A-Za-z0-9_-]{1,64}");
  if (sessions_.count(name->str) != 0)
    return Status::error(ErrorCode::kDuplicate,
                         "session '" + name->str + "' already exists");
  if (sessions_.size() >= options_.max_sessions) {
    bump<&ServerCounters::overloaded>();
    flight_event(obs::FlightEventKind::kOverloaded, 0, sessions_.size(),
                 "load");
    return Status::error(ErrorCode::kOverloaded,
                         "session limit (" +
                             std::to_string(options_.max_sessions) +
                             ") reached");
  }
  const json::Value* design = req.frame.find("design");
  if (design == nullptr || !design->is_string())
    return Status::error(ErrorCode::kMissingValue,
                         "load needs a \"design\" string");
  const auto methodology = string_param(req.frame, "methodology", "typical");
  if (!methodology.ok()) return methodology.status();
  const auto tech = string_param(req.frame, "tech", "asic025");
  if (!tech.ok()) return tech.status();
  const auto corner = string_param(req.frame, "corner", "");
  if (!corner.ok()) return corner.status();

  LoadInfo info;
  auto built = build_session(name->str, design->str, *methodology, *tech,
                             *corner, options_.threads, &info);
  if (!built.ok()) return built.status();
  if (deadline_expired(req)) {
    // The work is done but the client's budget expired: discard the
    // session so a retry sees a clean slate, and say what happened.
    bump<&ServerCounters::deadline_exceeded>();
    flight_event(obs::FlightEventKind::kDeadline, 0, 0, "load");
    return Status::error(ErrorCode::kDeadline,
                         "load exceeded the request deadline");
  }
  std::unique_ptr<Session> s = std::move(built).value();
  if (!options_.journal_dir.empty()) {
    auto journal = Journal::open(journal_path(s->name));
    Status append_st;
    if (journal.ok()) {
      s->journal = std::move(journal).value();
      append_st = s->journal.append(s->header_record());
    } else {
      append_st = journal.status();
    }
    if (!append_st.ok()) return append_st;
  }

  const Session& loaded = *s;
  sessions_[loaded.name] = std::move(s);
  return ok(req, [&](json::Writer& w) {
    loaded.write_names(w.begin_object());
    w.member("freq_mhz", info.freq_mhz).member("area_um2", info.area_um2);
    w.member("instances", loaded.nl->num_instances());
    w.member("registers", info.registers).end_object();
  });
}

Status Server::recover() {
  if (options_.journal_dir.empty()) return {};
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> paths;
  for (fs::directory_iterator it(options_.journal_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".gapj") paths.push_back(it->path().string());
  }
  if (ec)
    return Status::error(ErrorCode::kIo,
                         "cannot scan journal directory '" +
                             options_.journal_dir + "': " + ec.message(),
                         {}, "serve");
  std::sort(paths.begin(), paths.end());

  for (const std::string& path : paths) {
    if (sessions_.size() >= options_.max_sessions) break;
    const std::optional<std::string> text = common::read_file(path);
    if (!text) continue;
    const Replay replay = replay_journal(*text);
    if (replay.records.empty()) continue;  // torn header: never acknowledged

    const json::Value& header = replay.records.front();
    if (header.member_number("gapd_journal", 0) != 1.0) continue;
    const std::string name = header.member_string("session", "");
    if (!valid_session_name(name) || sessions_.count(name) != 0) continue;

    auto built = build_session(
        name, header.member_string("design", ""),
        header.member_string("methodology", "typical"),
        header.member_string("tech", "asic025"),
        header.member_string("corner", ""), options_.threads, nullptr);
    if (!built.ok()) continue;  // names no longer resolve; leave the file
    std::unique_ptr<Session> s = std::move(built).value();
    s->recovered = true;

    // Re-apply the acknowledged edits in journal order, through the same
    // apply path a live edit takes. Any divergence (bad record shape,
    // rejected edit, seq gap) means the journal no longer matches the
    // engine: stop at the consistent prefix and serve the session
    // degraded rather than guess.
    std::size_t i = 1;
    for (; i < replay.records.size(); ++i) {
      const json::Value& rec = replay.records[i];
      const json::Value* edit_json = rec.find("edit");
      if (edit_json == nullptr ||
          rec.member_number("seq", -1.0) != static_cast<double>(s->seq + 1))
        break;
      auto edit = edit_from_json(*edit_json);
      const json::Value* undo_flag = rec.find("undo");
      if (!edit.ok() ||
          !apply_edit(*s, *edit, undo_flag != nullptr && undo_flag->boolean)
               .ok())
        break;
      bump<&ServerCounters::recovered_edits>();
    }
    const bool diverged = i < replay.records.size();
    if (diverged || replay.halt == ReplayHalt::kCorrupt) degrade(*s);

    auto journal = Journal::open(path);
    if (journal.ok()) s->journal = std::move(journal).value();
    bump<&ServerCounters::recovered_sessions>();
    flight_event(obs::FlightEventKind::kRecovered, 0, s->seq, name);
    sessions_[name] = std::move(s);
  }
  return {};
}

// --- edits ---------------------------------------------------------------

Result<std::string> Server::cmd_edit(const Request& req, Session& s) {
  const bool undo = req.cmd == "undo";
  // An edit the engine refuses is counted, recorded in the flight ring
  // and the session's diagnostic count, and answered with its own code.
  const auto refuse = [&](const Status& why) {
    bump<&ServerCounters::edits_rejected>();
    flight_event(obs::FlightEventKind::kEditRejected,
                 static_cast<std::uint32_t>(why.code()), s.seq, s.name);
    ++s.diags;
    return why;
  };

  sta::Edit edit;
  if (undo) {
    if (s.undo.empty())
      return Status::error(ErrorCode::kInvalidValue, "nothing to undo");
    edit = s.undo.back();
  } else {
    const json::Value* edit_json = req.frame.find("edit");
    if (edit_json == nullptr)
      return Status::error(ErrorCode::kMissingValue,
                           "edit needs an \"edit\" object");
    auto parsed = edit_from_json(*edit_json);
    if (!parsed.ok()) return refuse(parsed.status());
    edit = std::move(parsed).value();
  }

  // 1. Validate against the current netlist (no mutation). Step 4
  // applies the checked edit without validating it again.
  Result<std::uint64_t> checked = std::uint64_t{0};
  const Status guard_st =
      run_guarded([&] { checked = s.timer->check(edit); });
  if (!guard_st.ok()) {
    degrade(s);
    return guard_st;
  }
  if (!checked.ok()) return refuse(checked.status());

  // 2. Watchdog checks, before any side effect.
  if (deadline_expired(req)) {
    bump<&ServerCounters::deadline_exceeded>();
    flight_event(obs::FlightEventKind::kDeadline, 0, s.seq, "edit");
    return Status::error(ErrorCode::kDeadline,
                         "deadline expired before the edit was committed");
  }
  if (s.journal.is_open() && s.seq >= options_.max_journal_edits) {
    bump<&ServerCounters::overloaded>();
    bump<&ServerCounters::journal_overflow>();
    flight_event(obs::FlightEventKind::kOverloaded, 0, s.seq, s.name);
    return Status::error(ErrorCode::kOverloaded,
                         "session journal is full (" +
                             std::to_string(options_.max_journal_edits) +
                             " edits)");
  }

  // 3. Commit to the journal first (write-ahead): a crash after this
  // point replays the edit; a failure here leaves state untouched.
  if (s.journal.is_open()) {
    // Undo records are flagged so replay maintains the same undo stack a
    // live server would have (pop instead of push).
    json::Writer rec;
    rec.begin_object().member("seq", s.seq + 1).key("edit");
    edit_to_json(rec, edit);
    if (undo) rec.member("undo", true);
    const Status jst = s.journal.append(rec.end_object().str());
    if (!jst.ok()) {
      ++s.diags;
      return jst;
    }
    flight_event(obs::FlightEventKind::kJournalFsync, 0,
                 s.journal.bytes_appended(), s.name);
  }

  // 4. Apply. check() passed, so a failure here is an engine fault:
  // degrade the session (queries fall back to from-scratch analysis).
  const Result<sta::Edit> inverse = apply_edit(s, edit, undo, *checked);
  if (!inverse.ok()) {
    degrade(s);
    ++s.diags;
    return inverse.status();
  }
  bump<&ServerCounters::edits_applied>();
  ++s.edits_applied;
  return ok(req, [&](json::Writer& w) {
    w.begin_object().member("seq", s.seq).key(undo ? "edit" : "undo");
    edit_to_json(w, undo ? edit : inverse.value());
    w.end_object();
  });
}

// --- queries -------------------------------------------------------------

Result<std::string> Server::cmd_timing(const Request& req, Session& s) {
  sta::TimingResult timing;
  const Status st =
      query(s, [&] { timing = s.timer->timing(); },
            [&] { timing = sta::analyze(*s.nl, s.timer->options()); });
  if (!st.ok()) return st;
  return ok(req, [&](json::Writer& w) {
    sta::critical_path_json(w, *s.nl, timing);
  });
}

Result<std::string> Server::cmd_slacks(const Request& req, Session& s) {
  auto buckets = int_param(req.frame, "buckets", 10, 1, 1000);
  if (!buckets.ok()) return buckets.status();
  double period = 0.0;
  if (const json::Value* p = req.frame.find("period_tau")) {
    // 1e999 parses to inf; reject it before it buys a slack pass whose
    // reply could only be an `internal` error.
    if (!p->is_number() || !std::isfinite(p->num) || !(p->num > 0.0))
      return Status::error(ErrorCode::kInvalidValue,
                           "\"period_tau\" must be a positive finite number");
    period = p->num;
  }

  const sta::StaOptions& opts = s.timer->options();
  std::vector<double> slacks;
  const Status st = query(
      s,
      [&] {
        if (period <= 0.0) period = s.timer->timing().min_period_tau;
        slacks = s.timer->slacks(period);
      },
      [&] {
        if (period <= 0.0)
          period = sta::analyze(*s.nl, opts).min_period_tau;
        slacks = sta::net_slacks(*s.nl, opts, period);
      });
  if (!st.ok()) return st;
  const sta::SlackHistogramData hist =
      sta::slack_histogram_from_slacks(slacks, buckets.value());
  return ok(req, [&](json::Writer& w) {
    w.begin_object().member("period_tau", period).key("histogram");
    sta::slack_histogram_json(w, hist);
    w.end_object();
  });
}

Result<std::string> Server::cmd_top_paths(const Request& req, Session& s) {
  auto k = int_param(req.frame, "k", 5, 1, 1000);
  if (!k.ok()) return k.status();
  std::vector<sta::CriticalPath> paths;
  const Status st = query(
      s, [&] { paths = s.timer->top_paths(k.value()); },
      [&] {
        paths = sta::top_critical_paths(*s.nl, s.timer->options(), k.value());
      });
  if (!st.ok()) return st;

  return ok(req, [&](json::Writer& w) {
    w.begin_object().key("paths").begin_array();
    for (const sta::CriticalPath& p : paths) {
      w.begin_object().member("path_tau", p.path_tau);
      w.member("endpoint_net", p.endpoint_net.value()).key("nodes");
      w.begin_array();
      for (const sta::PathNode& n : p.nodes) {
        w.begin_object().member("inst", n.inst.value());
        w.member("name", s.nl->instance(n.inst).name);
        w.member("arrival_tau", n.arrival_tau).end_object();
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  });
}

Result<std::string> Server::cmd_qor(const Request& req, Session& s) {
  auto buckets = int_param(req.frame, "buckets", 10, 1, 1000);
  if (!buckets.ok()) return buckets.status();
  qor::SnapshotOptions opts;
  opts.sta = s.timer->options();
  opts.histogram_buckets = buckets.value();
  opts.continuous_sizing =
      core::continuous_sizing(s.meth, s.flow->library_for(s.meth.library));

  qor::QorSnapshot snap;
  const Status st =
      query(s, [&] { snap = qor::capture(*s.timer, opts); },
            [&] { snap = qor::capture(*s.nl, opts); });
  if (!st.ok()) return st;
  return ok(req, [&](json::Writer& w) {
    qor::write_scalars(w.begin_object(), snap);
    w.key("slack_histogram");
    sta::slack_histogram_json(w, snap.slack_histogram);
    w.end_object();
  });
}

Result<std::string> Server::cmd_lint(const Request& req, Session& s) {
  const auto param = string_param(req.frame, "mode", "scan");
  if (!param.ok()) return param.status();
  const std::string& mode = *param;
  if (mode != "scan" && mode != "dataflow")
    return Status::error(ErrorCode::kInvalidValue,
                         "\"mode\" must be \"scan\" or \"dataflow\"");

  // mode=dataflow: make sure the cached per-session lattice is current.
  // A no-op refresh (counted on lint.dataflow.reuses) is the common case
  // — value edits and rewires were already folded in at edit time. On
  // analysis failure (combinational cycle) the engine stays invalid and
  // the GL-D/GL-X rules are silent, like the batch CLI.
  if (mode == "dataflow") {
    if (s.dataflow == nullptr)
      s.dataflow = std::make_unique<lint::DataflowEngine>();
    const Status refresh_st = run_guarded(
        [&] { (void)s.dataflow->refresh(*s.nl, {}, options_.threads); });
    if (!refresh_st.ok()) return refresh_st;
  }

  const lint::LintConfig all_rules;
  const lint::LintConfig& config =
      mode == "scan" ? lint_scan_config_ : all_rules;
  const auto context = [&](double period_tau) {
    lint::LintContext ctx;
    ctx.nl = s.nl.get();
    ctx.limits = tech::default_electrical_limits();
    ctx.constraints.period_tau = period_tau;
    ctx.constraints.skew_fraction = s.timer->options().clock.skew_fraction;
    if (mode == "dataflow" && s.dataflow != nullptr && s.dataflow->valid()) {
      ctx.dataflow = s.dataflow.get();
    }
    return ctx;
  };
  // The resident path asks the session's lint cache, which re-checks only
  // what the edits since its last run touched; the degraded (batch)
  // fallback trusts no cached state and lints afresh.
  lint::LintReport report;
  const Status st = query(
      s,
      [&] {
        if (s.lint == nullptr) s.lint = std::make_unique<lint::LintCache>();
        report = s.lint->run(lint_registry_,
                             context(s.timer->timing().min_period_tau),
                             config, options_.threads);
      },
      [&] {
        report = lint::run_lint(
            lint_registry_,
            context(sta::analyze(*s.nl, s.timer->options()).min_period_tau),
            config, options_.threads);
      });
  if (!st.ok()) return st;
  return ok(req, [&](json::Writer& w) {
    lint::write_json(w, lint_registry_, report, s.name);
  });
}

// --- stats / shutdown ----------------------------------------------------

Result<std::string> Server::cmd_stats(const Request& req) {
  const auto format = string_param(req.frame, "format", "json");
  if (!format.ok()) return format.status();
  if (*format != "json" && *format != "text")
    return Status::error(ErrorCode::kInvalidValue,
                         "\"format\" must be \"json\" or \"text\"");
  if (*format == "text") {
    // The Prometheus exposition (docs/observability.md) embedded as one
    // JSON string, so the reply stays a single gap-serve-v1 line. Note
    // the wall section makes this the one non-deterministic reply.
    return ok(req, [&](json::Writer& w) {
      w.begin_object().member("format", "text");
      w.member("exposition", obs::expose_text(common::metrics()));
      w.end_object();
    });
  }

  return ok(req, [&](json::Writer& w) {
    w.begin_object().key("sessions").begin_array();
    for (const auto& [name, s] : sessions_) {
      w.begin_object().member("name", name).member("design", s->design);
      w.member("seq", s->seq).member("degraded", s->degraded);
      w.member("recovered", s->recovered).member("undo_depth", s->undo.size());
      w.member("diags", s->diags);
      w.member("journal", s->journal.is_open());
      w.member("instances", s->nl->num_instances());
      w.member("nets", s->nl->num_nets());
      w.member("journal_bytes", s->journal.bytes_appended());
      w.member("edits_applied", s->edits_applied).end_object();
    }
    w.end_array().key("counters").begin_object();
    for (const CounterName& c : kCounters)
      w.member(c.metric.substr(kCounterPrefix.size()), counters_.*c.field);
    w.end_object().end_object();
  });
}

Result<std::string> Server::cmd_dump(const Request& req) {
  if (options_.journal_dir.empty())
    return Status::error(ErrorCode::kInvalidValue,
                         "dump needs a journal directory (gapd --journal-dir)");
  // No "session" dumps every resident session.
  std::string session;
  if (req.frame.find("session") != nullptr) {
    const Result<Session*> s = find_session(req);
    if (!s.ok()) return s.status();
    session = (*s)->name;
  }
  // The dump request itself is the newest event in the ring, so the file
  // records why it exists.
  flight_event(obs::FlightEventKind::kDump, 0, flight_.total());
  const std::vector<std::string> written = dump_flight(session);
  return ok(req, [&](json::Writer& w) {
    w.begin_object().key("dumped").begin_array();
    for (const std::string& path : written) w.value(path);
    w.end_array().member("events", std::min<std::uint64_t>(
                                       flight_.total(), flight_.capacity()));
    w.member("dropped", flight_.dropped()).end_object();
  });
}

// --- dispatch loop -------------------------------------------------------

Result<std::string> Server::dispatch(const Request& req) {
  // Any request may carry a budget; one that is not a number is a client
  // error, never a silent fall back to the default.
  if (const json::Value* d = req.frame.find("deadline_us");
      d != nullptr && !d->is_number())
    return Status::error(ErrorCode::kInvalidValue,
                         "\"deadline_us\" must be a number");
  if (req.cmd == "load") return cmd_load(req);
  // dump writes files as it goes, so (like load) it handles its own
  // budget story rather than joining the discard-the-reply path below.
  if (req.cmd == "dump") return cmd_dump(req);
  if (req.cmd == "shutdown") {
    shutdown_ = true;
    return ok(req, [&](json::Writer& w) {
      w.begin_object().member("shutdown", true);
      w.member("sessions", sessions_.size()).end_object();
    });
  }

  // Every other command but stats acts on the session its frame names,
  // resolved here once.
  static constexpr std::pair<std::string_view, SessionCommand> kOnSession[] = {
      {"edit", &Server::cmd_edit},           {"undo", &Server::cmd_edit},
      {"timing", &Server::cmd_timing},       {"slacks", &Server::cmd_slacks},
      {"top_paths", &Server::cmd_top_paths}, {"qor", &Server::cmd_qor},
      {"lint", &Server::cmd_lint},
  };
  const auto* on = std::find_if(
      std::begin(kOnSession), std::end(kOnSession),
      [&](const auto& command) { return command.first == req.cmd; });
  const bool stats = req.cmd == "stats";
  if (on == std::end(kOnSession) && !stats)
    return Status::error(ErrorCode::kUnknownName,
                         "unknown command '" + req.cmd + "'");
  Result<std::string> reply = std::string();
  if (stats)
    reply = cmd_stats(req);
  else if (auto s = find_session(req); !s.ok())
    reply = s.status();
  else
    reply = (this->*on->second)(req, **s);
  // An edit checks its budget before any side effect (cmd_edit). The
  // other commands have no side effects, so an expired budget can simply
  // discard the computed reply, an error reply included: the client gets
  // (and the counters see) one `deadline` error.
  if (req.cmd == "edit" || req.cmd == "undo" || !deadline_expired(req))
    return reply;
  bump<&ServerCounters::deadline_exceeded>();
  flight_event(obs::FlightEventKind::kDeadline, 0, 0, req.cmd);
  return Status::error(ErrorCode::kDeadline, "request exceeded its deadline");
}

std::string Server::handle_line(const std::string& line) {
  const double t0_us = common::tracer().now_us();
  const std::uint64_t req_id = ++next_req_id_;
  cur_req_id_ = req_id;
  cur_t0_us_ = t0_us;
  // The span name carries the monotonic request id, so a chrome trace
  // (gapd --trace-out) correlates with flight events and the journal.
  const common::TraceSpan span("serve::request#", std::to_string(req_id));

  // Deterministic request-shape histograms (docs/observability.md): all
  // pure functions of the request stream, never of the clock.
  static common::Histogram& h_resident =
      common::metrics().histogram("serve.req.sessions_resident");
  static common::Histogram& h_frame =
      common::metrics().histogram("serve.req.frame_bytes");
  static common::Histogram& h_edits =
      common::metrics().histogram("serve.req.edits");
  static common::Histogram& h_waves =
      common::metrics().histogram("serve.req.wavefronts");
  static common::Histogram& h_wall =
      common::metrics().histogram("wall.serve.req.latency_us");
  static common::Counter& c_waves =
      common::metrics().counter("sta.wave.levels_touched");
  h_resident.record(static_cast<double>(sessions_.size()));
  h_frame.record(static_cast<double>(line.size()));
  flight_event(obs::FlightEventKind::kRequestBegin, 0, line.size());
  const std::uint64_t edits0 = counters_.edits_applied;
  const std::uint64_t waves0 = c_waves.value();

  bump<&ServerCounters::requests>();
  Result<std::string> reply = std::string();
  auto req = parse_request(line, options_.max_frame_bytes);
  if (!req.ok()) {
    if (options_.max_frame_bytes != 0 &&
        line.size() > options_.max_frame_bytes)
      bump<&ServerCounters::oversized_frames>();
    reply = req.status();
  } else {
    // The dispatch itself runs under one more guard: whatever slips
    // through the per-command handling still becomes a reply, never an
    // abort.
    const Status st = run_guarded([&] { reply = dispatch(*req); });
    if (!st.ok()) reply = st;
  }
  // The one place a rejection becomes its error reply, and the one place
  // serve.errors moves: exactly once per error reply.
  if (!reply.ok()) {
    bump<&ServerCounters::errors>();
    reply = error_reply(req.ok() ? req->id_json : "null", reply.status());
  }

  h_edits.record(static_cast<double>(counters_.edits_applied - edits0));
  h_waves.record(static_cast<double>(c_waves.value() - waves0));
  flight_event(obs::FlightEventKind::kRequestEnd, 0, reply->size());
  h_wall.record(common::tracer().now_us() - t0_us);
  if (options_.expose_every != 0 && req_id % options_.expose_every == 0)
    write_expose();
  cur_req_id_ = 0;
  return std::move(reply).value();
}

namespace {

/// getline with a memory bound: keeps at most `cap + 1` bytes (enough for
/// parse_request's size check to fire) and discards the rest of an
/// oversized line, so a hostile multi-gigabyte frame costs bounded RSS.
[[nodiscard]] bool read_frame_line(std::istream& in, std::string& line,
                                   std::size_t cap) {
  line.clear();
  bool any = false;
  for (int c = in.get(); c != std::char_traits<char>::eof(); c = in.get()) {
    any = true;
    if (c == '\n') return true;
    if (cap == 0 || line.size() <= cap) line.push_back(static_cast<char>(c));
  }
  return any;
}

}  // namespace

int Server::serve(std::istream& in, std::ostream& out) {
  std::string line;
  int rc = 0;
  while (!shutdown_ &&
         read_frame_line(in, line, options_.max_frame_bytes)) {
    out << handle_line(line) << '\n' << std::flush;
    if (!out) {
      rc = common::cli::kExitIo;  // reader closed the pipe
      break;
    }
  }
  // One final snapshot on the way out, so a run shorter than
  // --expose-interval still leaves an exposition file behind.
  write_expose();
  return rc;
}

}  // namespace gap::serve
