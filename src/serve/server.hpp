#pragma once
/// \file server.hpp
/// The gapd resident timing service. A Server keeps implemented designs
/// and one sta::IncrementalTimer per session in memory and answers
/// gap-serve-v1 frames (protocol.hpp) one line at a time. The robustness
/// envelope, in one place:
///
///  - **Never aborts.** Every request is validated into a coded error
///    reply; contract violations on untrusted paths are captured
///    (ScopedContractCapture) and surfaced as "contract" replies.
///  - **Crash safety.** With a journal directory configured, every edit
///    is validated, then appended + fsync'd to the session's write-ahead
///    journal (journal.hpp), and only then applied. recover() replays
///    journals at startup, so a SIGKILLed server comes back answering
///    byte-identically to one that never died.
///  - **Watchdogs and limits.** Per-request deadlines (trace clock),
///    bounded session count, bounded per-session journal growth and
///    diagnostic retention — all overflow as coded "overloaded" /
///    "deadline" replies plus counters, never as unbounded growth.
///  - **Graceful degradation.** If replay finds interior corruption or
///    the incremental engine trips a contract, the session flips to
///    degraded mode: queries fall back to from-scratch sta::analyze on
///    the current netlist (byte-identical by the timer's contract) and
///    the server keeps serving.
///
/// Queries carry no wall times and no thread-dependent state, so replies
/// are byte-identical across runs, across --threads values, and across
/// a kill + recover (tests/serve_test.cpp enforces all three).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "lint/lint.hpp"
#include "obs/flight.hpp"
#include "serve/protocol.hpp"
#include "sta/sta.hpp"

namespace gap::serve {

struct ServerOptions {
  /// Directory for per-session write-ahead journals ("<session>.gapj").
  /// Empty disables journaling (and recover() is a no-op).
  std::string journal_dir;
  /// Worker threads for timing/lint engines (0 = all cores). Replies are
  /// byte-identical at any setting (the determinism contract).
  int threads = 1;
  std::size_t max_sessions = 8;
  std::size_t max_frame_bytes = 1u << 20;
  /// Edit records per session journal before edits bounce "overloaded".
  std::uint64_t max_journal_edits = 100000;
  /// Per-session DiagnosticEngine retention cap (older entries dropped).
  std::size_t max_session_diags = 256;
  /// Undo history depth per session.
  std::size_t max_undo_depth = 64;
  /// Default per-request budget in microseconds (0 = no deadline).
  double default_deadline_us = 0.0;
  /// Prometheus exposition snapshot target (gapd --expose-out). Empty
  /// disables; otherwise the file is rewritten atomically when serve()
  /// exits, and additionally every `expose_every` requests when that is
  /// nonzero (gapd --expose-interval). A request count — not a timer —
  /// so snapshot contents stay deterministic (docs/observability.md).
  std::string expose_out;
  std::uint64_t expose_every = 0;
  /// Flight-recorder ring capacity (rounded up to a power of two).
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
};

/// Per-Server counters, mirrored into common::metrics() under "serve.*".
/// Kept per-instance (not only process-global) so twin servers in one
/// test process report independently.
struct ServerCounters {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;           ///< error replies of any code
  std::uint64_t edits_applied = 0;
  std::uint64_t edits_rejected = 0;
  std::uint64_t degraded = 0;         ///< degraded-mode transitions
  std::uint64_t journal_overflow = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t oversized_frames = 0;
  std::uint64_t recovered_sessions = 0;
  std::uint64_t recovered_edits = 0;
  std::uint64_t diags_dropped = 0;    ///< across live sessions (retention)
};

class Server {
 public:
  /// Opaque resident-design state; defined in server.cpp. Public so the
  /// file-local helpers there can name Server::Session in signatures.
  struct Session;

  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Replay every "*.gapj" journal in options.journal_dir (sorted by
  /// name), rebuilding the sessions a previous process was killed with.
  /// Damage never fails recovery: torn tails are dropped, interior
  /// corruption degrades that session; the Status is non-ok only when
  /// the directory itself cannot be scanned.
  common::Status recover();

  /// Answer one request line with exactly one reply line (no '\n').
  /// Never throws, never aborts — the whole robustness envelope hangs
  /// off this function.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Serve frames from `in` until EOF or a shutdown request. Returns 0,
  /// or the I/O exit code (5) when the reply stream fails (e.g. the
  /// client closed the pipe).
  int serve(std::istream& in, std::ostream& out);

  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }
  [[nodiscard]] const ServerCounters& counters() const { return counters_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  /// The always-on event ring (docs/observability.md, gap-flight-v1).
  [[nodiscard]] const obs::FlightRecorder& flight() const { return flight_; }

  /// Dump the flight recorder to "<journal_dir>/<session>.flight.json"
  /// for `session` (or every resident session when empty), atomically.
  /// Returns the paths written; empty when journaling is disabled or
  /// every write failed. Also invoked on degradation and by the `dump`
  /// protocol request, so a misbehaving server leaves evidence.
  std::vector<std::string> dump_flight(const std::string& session);

 private:
  /// A handler's answer: the rendered success line, or the code, message
  /// and location of a rejection. handle_line renders every rejection
  /// into its error reply and counts it on serve.errors, so each request
  /// leaves through one reply site.
  struct Reply {
    std::string line;  ///< the success reply; empty when rejected
    ReplyCode code = ReplyCode::kInternal;
    std::string message;
    common::SourceLoc loc;
  };
  [[nodiscard]] static Reply reject(ReplyCode code, std::string message,
                                    common::SourceLoc loc = {});
  /// The rejection a Status describes, its code mapped onto the wire.
  [[nodiscard]] static Reply reject(const common::Status& st);

  Reply dispatch(const Request& req, double t0_us);
  /// The success reply for `req`, its result written by `render(Writer&)`
  /// straight into the compact reply. A result holding a non-finite
  /// number is not JSON: the reply is then an `internal` error instead.
  template <typename Render>
  Reply ok(const Request& req, Render&& render);

  Reply cmd_load(const Request& req, double t0_us);
  Reply cmd_edit(const Request& req, bool undo, double t0_us);
  Reply cmd_timing(const Request& req);
  Reply cmd_slacks(const Request& req);
  Reply cmd_top_paths(const Request& req);
  Reply cmd_qor(const Request& req);
  Reply cmd_lint(const Request& req);
  Reply cmd_stats(const Request& req);
  Reply cmd_dump(const Request& req);

  /// Resolve the request's "session" member (missing_value/unknown_name).
  common::Result<Session*> find_session(const Request& req);
  /// Compute a query result with the session's engine of record: `inc`
  /// on the resident timer normally, `batch` from scratch when degraded.
  /// Both produce byte-identical numbers (the timer's contract), so
  /// degradation is invisible in replies. If `inc` trips, the session is
  /// degraded ("<what> tripped the engine") and `batch` answers instead.
  template <typename Incremental, typename Batch>
  common::Status query(Session& s, const char* what, Incremental&& inc,
                       Batch&& batch);
  /// Apply one committed edit, live or replayed from the journal: spend
  /// its seq, run the engine, keep the dataflow lattice in sync, then
  /// push the inverse onto the undo stack (capped), or pop it for an
  /// undo. Returns the inverse, or the engine's failure.
  common::Result<sta::Edit> apply_edit(Session& s, const sta::Edit& edit,
                                       bool undo);
  void degrade(Session& s, const std::string& why);
  [[nodiscard]] std::string journal_path(const std::string& session) const;
  /// True once the request's budget ("deadline_us", else the server
  /// default; <= 0 means none) has run out.
  [[nodiscard]] bool deadline_expired(const Request& req, double t0_us) const;
  void bump(std::uint64_t ServerCounters::* field, const char* metric,
            std::uint64_t n = 1);
  /// Record a flight event stamped with the in-flight request id.
  void flight_event(obs::FlightEventKind kind, std::uint32_t code = 0,
                    std::uint64_t value = 0, std::string_view detail = {});
  /// Rewrite options_.expose_out atomically (no-op when unset).
  void write_expose() const;

  ServerOptions options_;
  ServerCounters counters_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  /// The `lint` rule catalog and its scan-mode config (GL-D/GL-X off),
  /// built once for every request.
  lint::RuleRegistry lint_registry_;
  lint::LintConfig lint_scan_config_;
  bool shutdown_ = false;
  obs::FlightRecorder flight_;
  std::uint64_t next_req_id_ = 0;  ///< monotonic; threaded through spans
  std::uint64_t cur_req_id_ = 0;   ///< id of the request being dispatched
};

}  // namespace gap::serve
