/// \file serve_test.cpp
/// gapd robustness suite (ctest -L serve): protocol codec round-trips,
/// journal torn-tail/corruption semantics, the never-abort guarantee
/// under a malformed-frame fuzz corpus, kill-and-recover differential
/// byte-identity, thread-count invariance, watchdog/backpressure
/// behavior, counter-backed work invariants (a resident query runs no
/// full sweep), and a 10k-request + 1k-garbage-frame soak whose final
/// state must equal an offline replay of exactly the acknowledged edits.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_cli.hpp"
#include "serve/server.hpp"
#include "sta/incremental.hpp"

namespace gap::serve {
namespace {

using common::cli::kExitUsage;

namespace fs = std::filesystem;
using common::json::Value;

std::string temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("gap_serve_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parse a reply line and check the envelope invariants every reply must
/// satisfy: one line, valid JSON, the protocol marker, an ok flag.
Value checked_reply(const std::string& reply) {
  EXPECT_EQ(reply.find('\n'), std::string::npos) << reply;
  auto v = Value::parse(reply);
  EXPECT_TRUE(v.has_value()) << "unparseable reply: " << reply;
  if (!v) return Value{};
  EXPECT_EQ(v->member_string("serve", ""), kProtocolName) << reply;
  const Value* ok = v->find("ok");
  EXPECT_NE(ok, nullptr) << reply;
  return *v;
}

bool reply_ok(const std::string& reply) {
  const Value v = checked_reply(reply);
  const Value* ok = v.find("ok");
  return ok != nullptr && ok->boolean;
}

std::string error_code_of(const std::string& reply) {
  const Value v = checked_reply(reply);
  const Value* e = v.find("error");
  return e != nullptr ? e->member_string("code", "") : "";
}

std::string load_frame(const std::string& session,
                       const std::string& design = "mac8") {
  return "{\"id\":0,\"cmd\":\"load\",\"session\":\"" + session +
         "\",\"design\":\"" + design + "\"}";
}

std::string drive_frame(const std::string& session, int inst, double drive) {
  return "{\"id\":0,\"cmd\":\"edit\",\"session\":\"" + session +
         "\",\"edit\":{\"op\":\"set_drive\",\"inst\":" +
         std::to_string(inst) +
         ",\"drive\":" + common::json::number(drive) + "}}";
}

std::string query_frame(const std::string& cmd, const std::string& session) {
  return "{\"id\":0,\"cmd\":\"" + cmd + "\",\"session\":\"" + session + "\"}";
}

/// Deterministic 64-bit PRNG (splitmix64); the soak must not depend on
/// platform random sources.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// --- protocol codec ------------------------------------------------------

TEST(Protocol, ReplyCodeSpellings) {
  EXPECT_STREQ(to_string(ReplyCode::kInvalidValue), "invalid_value");
  EXPECT_STREQ(to_string(ReplyCode::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(ReplyCode::kDeadline), "deadline");
  EXPECT_EQ(reply_code(common::ErrorCode::kParse), ReplyCode::kParse);
  EXPECT_EQ(reply_code(common::ErrorCode::kStructural),
            ReplyCode::kStructural);
}

TEST(Protocol, ParseRequestValidates) {
  EXPECT_FALSE(parse_request("not json", 0).ok());
  EXPECT_FALSE(parse_request("[1,2,3]", 0).ok());
  EXPECT_FALSE(parse_request("{\"id\":1}", 0).ok());       // no cmd
  EXPECT_FALSE(parse_request("{\"cmd\":7}", 0).ok());      // cmd not string
  EXPECT_FALSE(parse_request(std::string(300, 'x'), 256).ok());  // oversize
  auto ok = parse_request("{\"id\":42,\"cmd\":\"stats\"}", 0);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->cmd, "stats");
  EXPECT_EQ(ok->id_json, "42");
}

TEST(Protocol, EditCodecRoundTrips) {
  const std::vector<sta::Edit> edits = {
      sta::Edit::replace_cell(InstanceId(3), CellId(7)),
      sta::Edit::replace_cell_named(InstanceId(3), "nand2_x4"),
      sta::Edit::set_drive(InstanceId(11), 2.625),
      sta::Edit::rewire(InstanceId(5), 1, NetId(9)),
      sta::Edit::set_clock({0.05, 1.5}),
  };
  for (const sta::Edit& e : edits) {
    const std::string wire = edit_to_json(e);
    const auto parsed = Value::parse(wire);
    ASSERT_TRUE(parsed.has_value()) << wire;
    const auto back = edit_from_json(*parsed);
    ASSERT_TRUE(back.ok()) << wire;
    // Round trip is byte-exact on the wire (the journal relies on it).
    EXPECT_EQ(edit_to_json(*back), wire);
  }
}

TEST(Protocol, EditCodecRejectsBadFields) {
  const std::vector<std::string> bad = {
      "{\"op\":\"set_drive\",\"inst\":-1,\"drive\":1}",
      "{\"op\":\"set_drive\",\"inst\":1.5,\"drive\":1}",
      "{\"op\":\"set_drive\",\"inst\":1,\"drive\":1e999}",
      "{\"op\":\"set_drive\",\"inst\":1,\"drive\":-2}",
      "{\"op\":\"set_clock\",\"skew_fraction\":1.5,\"extra_skew_tau\":0}",
      "{\"op\":\"replace_cell\",\"inst\":1}",
      "{\"op\":\"warp\",\"inst\":1}",
      "{\"inst\":1}",
      "[]",
  };
  for (const std::string& text : bad) {
    const auto parsed = Value::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_FALSE(edit_from_json(*parsed).ok()) << text;
  }
}

// --- journal -------------------------------------------------------------

TEST(JournalFormat, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a64_hex("a"), "af63dc4c8601ec8c");
}

TEST(JournalFormat, LineRoundTripsThroughReplay) {
  const std::string rec = "{\"seq\":1,\"edit\":{\"op\":\"set_drive\","
                          "\"inst\":3,\"drive\":2.5}}";
  const Replay r = replay_journal(journal_line(rec) + "\n");
  EXPECT_EQ(r.halt, ReplayHalt::kClean);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].dump(), rec);
}

TEST(JournalFormat, TornTailIsDroppedSilently) {
  const std::string good1 = journal_line("{\"seq\":1}");
  const std::string good2 = journal_line("{\"seq\":2}");
  // A crash mid-append leaves a prefix of the last line.
  const std::string text =
      good1 + "\n" + good2 + "\n" + good2.substr(0, good2.size() / 2);
  const Replay r = replay_journal(text);
  EXPECT_EQ(r.halt, ReplayHalt::kTornTail);
  EXPECT_EQ(r.records.size(), 2u);
}

TEST(JournalFormat, InteriorCorruptionStopsAtVerifiedPrefix) {
  std::string mid = journal_line("{\"seq\":2}");
  mid[mid.size() / 2] ^= 0x20;  // flip one byte
  const std::string text = journal_line("{\"seq\":1}") + "\n" + mid + "\n" +
                           journal_line("{\"seq\":3}") + "\n";
  const Replay r = replay_journal(text);
  EXPECT_EQ(r.halt, ReplayHalt::kCorrupt);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].member_number("seq", 0), 1.0);
}

TEST(JournalFormat, WriterAppendsDurableVerifiableLines) {
  const std::string dir = temp_dir("journal_writer");
  auto j = Journal::open(dir + "/s.gapj");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->append("{\"seq\":1}").ok());
  EXPECT_TRUE(j->append("{\"seq\":2}").ok());
  EXPECT_EQ(j->appended(), 2u);
  const Replay r = replay_journal(read_file(dir + "/s.gapj"));
  EXPECT_EQ(r.halt, ReplayHalt::kClean);
  EXPECT_EQ(r.records.size(), 2u);
}

// --- never-abort: malformed frame corpus ---------------------------------

TEST(ServeRobustness, MalformedFramesGetCodedRepliesNeverAbort) {
  Server server({});
  std::vector<std::string> corpus = {
      "",
      "   ",
      "garbage",
      "{",
      "}",
      "{\"cmd\":}",
      "{\"cmd\":\"timing\"",
      "[\"cmd\",\"timing\"]",
      "42",
      "\"just a string\"",
      "{\"cmd\":\"timing\",\"session\":42}",
      "{\"cmd\":\"nosuch\"}",
      "{\"cmd\":\"edit\",\"session\":\"x\"}",
      "{\"cmd\":\"load\",\"session\":\"../etc\",\"design\":\"mac8\"}",
      "{\"cmd\":\"load\",\"session\":\"s\",\"design\":\"nosuch\"}",
      std::string("{\"cmd\":\"stats\",\"pad\":\"") + std::string(5000, 'x') +
          "\"}",
      "{\"cmd\":\"timing\",\"session\":\"\\u0000\"}",
  };
  corpus.push_back(std::string(100000, '['));  // depth bomb
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += "{\"a\":[";
  corpus.push_back("{\"cmd\":\"stats\",\"x\":" + deep + "}");

  for (const std::string& frame : corpus) {
    const std::string reply = server.handle_line(frame);
    const Value v = checked_reply(reply);
    if (const Value* ok = v.find("ok"); ok != nullptr && !ok->boolean) {
      const Value* err = v.find("error");
      ASSERT_NE(err, nullptr) << reply;
      EXPECT_FALSE(err->member_string("code", "").empty()) << reply;
      EXPECT_FALSE(err->member_string("message", "").empty()) << reply;
    }
  }
  // The server is still alive and serving after the whole corpus.
  EXPECT_TRUE(reply_ok(server.handle_line("{\"cmd\":\"stats\"}")));
}

TEST(ServeRobustness, NonFiniteIdIsRejectedNotEchoed) {
  // "1e999" parses to inf; echoing it would put `inf` into the reply.
  Server server({});
  for (const char* id : {"1e999", "-1e999", "[1,{\"a\":1e999}]"}) {
    const std::string reply = server.handle_line(
        std::string("{\"id\":") + id + ",\"cmd\":\"stats\"}");
    EXPECT_EQ(error_code_of(reply), "invalid_value") << reply;
    EXPECT_NE(reply.find("\"id\":null"), std::string::npos) << reply;
    EXPECT_EQ(reply.find("inf,"), std::string::npos) << reply;
  }
  EXPECT_EQ(server.counters().errors, 3u);
}

TEST(ServeRobustness, NonFinitePeriodIsInvalidValue) {
  // "1e999" parses to inf, which passes a bare `> 0` check; it must be
  // refused up front, not answered with an `internal` error after a
  // whole slack pass.
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  const std::uint64_t errors_before = server.counters().errors;
  for (const char* period : {"1e999", "-1e999"}) {
    const std::string reply = server.handle_line(
        std::string("{\"cmd\":\"slacks\",\"session\":\"s1\","
                    "\"period_tau\":") +
        period + "}");
    EXPECT_EQ(error_code_of(reply), "invalid_value") << reply;
    EXPECT_NE(reply.find("period_tau"), std::string::npos) << reply;
  }
  EXPECT_EQ(server.counters().errors, errors_before + 2);
  EXPECT_TRUE(reply_ok(server.handle_line(
      "{\"cmd\":\"slacks\",\"session\":\"s1\",\"period_tau\":500}")));
}

TEST(ServeRobustness, NonNumericDeadlineIsInvalidValue) {
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  const std::uint64_t applied_before = server.counters().edits_applied;
  for (const char* deadline : {"\"soon\"", "null", "true", "[5]", "{}"}) {
    const std::string tail =
        std::string(",\"deadline_us\":") + deadline + "}";
    const std::string query =
        server.handle_line("{\"cmd\":\"timing\",\"session\":\"s1\"" + tail);
    EXPECT_EQ(error_code_of(query), "invalid_value") << query;
    EXPECT_NE(query.find("deadline_us"), std::string::npos) << query;
    const std::string edit = server.handle_line(
        "{\"cmd\":\"edit\",\"session\":\"s1\",\"edit\":{\"op\":"
        "\"set_drive\",\"inst\":3,\"drive\":2.5}" +
        tail);
    EXPECT_EQ(error_code_of(edit), "invalid_value") << edit;
  }
  EXPECT_EQ(server.counters().edits_applied, applied_before);
  EXPECT_EQ(server.counters().deadline_exceeded, 0u);
  // Numbers keep their meaning: <= 0 is no deadline, +inf no limit.
  for (const char* deadline : {"0", "-5", "1e999"}) {
    const std::string reply = server.handle_line(
        std::string("{\"cmd\":\"timing\",\"session\":\"s1\","
                    "\"deadline_us\":") +
        deadline + "}");
    EXPECT_TRUE(reply_ok(reply)) << deadline << ": " << reply;
  }
}

TEST(ServeRobustness, ErrorReplyCountsOnce) {
  // A read that fails (unknown session) and also overruns its budget is
  // answered with one `deadline` reply, and that one reply moves
  // `errors` once.
  Server server({});
  for (const char* cmd : {"timing", "slacks"}) {
    const ServerCounters before = server.counters();
    const std::string reply = server.handle_line(
        std::string("{\"id\":4,\"cmd\":\"") + cmd +
        "\",\"session\":\"nosuch\",\"deadline_us\":1e-9}");
    EXPECT_EQ(reply,
              "{\"serve\":\"gap-serve-v1\",\"id\":4,\"ok\":false,"
              "\"error\":{\"code\":\"deadline\",\"message\":"
              "\"request exceeded its deadline\"}}")
        << cmd;
    EXPECT_EQ(server.counters().errors - before.errors, 1u) << cmd;
    EXPECT_EQ(server.counters().deadline_exceeded - before.deadline_exceeded,
              1u)
        << cmd;
  }
  const Value stats = checked_reply(server.handle_line("{\"cmd\":\"stats\"}"));
  EXPECT_EQ(stats.find("result")->find("counters")->member_number("errors", -1),
            2.0);
}

TEST(ServeRobustness, OversizedFramesAreBoundedAndCounted) {
  ServerOptions opt;
  opt.max_frame_bytes = 256;
  Server server(opt);
  const std::string big =
      "{\"cmd\":\"stats\",\"pad\":\"" + std::string(10000, 'x') + "\"}";
  const std::string reply = server.handle_line(big);
  EXPECT_EQ(error_code_of(reply), "invalid_value");
  EXPECT_EQ(server.counters().oversized_frames, 1u);
  EXPECT_TRUE(reply_ok(server.handle_line("{\"cmd\":\"stats\"}")));
}

// --- sessions, edits, undo ----------------------------------------------

TEST(ServeSession, LoadEditUndoRestoresTimingByteExactly) {
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  const std::string before = server.handle_line(query_frame("timing", "s1"));
  ASSERT_TRUE(reply_ok(before));

  const std::string edit_reply =
      server.handle_line(drive_frame("s1", 3, 2.5));
  ASSERT_TRUE(reply_ok(edit_reply));
  const std::string during = server.handle_line(query_frame("timing", "s1"));
  EXPECT_NE(during, before);

  ASSERT_TRUE(reply_ok(server.handle_line(query_frame("undo", "s1"))));
  const std::string after = server.handle_line(query_frame("timing", "s1"));
  EXPECT_EQ(after, before);
  EXPECT_EQ(server.counters().edits_applied, 2u);
}

TEST(ServeSession, AllQueriesAnswerValidJson) {
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  for (const char* cmd : {"timing", "slacks", "top_paths", "qor", "lint"}) {
    const std::string reply = server.handle_line(query_frame(cmd, "s1"));
    EXPECT_TRUE(reply_ok(reply)) << cmd << ": " << reply;
  }
  const std::string stats = server.handle_line("{\"cmd\":\"stats\"}");
  EXPECT_TRUE(reply_ok(stats));
}

TEST(ServeSession, RejectedEditLeavesStateUntouched) {
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  const std::string before = server.handle_line(query_frame("timing", "s1"));

  const std::string reply =
      server.handle_line(drive_frame("s1", 999999, 2.0));
  EXPECT_EQ(error_code_of(reply), "unknown_name");
  EXPECT_EQ(server.counters().edits_rejected, 1u);
  EXPECT_EQ(server.handle_line(query_frame("timing", "s1")), before);
}

TEST(ServeSession, DuplicateAndUnknownSessionsAreCoded) {
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  EXPECT_EQ(error_code_of(server.handle_line(load_frame("s1"))),
            "duplicate");
  EXPECT_EQ(error_code_of(server.handle_line(query_frame("timing", "zz"))),
            "unknown_name");
}

// --- watchdogs and backpressure -----------------------------------------

TEST(ServeWatchdog, SessionCapAnswersOverloaded) {
  ServerOptions opt;
  opt.max_sessions = 1;
  Server server(opt);
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  EXPECT_EQ(error_code_of(server.handle_line(load_frame("s2"))),
            "overloaded");
  EXPECT_EQ(server.counters().overloaded, 1u);
}

TEST(ServeWatchdog, JournalCapAnswersOverloadedAndCounts) {
  ServerOptions opt;
  opt.journal_dir = temp_dir("journal_cap");
  opt.max_journal_edits = 2;
  Server server(opt);
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("s1", 1, 2.0))));
  ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("s1", 2, 2.0))));
  const std::string reply = server.handle_line(drive_frame("s1", 3, 2.0));
  EXPECT_EQ(error_code_of(reply), "overloaded");
  EXPECT_EQ(server.counters().journal_overflow, 1u);
  // Queries still work; the session is alive, only the journal is full.
  EXPECT_TRUE(reply_ok(server.handle_line(query_frame("timing", "s1"))));
}

TEST(ServeWatchdog, DeadlineExpiresQueriesAndProtectsEdits) {
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("s1"))));
  // A per-request budget of a nanosecond cannot be met.
  const std::string q =
      "{\"cmd\":\"timing\",\"session\":\"s1\",\"deadline_us\":0.001}";
  EXPECT_EQ(error_code_of(server.handle_line(q)), "deadline");

  const std::uint64_t applied_before = server.counters().edits_applied;
  const std::string e =
      "{\"cmd\":\"edit\",\"session\":\"s1\",\"deadline_us\":0.001,"
      "\"edit\":{\"op\":\"set_drive\",\"inst\":3,\"drive\":2.5}}";
  EXPECT_EQ(error_code_of(server.handle_line(e)), "deadline");
  // The deadline fired before the edit was committed: nothing applied.
  EXPECT_EQ(server.counters().edits_applied, applied_before);
  EXPECT_EQ(server.counters().deadline_exceeded, 2u);
}

// --- work invariants -----------------------------------------------------

std::uint64_t arrival_passes() {
  return common::metrics().counter("sta.arrival_passes").value();
}

/// One frame per read class, labeled: every query command, and lint in
/// both modes.
std::vector<std::pair<std::string, std::string>> read_classes(
    const std::string& session) {
  return {
      {"timing", query_frame("timing", session)},
      {"slacks", query_frame("slacks", session)},
      {"top_paths", query_frame("top_paths", session)},
      {"qor", query_frame("qor", session)},
      {"lint scan", query_frame("lint", session)},
      {"lint dataflow", "{\"id\":0,\"cmd\":\"lint\",\"session\":\"" +
                            session + "\",\"mode\":\"dataflow\"}"},
  };
}

TEST(ServeWork, ResidentQueriesRunNoFullSweep) {
  // Every query on a healthy session answers from the resident timer's
  // state: after an edit, the dirty cone is re-timed incrementally and
  // no request class starts a full arrival pass of its own.
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("m", "mac16"))));
  ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("m", 3, 2.5))));
  for (const auto& [what, frame] : read_classes("m")) {
    const std::uint64_t before = arrival_passes();
    const std::string reply = server.handle_line(frame);
    EXPECT_TRUE(reply_ok(reply)) << what << ": " << reply;
    EXPECT_EQ(arrival_passes() - before, 0u) << what;
  }
  EXPECT_EQ(server.counters().degraded, 0u);
}

TEST(ServeWork, ResidentLintRunsNoStructuralScan) {
  // A session keeps one structural scan per Netlist::version(): a value
  // edit re-lints on the cached scan in either mode, while a rewire and
  // its undo each bump the version and pay one rescan on the next lint.
  Server server({});
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("m"))));
  const common::Counter& scans =
      common::metrics().counter("lint.structural_scans");
  const auto scans_by = [&](const std::string& frame) {
    const std::uint64_t before = scans.value();
    const std::string reply = server.handle_line(frame);
    EXPECT_TRUE(reply_ok(reply)) << reply;
    return scans.value() - before;
  };
  const std::string scan = query_frame("lint", "m");
  const std::string dataflow =
      "{\"id\":0,\"cmd\":\"lint\",\"session\":\"m\",\"mode\":\"dataflow\"}";

  EXPECT_EQ(scans_by(scan), 1u);  // a fresh session scans once

  ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("m", 3, 2.5))));
  EXPECT_EQ(scans_by(scan), 0u);
  EXPECT_EQ(scans_by(dataflow), 0u);

  EXPECT_EQ(scans_by("{\"cmd\":\"edit\",\"session\":\"m\",\"edit\":"
                     "{\"op\":\"rewire\",\"inst\":100,\"pin\":0,\"net\":0}}"),
            0u);  // edits never scan; the next lint does
  EXPECT_EQ(scans_by(scan), 1u);
  EXPECT_EQ(scans_by(dataflow), 0u);

  ASSERT_TRUE(reply_ok(server.handle_line(query_frame("undo", "m"))));
  EXPECT_EQ(scans_by(dataflow), 1u);
  EXPECT_EQ(scans_by(scan), 0u);
  EXPECT_EQ(server.counters().degraded, 0u);
}

TEST(ServeWork, DegradedTimingReplyMatchesResident) {
  // A degraded session answers every read class from a from-scratch
  // analysis, and each reply is the same bytes as its resident twin's
  // (for timing: the path's arrivals travel in the batch TimingResult
  // exactly as in the resident timer's).
  const std::string dir = temp_dir("degraded_timing");
  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Server a(opt);
    ASSERT_TRUE(reply_ok(a.handle_line(load_frame("m", "mac16"))));
    ASSERT_TRUE(reply_ok(a.handle_line(drive_frame("m", 3, 2.5))));
    ASSERT_TRUE(reply_ok(a.handle_line(drive_frame("m", 7, 4.0))));
    ASSERT_TRUE(reply_ok(a.handle_line(drive_frame("m", 9, 1.5))));
  }
  // Flip a byte inside the record for edit #2 (line 3 of the file); an
  // interior record, so recovery keeps edit #1 and degrades.
  std::string text = read_file(dir + "/m.gapj");
  std::size_t pos = 0;
  for (int line = 0; line < 2; ++line) pos = text.find('\n', pos) + 1;
  text[pos + 30] ^= 0x01;
  std::ofstream(dir + "/m.gapj", std::ios::binary) << text;

  ServerOptions opt;
  opt.journal_dir = dir;
  Server degraded(opt);
  ASSERT_TRUE(degraded.recover().ok());
  ASSERT_EQ(degraded.counters().degraded, 1u);
  EXPECT_EQ(degraded.counters().recovered_edits, 1u);

  Server resident({});
  ASSERT_TRUE(reply_ok(resident.handle_line(load_frame("m", "mac16"))));
  ASSERT_TRUE(reply_ok(resident.handle_line(drive_frame("m", 3, 2.5))));

  const common::Counter& scans =
      common::metrics().counter("lint.structural_scans");
  for (const auto& [what, frame] : read_classes("m")) {
    const std::uint64_t before = arrival_passes();
    const std::uint64_t scans_before = scans.value();
    const std::string from_scratch = degraded.handle_line(frame);
    // The timing fallback is a batch analysis: exactly one full pass.
    if (what == "timing") {
      EXPECT_EQ(arrival_passes() - before, 1u);
    }
    // The lint fallback trusts no cached scan: one fresh scan per lint.
    if (what.rfind("lint", 0) == 0) {
      EXPECT_EQ(scans.value() - scans_before, 1u) << what;
    }
    ASSERT_TRUE(reply_ok(from_scratch)) << what << ": " << from_scratch;
    EXPECT_EQ(from_scratch, resident.handle_line(frame)) << what;
  }
}

// --- kill and recover ----------------------------------------------------

/// Scripted edits used by the recovery tests: all always-valid, so the
/// twin server acknowledges exactly the same sequence.
std::vector<std::string> recovery_script(int n) {
  std::vector<std::string> frames;
  Rng rng{7};
  for (int i = 0; i < n; ++i) {
    if (i % 7 == 6) {
      frames.push_back(
          "{\"cmd\":\"edit\",\"session\":\"s1\",\"edit\":"
          "{\"op\":\"set_clock\",\"skew_fraction\":0.0" +
          std::to_string(5 + rng.below(4)) + ",\"extra_skew_tau\":0}}");
    } else if (i % 5 == 4) {
      frames.push_back(query_frame("undo", "s1"));
    } else {
      frames.push_back(drive_frame("s1", static_cast<int>(rng.below(400)),
                                   0.5 + 0.25 * rng.below(30)));
    }
  }
  return frames;
}

std::vector<std::string> query_suite() {
  return {query_frame("timing", "s1"), query_frame("slacks", "s1"),
          query_frame("top_paths", "s1"), query_frame("qor", "s1")};
}

TEST(ServeRecover, KilledServerRecoversByteIdentical) {
  const std::string dir = temp_dir("kill_recover");
  // Server A: journaled session, 60 scripted edits, then "SIGKILL" — the
  // object is destroyed with no shutdown handshake. Every acknowledged
  // edit is already fsync'd, so destruction loses nothing acknowledged.
  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Server a(opt);
    ASSERT_TRUE(reply_ok(a.handle_line(load_frame("s1"))));
    for (const std::string& f : recovery_script(60))
      (void)a.handle_line(f);
  }
  // Twin C: the same script live, no journal, never killed.
  Server twin({});
  ASSERT_TRUE(reply_ok(twin.handle_line(load_frame("s1"))));
  for (const std::string& f : recovery_script(60))
    (void)twin.handle_line(f);

  // Server B recovers from A's journal and must answer every query
  // byte-identically to the uninterrupted twin.
  ServerOptions opt;
  opt.journal_dir = dir;
  Server b(opt);
  ASSERT_TRUE(b.recover().ok());
  EXPECT_EQ(b.session_count(), 1u);
  EXPECT_GT(b.counters().recovered_edits, 0u);
  for (const std::string& q : query_suite())
    EXPECT_EQ(b.handle_line(q), twin.handle_line(q)) << q;

  // And new edits keep working after recovery, still byte-identical.
  const std::string next = drive_frame("s1", 42, 3.25);
  EXPECT_EQ(b.handle_line(next), twin.handle_line(next));
  EXPECT_EQ(b.handle_line(query_frame("timing", "s1")),
            twin.handle_line(query_frame("timing", "s1")));
}

TEST(ServeRecover, RecoveryIsThreadCountInvariant) {
  const std::string dir = temp_dir("recover_threads");
  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Server a(opt);
    ASSERT_TRUE(reply_ok(a.handle_line(load_frame("s1"))));
    for (const std::string& f : recovery_script(30))
      (void)a.handle_line(f);
  }
  ServerOptions one;
  one.journal_dir = dir;
  one.threads = 1;
  ServerOptions four;
  four.journal_dir = dir;
  four.threads = 4;
  Server b1(one), b4(four);
  ASSERT_TRUE(b1.recover().ok());
  ASSERT_TRUE(b4.recover().ok());
  for (const std::string& q : query_suite())
    EXPECT_EQ(b1.handle_line(q), b4.handle_line(q)) << q;
}

TEST(ServeRecover, TornTailIsDroppedAndSessionStaysHealthy) {
  const std::string dir = temp_dir("torn_tail");
  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Server a(opt);
    ASSERT_TRUE(reply_ok(a.handle_line(load_frame("s1"))));
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(reply_ok(a.handle_line(drive_frame("s1", i, 2.0))));
  }
  // Truncate the last line mid-record, as a crash mid-append would.
  std::string text = read_file(dir + "/s1.gapj");
  ASSERT_FALSE(text.empty());
  text.resize(text.size() - 10);
  std::ofstream(dir + "/s1.gapj", std::ios::binary) << text;

  ServerOptions opt;
  opt.journal_dir = dir;
  Server b(opt);
  ASSERT_TRUE(b.recover().ok());
  EXPECT_EQ(b.counters().recovered_edits, 4u);  // the torn 5th is gone
  const Value stats = checked_reply(b.handle_line("{\"cmd\":\"stats\"}"));
  const Value* sessions = stats.find("result")->find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_FALSE(sessions->array.at(0).find("degraded")->boolean);

  // The recovered state equals a twin that only ever saw 4 edits.
  Server twin({});
  ASSERT_TRUE(reply_ok(twin.handle_line(load_frame("s1"))));
  for (int i = 0; i < 4; ++i)
    (void)twin.handle_line(drive_frame("s1", i, 2.0));
  EXPECT_EQ(b.handle_line(query_frame("timing", "s1")),
            twin.handle_line(query_frame("timing", "s1")));
}

TEST(ServeRecover, InteriorCorruptionDegradesButKeepsServing) {
  const std::string dir = temp_dir("corrupt_mid");
  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Server a(opt);
    ASSERT_TRUE(reply_ok(a.handle_line(load_frame("s1"))));
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(reply_ok(a.handle_line(drive_frame("s1", i, 2.0))));
  }
  // Flip a byte inside the record for edit #3 (line 4 of the file).
  std::string text = read_file(dir + "/s1.gapj");
  std::size_t pos = 0;
  for (int line = 0; line < 3; ++line) pos = text.find('\n', pos) + 1;
  text[pos + 30] ^= 0x01;
  std::ofstream(dir + "/s1.gapj", std::ios::binary) << text;

  ServerOptions opt;
  opt.journal_dir = dir;
  Server b(opt);
  ASSERT_TRUE(b.recover().ok());
  EXPECT_EQ(b.counters().recovered_edits, 2u);  // verified prefix only
  EXPECT_EQ(b.counters().degraded, 1u);

  // Degraded answers fall back to from-scratch analysis — which is
  // byte-identical to a healthy twin holding the same prefix.
  Server twin({});
  ASSERT_TRUE(reply_ok(twin.handle_line(load_frame("s1"))));
  for (int i = 0; i < 2; ++i)
    (void)twin.handle_line(drive_frame("s1", i, 2.0));
  for (const std::string& q : query_suite())
    EXPECT_EQ(b.handle_line(q), twin.handle_line(q)) << q;
}

// --- thread invariance of the live server --------------------------------

TEST(ServeDeterminism, RepliesAreThreadCountInvariant) {
  ServerOptions one;
  one.threads = 1;
  ServerOptions four;
  four.threads = 4;
  Server s1(one), s4(four);
  std::vector<std::string> script = {load_frame("s1")};
  for (const std::string& f : recovery_script(20)) script.push_back(f);
  for (const std::string& q : query_suite()) script.push_back(q);
  script.push_back(query_frame("lint", "s1"));
  for (const std::string& f : script)
    EXPECT_EQ(s1.handle_line(f), s4.handle_line(f)) << f;
}

// --- the soak ------------------------------------------------------------

TEST(ServeSoak, TenThousandRequestsPlusGarbageStayConsistent) {
  ServerOptions opt;
  opt.journal_dir = temp_dir("soak");
  Server server(opt);
  const std::string load = load_frame("s1");
  ASSERT_TRUE(reply_ok(server.handle_line(load)));

  Rng rng{0x5eedu};
  const std::vector<std::string> query_cmds = {"timing", "slacks",
                                               "top_paths", "stats"};
  std::vector<std::string> acked_edits;
  int scripted = 0, garbage = 0;
  std::uint64_t error_replies = 0;

  const auto scripted_frame = [&]() -> std::string {
    ++scripted;
    const std::uint64_t pick = rng.below(100);
    if (pick < 80)
      return drive_frame("s1", static_cast<int>(rng.below(415)),
                         0.5 + 0.125 * rng.below(60));
    if (pick < 88) return query_frame("undo", "s1");
    if (pick < 92)
      return "{\"cmd\":\"edit\",\"session\":\"s1\",\"edit\":"
             "{\"op\":\"set_clock\",\"skew_fraction\":0.0" +
             std::to_string(5 + rng.below(4)) + ",\"extra_skew_tau\":0}}";
    return query_frame(query_cmds[rng.below(query_cmds.size())], "s1");
  };
  const auto garbage_frame = [&]() -> std::string {
    ++garbage;
    std::string base = drive_frame("s1", static_cast<int>(rng.below(415)),
                                   2.0 + 0.5 * rng.below(8));
    switch (rng.below(4)) {
      case 0:  // truncate
        return base.substr(0, rng.below(base.size()));
      case 1: {  // flip a byte
        base[rng.below(base.size())] =
            static_cast<char>(rng.below(256));
        return base;
      }
      case 2:  // binary noise
        base.clear();
        for (int i = 0; i < 40; ++i)
          base += static_cast<char>(rng.below(256));
        // a newline would be two frames; the reader splits on it anyway
        for (char& c : base)
          if (c == '\n') c = ' ';
        return base;
      default:  // deep nesting
        return std::string(200 + rng.below(400), '[');
    }
  };

  const int kTotal = 11000;
  for (int i = 0; i < kTotal; ++i) {
    const bool is_garbage = i % 11 == 10;  // 1000 of 11000
    const std::string frame =
        is_garbage ? garbage_frame() : scripted_frame();
    const std::string reply = server.handle_line(frame);
    const Value v = checked_reply(reply);
    const Value* ok = v.find("ok");
    ASSERT_NE(ok, nullptr) << frame;
    if (ok->boolean) {
      const auto req = parse_request(frame, 0);
      if (req.ok() && (req->cmd == "edit" || req->cmd == "undo"))
        acked_edits.push_back(frame);
    } else {
      ++error_replies;
    }
  }
  EXPECT_GE(scripted, 10000);
  EXPECT_GE(garbage, 1000);
  EXPECT_EQ(server.counters().requests,
            static_cast<std::uint64_t>(kTotal) + 1);
  EXPECT_EQ(server.counters().errors, error_replies);

  // Bounded-growth invariants (the RSS proxies): per-session diagnostics
  // and undo history are capped, and the session never degraded.
  const Value stats = checked_reply(server.handle_line("{\"cmd\":\"stats\"}"));
  const Value& session = stats.find("result")->find("sessions")->array.at(0);
  EXPECT_LE(session.member_number("diags", 1e9),
            static_cast<double>(opt.max_session_diags));
  EXPECT_LE(session.member_number("undo_depth", 1e9), 64.0);
  EXPECT_FALSE(session.find("degraded")->boolean);

  // Differential: an offline server replaying exactly the acknowledged
  // edits must land on byte-identical state.
  Server replayed({});
  ASSERT_TRUE(reply_ok(replayed.handle_line(load)));
  for (const std::string& f : acked_edits)
    ASSERT_TRUE(reply_ok(replayed.handle_line(f))) << f;
  for (const std::string& q : query_suite())
    EXPECT_EQ(server.handle_line(q), replayed.handle_line(q)) << q;
}

// --- the CLI binding -----------------------------------------------------

TEST(ServeCli, ServesScriptOverStreamsAndExitsClean) {
  std::istringstream in(load_frame("cli") + "\n" +
                        drive_frame("cli", 3, 2.5) + "\n" +
                        "{\"cmd\":\"shutdown\"}\n" +
                        "{\"cmd\":\"stats\"}\n");  // after shutdown: unread
  std::ostringstream out, err;
  EXPECT_EQ(run_gapd(0, nullptr, in, out, err), 0);
  std::istringstream lines(out.str());
  std::string line;
  int replies = 0;
  while (std::getline(lines, line)) {
    checked_reply(line);
    ++replies;
  }
  EXPECT_EQ(replies, 3);  // shutdown stops the loop
}

TEST(ServeCli, UsageErrorsExitTwo) {
  std::istringstream in;
  std::ostringstream out, err;
  const char* bad_flag[] = {"--nosuch"};
  EXPECT_EQ(run_gapd(1, bad_flag, in, out, err), kExitUsage);
  const char* bad_value[] = {"--threads", "lots"};
  EXPECT_EQ(run_gapd(2, bad_value, in, out, err), kExitUsage);
  EXPECT_NE(err.str().find("gapd: error:"), std::string::npos);
}

/// Count and capacity flags reject a fractional value instead of
/// truncating it; --deadline-us is the one real-valued flag.
TEST(ServeCli, FractionalIntegerFlagsExitTwo) {
  for (const char* flag :
       {"--threads", "--max-sessions", "--max-frame-bytes",
        "--max-journal-edits", "--max-session-diags", "--expose-interval",
        "--flight-capacity"}) {
    std::istringstream in;
    std::ostringstream out, err;
    const char* argv[] = {flag, "100.5"};
    EXPECT_EQ(run_gapd(2, argv, in, out, err), kExitUsage) << flag;
    EXPECT_NE(err.str().find("needs an integer"), std::string::npos) << flag;
  }
  std::istringstream in;
  std::ostringstream out, err;
  const char* deadline[] = {"--deadline-us", "2.5"};
  EXPECT_EQ(run_gapd(2, deadline, in, out, err), 0);
}

TEST(ServeCli, EofWithoutShutdownExitsClean) {
  std::istringstream in("{\"cmd\":\"stats\"}\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_gapd(0, nullptr, in, out, err), 0);
  EXPECT_TRUE(reply_ok(out.str().substr(0, out.str().size() - 1)));
}

}  // namespace
}  // namespace gap::serve
