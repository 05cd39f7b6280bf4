/// \file obs_test.cpp
/// Observability suite (ctest -L obs): Prometheus exposition rendering
/// and its wall-section segregation, the flight-recorder ring (wrap,
/// drop accounting, concurrent record vs snapshot), gap-flight-v1 dump
/// schema and deterministic stripping, atomic snapshot writes, gapstat
/// show/diff/agg (also over the committed examples/obs fixtures),
/// wavefront-profile determinism across capture paths, and twin gapd
/// servers whose telemetry must byte-match at --threads 1 vs 8 (the
/// determinism contract of docs/observability.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "library/builders.hpp"
#include "obs/expose.hpp"
#include "obs/flight.hpp"
#include "obs/stat_cli.hpp"
#include "qor/snapshot.hpp"
#include "serve/server.hpp"
#include "sta/incremental.hpp"
#include "tech/technology.hpp"
#include "timer_fixtures.hpp"

namespace gap::obs {
namespace {

using common::cli::kExitIo;
using common::cli::kExitOk;
using common::cli::kExitUsage;

namespace fs = std::filesystem;
using common::json::Value;

std::string temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("gap_obs_" + tag);
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

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// --- exposition ----------------------------------------------------------

TEST(Expose, PrometheusNameMapsDotsAndJunk) {
  EXPECT_EQ(prometheus_name("serve.req.frame_bytes"),
            "gap_serve_req_frame_bytes");
  EXPECT_EQ(prometheus_name("a-b c/d"), "gap_a_b_c_d");
  EXPECT_EQ(prometheus_name("Already_OK9"), "gap_Already_OK9");
}

TEST(Expose, BucketUpperEdgesArePowersOfTwo) {
  // Bucket kUnitBucket holds [1,2), so its upper edge is 2.
  EXPECT_EQ(bucket_upper_edge(common::Histogram::kUnitBucket), "2");
  EXPECT_EQ(bucket_upper_edge(common::Histogram::kUnitBucket - 1), "1");
  EXPECT_EQ(bucket_upper_edge(common::Histogram::kUnitBucket + 2), "8");
  EXPECT_EQ(bucket_upper_edge(common::Histogram::kNumBuckets - 1), "+Inf");
}

TEST(Expose, RendersSortedWithHeaderAndSeries) {
  common::MetricsRegistry reg;
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.gauge("g.x").set(2.5);
  common::Histogram& h = reg.histogram("h.vals");
  h.record(1.5);
  h.record(3.0);
  h.record(-4.0);  // clamped to zero

  const std::string text = expose_text(reg);
  std::istringstream lines(text);
  std::string first;
  std::getline(lines, first);
  EXPECT_EQ(first, kExposeHeader);

  // Sorted counters, then gauges, then histogram series.
  const std::size_t a = text.find("gap_a_one 1\n");
  const std::size_t b = text.find("gap_b_two 2\n");
  const std::size_t g = text.find("gap_g_x 2.5\n");
  ASSERT_NE(a, std::string::npos) << text;
  ASSERT_NE(b, std::string::npos) << text;
  ASSERT_NE(g, std::string::npos) << text;
  EXPECT_LT(a, b);
  EXPECT_LT(b, g);

  EXPECT_NE(text.find("gap_h_vals_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gap_h_vals_count 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("gap_h_vals_clamped 1\n"), std::string::npos) << text;
  // No order-dependent running sum, ever.
  EXPECT_EQ(text.find("_sum"), std::string::npos) << text;
}

TEST(Expose, HistogramBucketsAreCumulative) {
  common::MetricsRegistry reg;
  common::Histogram& h = reg.histogram("h");
  h.record(1.5);  // bucket [1,2) -> le="2"
  h.record(3.0);  // bucket [2,4) -> le="4"
  const std::string text = expose_text(reg);
  EXPECT_NE(text.find("gap_h_bucket{le=\"2\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gap_h_bucket{le=\"4\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gap_h_bucket{le=\"+Inf\"} 2\n"), std::string::npos)
      << text;
}

TEST(Expose, WallMetricsSegregatedAfterMarker) {
  common::MetricsRegistry reg;
  reg.counter("det.count").add(1);
  reg.counter("wall.pool_sweeps").add(7);
  reg.histogram("wall.latency_us").record(123.0);

  const std::string text = expose_text(reg);
  const std::size_t marker = text.find(kWallMarker);
  ASSERT_NE(marker, std::string::npos) << text;
  EXPECT_LT(text.find("gap_det_count"), marker);
  EXPECT_GT(text.find("gap_wall_pool_sweeps"), marker);
  EXPECT_GT(text.find("gap_wall_latency_us_count"), marker);

  // The deterministic section ends at the marker line.
  const std::string det = deterministic_section(text);
  EXPECT_NE(det.find("gap_det_count"), std::string::npos);
  EXPECT_EQ(det.find("wall"), std::string::npos) << det;
  EXPECT_EQ(det, text.substr(0, marker));
}

TEST(Expose, DeterministicSectionPassesThroughMarkerlessText) {
  EXPECT_EQ(deterministic_section("plain\ntext\n"), "plain\ntext\n");
}

TEST(Expose, MetricsJsonExcludesWallByDefault) {
  common::MetricsRegistry reg;
  reg.counter("det.count").add(1);
  reg.counter("wall.noise").add(99);
  const std::string det = reg.json();
  EXPECT_EQ(det.find("wall.noise"), std::string::npos) << det;
  EXPECT_EQ(reg.snapshot().counters.at("wall.noise"), 99u);
  EXPECT_TRUE(common::MetricsRegistry::is_wall_metric("wall.x"));
  EXPECT_FALSE(common::MetricsRegistry::is_wall_metric("firewall.x"));
}

TEST(Expose, HistogramClampedCounterSurvivesJson) {
  common::MetricsRegistry reg;
  common::Histogram& h = reg.histogram("h");
  h.record(-1.0);
  h.record(-2.0);
  h.record(5.0);
  const common::HistogramData d = h.data();
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.clamped, 2u);
  EXPECT_EQ(d.min, 0.0);
  const std::string js = reg.json();
  EXPECT_NE(js.find("\"clamped\":2"), std::string::npos) << js;
}

TEST(Expose, WriteFileAtomicReplacesAndCleansUp) {
  const std::string dir = temp_dir("atomic");
  const std::string path = dir + "/snap.prom";
  ASSERT_TRUE(write_file_atomic(path, "first"));
  EXPECT_EQ(read_file(path), "first");
  ASSERT_TRUE(write_file_atomic(path, "second"));
  EXPECT_EQ(read_file(path), "second");
  // No temp droppings left next to the target.
  std::size_t entries = 0;
  for (const auto& ent : fs::directory_iterator(dir)) {
    (void)ent;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  // Unwritable directory fails cleanly.
  EXPECT_FALSE(write_file_atomic(dir + "/no/such/dir/x", "y"));
}

// --- flight recorder -----------------------------------------------------

TEST(Flight, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec(16);
  rec.record(FlightEventKind::kRequestBegin, 1, 0, 42, "alpha", 10.0);
  rec.record(FlightEventKind::kEditRejected, 1, 3, 7, "beta", 11.0);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].req_id, 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kRequestBegin);
  EXPECT_EQ(events[0].value, 42u);
  EXPECT_EQ(events[0].detail_view(), "alpha");
  EXPECT_EQ(events[0].wall_us, 10.0);
  EXPECT_EQ(events[1].code, 3u);
  EXPECT_EQ(events[1].detail_view(), "beta");
  EXPECT_EQ(rec.total(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Flight, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(10).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(16).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
}

TEST(Flight, WrapsAndCountsDropped) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.record(FlightEventKind::kRequestBegin, i, 0, i);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the newest 8, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].value, 12 + i);
  }
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.total(), 0u);
}

TEST(Flight, DetailTruncatesAtLimit) {
  FlightRecorder rec(4);
  const std::string long_detail(64, 'x');
  rec.record(FlightEventKind::kDump, 0, 0, 0, long_detail);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail_view(),
            std::string(FlightEvent::kDetailBytes, 'x'));
}

/// A default string_view has a null data(); recording it must not hand
/// memcpy a null source (UBSan-fatal under tools/check.sh asan).
TEST(Flight, EmptyDetailRecordsEmptyView) {
  FlightRecorder rec(4);
  rec.record(FlightEventKind::kRequestBegin, 9, 0, 1, std::string_view{});
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].req_id, 9u);
  EXPECT_TRUE(events[0].detail_view().empty());
}

TEST(Flight, ConcurrentRecordersNeverTearSnapshots) {
  // Hammer the ring from several threads while a reader snapshots; every
  // surviving event must be internally consistent (value == req_id, the
  // writer's invariant). Run under TSan by tools/check.sh tsan.
  FlightRecorder rec(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&rec, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t v = static_cast<std::uint64_t>(t) * 1000000 + i++;
        rec.record(FlightEventKind::kJournalFsync, v, 7, v, "sess");
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    const auto events = rec.snapshot();
    std::uint64_t last_seq = 0;
    bool first = true;
    for (const FlightEvent& e : events) {
      EXPECT_EQ(e.req_id, e.value);
      EXPECT_EQ(e.code, 7u);
      EXPECT_EQ(e.kind, FlightEventKind::kJournalFsync);
      if (!first) EXPECT_GT(e.seq, last_seq);
      last_seq = e.seq;
      first = false;
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(Flight, JsonSchemaAndDeterministicStrip) {
  FlightRecorder rec(8);
  rec.record(FlightEventKind::kDegraded, 3, 2, 9, "alu", 55.5);
  const std::string dump = flight_json(rec);
  auto v = Value::parse_checked(dump);
  ASSERT_TRUE(v.ok()) << dump;
  EXPECT_EQ(v->member_string("flight", ""), "gap-flight-v1");
  EXPECT_EQ(v->member_number("capacity", 0), 8.0);
  EXPECT_EQ(v->member_number("total", 0), 1.0);
  EXPECT_EQ(v->member_number("dropped", 0), 0.0);
  const Value* events = v->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].member_string("kind", ""), "degraded");
  EXPECT_EQ(events->array[0].member_number("req", 0), 3.0);
  EXPECT_EQ(events->array[0].member_number("code", 0), 2.0);
  EXPECT_EQ(events->array[0].member_number("value", 0), 9.0);
  EXPECT_EQ(events->array[0].member_string("detail", ""), "alu");
  const Value* wall = v->find("wall");
  ASSERT_NE(wall, nullptr);

  // The deterministic section is the dump minus the trailing wall member
  // and must still parse.
  const std::string det = flight_deterministic_section(dump);
  EXPECT_EQ(det.find("wall"), std::string::npos) << det;
  auto dv = Value::parse_checked(det);
  ASSERT_TRUE(dv.ok()) << det;
  EXPECT_EQ(dv->member_string("flight", ""), "gap-flight-v1");
}

TEST(Flight, KindNamesAreStable) {
  EXPECT_STREQ(flight_kind_name(FlightEventKind::kRequestBegin),
               "request_begin");
  EXPECT_STREQ(flight_kind_name(FlightEventKind::kJournalFsync),
               "journal_fsync");
  EXPECT_STREQ(flight_kind_name(FlightEventKind::kDump), "dump");
}

// --- gapstat -------------------------------------------------------------

int gapstat(const std::vector<std::string>& args, std::string* out_text) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      run_gapstat(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  return code;
}

TEST(GapStat, ShowsMetricsJson) {
  const std::string dir = temp_dir("stat_show");
  common::MetricsRegistry reg;
  reg.counter("serve.requests").add(5);
  reg.histogram("serve.req.frame_bytes").record(100.0);
  write_file(dir + "/m.json", reg.json());

  std::string text;
  EXPECT_EQ(gapstat({"show", dir + "/m.json"}, &text), kExitOk);
  EXPECT_NE(text.find("serve.requests"), std::string::npos) << text;
  EXPECT_NE(text.find("serve.req.frame_bytes.count"), std::string::npos)
      << text;

  std::string csv;
  EXPECT_EQ(gapstat({"show", dir + "/m.json", "--format", "csv"}, &csv),
            kExitOk);
  EXPECT_EQ(csv.rfind("name,value\n", 0), 0u) << csv;

  std::string js;
  EXPECT_EQ(gapstat({"show", dir + "/m.json", "--format=json"}, &js),
            kExitOk);
  auto v = Value::parse_checked(js);
  ASSERT_TRUE(v.ok()) << js;
  EXPECT_EQ(v->member_number("serve.requests", 0), 5.0);
}

TEST(GapStat, ShowsExpositionAndFlight) {
  const std::string dir = temp_dir("stat_formats");
  common::MetricsRegistry reg;
  reg.counter("sta.wave.sweeps").add(3);
  write_file(dir + "/e.prom", expose_text(reg));

  FlightRecorder rec(8);
  rec.record(FlightEventKind::kDegraded);
  rec.record(FlightEventKind::kRequestBegin);
  rec.record(FlightEventKind::kRequestBegin);
  write_file(dir + "/f.json", flight_json(rec));

  std::string text;
  EXPECT_EQ(gapstat({"show", dir + "/e.prom"}, &text), kExitOk);
  EXPECT_NE(text.find("gap_sta_wave_sweeps"), std::string::npos) << text;

  std::string fl;
  EXPECT_EQ(gapstat({"show", dir + "/f.json", "--format=json"}, &fl),
            kExitOk);
  auto v = Value::parse_checked(fl);
  ASSERT_TRUE(v.ok()) << fl;
  EXPECT_EQ(v->member_number("flight.events.request_begin", 0), 2.0);
  EXPECT_EQ(v->member_number("flight.events.degraded", 0), 1.0);
  EXPECT_EQ(v->member_number("flight.total", 0), 3.0);
}

TEST(GapStat, DiffFindsChangesAndStrictGatesExit) {
  const std::string dir = temp_dir("stat_diff");
  common::MetricsRegistry before;
  before.counter("serve.requests").add(5);
  write_file(dir + "/old.json", before.json());
  common::MetricsRegistry after;
  after.counter("serve.requests").add(9);
  after.counter("serve.errors").add(1);
  write_file(dir + "/new.json", after.json());

  std::string text;
  EXPECT_EQ(gapstat({"diff", dir + "/old.json", dir + "/new.json"}, &text),
            kExitOk);
  EXPECT_NE(text.find("serve.requests"), std::string::npos) << text;
  EXPECT_NE(text.find("serve.errors"), std::string::npos) << text;

  EXPECT_EQ(gapstat({"diff", dir + "/old.json", dir + "/new.json",
                     "--strict"},
                    nullptr),
            kStatExitDiff);
  // Identical files diff clean even under --strict.
  EXPECT_EQ(gapstat({"diff", dir + "/old.json", dir + "/old.json",
                     "--strict"},
                    &text),
            kExitOk);
  EXPECT_NE(text.find("no differences"), std::string::npos) << text;
}

TEST(GapStat, AggregatesAcrossFiles) {
  const std::string dir = temp_dir("stat_agg");
  common::MetricsRegistry a;
  a.counter("serve.requests").add(2);
  a.histogram("lat").record(4.0);
  write_file(dir + "/a.json", a.json());
  common::MetricsRegistry b;
  b.counter("serve.requests").add(3);
  b.histogram("lat").record(16.0);
  write_file(dir + "/b.json", b.json());

  std::string js;
  EXPECT_EQ(gapstat({"agg", dir + "/a.json", dir + "/b.json",
                     "--format=json"},
                    &js),
            kExitOk);
  auto v = Value::parse_checked(js);
  ASSERT_TRUE(v.ok()) << js;
  EXPECT_EQ(v->member_number("serve.requests", 0), 5.0);  // counters sum
  EXPECT_EQ(v->member_number("lat.count", 0), 2.0);
  EXPECT_EQ(v->member_number("lat.min", -1), 4.0);   // minima keep min
  EXPECT_EQ(v->member_number("lat.max", -1), 16.0);  // maxima keep max
}

TEST(GapStat, ExitCodesForBadInput) {
  const std::string dir = temp_dir("stat_bad");
  write_file(dir + "/garbage.json", "{not json");
  EXPECT_EQ(gapstat({}, nullptr), kExitUsage);
  EXPECT_EQ(gapstat({"show"}, nullptr), kExitUsage);
  EXPECT_EQ(gapstat({"show", dir + "/missing.json"}, nullptr), kExitIo);
  EXPECT_EQ(gapstat({"show", dir + "/garbage.json"}, nullptr),
            kStatExitParse);
  EXPECT_EQ(gapstat({"show", dir + "/garbage.json", "--format", "xml"},
                    nullptr),
            kExitUsage);
}

/// The committed examples/obs fixtures (a gapd exposition snapshot and a
/// flight dump) stay readable by gapstat, and --strict trips, exit 1 and
/// not a crash, on one perturbed counter.
TEST(GapStat, CommittedFixturesShowAggAndStrictDiff) {
  const std::string fixtures = std::string(GAP_SOURCE_DIR) + "/examples/obs";
  const std::string prom = fixtures + "/metrics.prom";
  std::string text;
  EXPECT_EQ(gapstat({"show", prom}, &text), kExitOk);
  EXPECT_NE(text.find("gap_serve_requests"), std::string::npos) << text;
  EXPECT_EQ(gapstat({"show", fixtures + "/s1.flight.json"}, nullptr),
            kExitOk);
  EXPECT_EQ(gapstat({"agg", prom, prom}, nullptr), kExitOk);
  EXPECT_EQ(gapstat({"diff", prom, prom, "--strict"}, &text), kExitOk);
  EXPECT_NE(text.find("no differences"), std::string::npos) << text;

  const std::string original = read_file(prom);
  const std::string line = "\ngap_serve_requests ";
  const std::size_t at = original.find(line);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value = at + line.size();
  std::string perturbed = original;
  perturbed.replace(value, original.find('\n', value) - value, "999999");
  const std::string dir = temp_dir("stat_fixtures");
  write_file(dir + "/perturbed.prom", perturbed);
  EXPECT_EQ(gapstat({"diff", prom, dir + "/perturbed.prom", "--strict"},
                    &text),
            kStatExitDiff);
  EXPECT_NE(text.find("999999"), std::string::npos) << text;
}

// --- wavefront profile ---------------------------------------------------

/// Register-bounded alu16 (timer_fixtures.hpp), built once; the library
/// is static because the netlist references its cells for life.
netlist::Netlist& small_design() {
  static library::CellLibrary lib =
      library::make_rich_asic_library(tech::asic_025um());
  static netlist::Netlist nl = registered_design("alu16", lib);
  return nl;
}

TEST(WaveProfile, IdenticalAcrossCapturePaths) {
  netlist::Netlist& nl = small_design();
  qor::SnapshotOptions opt;

  const qor::QorSnapshot batch = qor::capture(nl, opt);
  EXPECT_GT(batch.wave_levels, 1u);
  EXPECT_GT(batch.wave_widest, 0u);
  EXPECT_GE(batch.wave_narrow_fraction, 0.0);
  EXPECT_LE(batch.wave_narrow_fraction, 1.0);

  sta::IncrementalTimer timer(nl, opt.sta, 1);
  timer.flush();
  const qor::QorSnapshot inc = qor::capture(timer, opt);
  EXPECT_EQ(inc.wave_levels, batch.wave_levels);
  EXPECT_EQ(inc.wave_widest, batch.wave_widest);
  EXPECT_EQ(inc.wave_narrow_fraction, batch.wave_narrow_fraction);
}

TEST(WaveProfile, CountersAreThreadCountInvariant) {
  netlist::Netlist& nl = small_design();
  const auto run = [&](int threads) {
    common::metrics().reset();
    sta::IncrementalTimer timer(nl, sta::StaOptions{}, threads);
    timer.flush();
    common::MetricsSnapshot snap = common::metrics().snapshot();
    // Wall metrics (pool dispatch decisions) are allowed to differ.
    std::map<std::string, std::uint64_t> det;
    for (const auto& [name, v] : snap.counters)
      if (!common::MetricsRegistry::is_wall_metric(name)) det[name] = v;
    return std::make_pair(det, snap.histograms);
  };
  const auto serial = run(1);
  const auto pooled = run(8);
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second.at("sta.wave.instances_per_level"),
            pooled.second.at("sta.wave.instances_per_level"));
  EXPECT_GT(serial.first.at("sta.wave.sweeps"), 0u);
  EXPECT_GT(serial.first.at("sta.wave.levels_touched"), 0u);
  EXPECT_GT(serial.first.at("sta.wave.instances_relaxed"), 0u);
}

// --- gapd integration ----------------------------------------------------

std::string load_frame(const std::string& session) {
  return "{\"id\":0,\"cmd\":\"load\",\"session\":\"" + session +
         "\",\"design\":\"mac8\"}";
}

std::string drive_frame(const std::string& session, int inst, double drive) {
  return "{\"id\":0,\"cmd\":\"edit\",\"session\":\"" + session +
         "\",\"edit\":{\"op\":\"set_drive\",\"inst\":" +
         std::to_string(inst) +
         ",\"drive\":" + common::json::number(drive) + "}}";
}

bool reply_ok(const std::string& reply) {
  auto v = Value::parse_checked(reply);
  if (!v.ok()) return false;
  const Value* ok = v->find("ok");
  return ok != nullptr && ok->boolean;
}

/// Drive one scripted session against a fresh server; return the full
/// deterministic telemetry picture (exposition deterministic section +
/// flight deterministic section).
struct TelemetryRun {
  std::string expose_det;
  std::string flight_det;
  std::string stats_reply;
};

TelemetryRun scripted_run(const std::string& tag, int threads) {
  common::metrics().reset();
  serve::ServerOptions opt;
  opt.journal_dir = temp_dir(tag);
  opt.threads = threads;
  serve::Server server(opt);
  EXPECT_TRUE(reply_ok(server.handle_line(load_frame("alu"))));
  for (int i = 0; i < 6; ++i)
    EXPECT_TRUE(
        reply_ok(server.handle_line(drive_frame("alu", i + 1, 2.0))));
  EXPECT_TRUE(reply_ok(
      server.handle_line("{\"id\":1,\"cmd\":\"timing\",\"session\":\"alu\"}")));
  EXPECT_TRUE(reply_ok(
      server.handle_line("{\"id\":2,\"cmd\":\"qor\",\"session\":\"alu\"}")));
  TelemetryRun out;
  out.stats_reply = server.handle_line("{\"id\":3,\"cmd\":\"stats\"}");
  out.expose_det =
      deterministic_section(expose_text(common::metrics()));
  out.flight_det = flight_deterministic_section(flight_json(server.flight()));
  return out;
}

TEST(GapdTelemetry, DeterministicAcrossThreadCounts) {
  const TelemetryRun serial = scripted_run("twin_t1", 1);
  const TelemetryRun pooled = scripted_run("twin_t8", 8);
  EXPECT_EQ(serial.expose_det, pooled.expose_det);
  EXPECT_EQ(serial.flight_det, pooled.flight_det);
  EXPECT_EQ(serial.stats_reply, pooled.stats_reply);
  // The run actually produced request telemetry.
  EXPECT_NE(serial.expose_det.find("gap_serve_req_frame_bytes_count"),
            std::string::npos)
      << serial.expose_det;
  EXPECT_NE(serial.expose_det.find("gap_serve_req_wavefronts_count"),
            std::string::npos);
  EXPECT_NE(serial.flight_det.find("journal_fsync"), std::string::npos);
}

TEST(GapdTelemetry, StatsReportsSessionResources) {
  common::metrics().reset();
  serve::ServerOptions opt;
  opt.journal_dir = temp_dir("stats_resources");
  serve::Server server(opt);
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("alu"))));
  ASSERT_TRUE(reply_ok(server.handle_line(drive_frame("alu", 1, 2.0))));
  const std::string reply = server.handle_line("{\"id\":1,\"cmd\":\"stats\"}");
  auto v = Value::parse_checked(reply);
  ASSERT_TRUE(v.ok()) << reply;
  const Value* result = v->find("result");
  ASSERT_NE(result, nullptr);
  const Value* sessions = result->find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->array.size(), 1u);
  const Value& s = sessions->array[0];
  EXPECT_GT(s.member_number("instances", 0), 0.0);
  EXPECT_GT(s.member_number("nets", 0), 0.0);
  EXPECT_GT(s.member_number("journal_bytes", 0), 0.0);
  EXPECT_EQ(s.member_number("edits_applied", -1), 1.0);
  EXPECT_FALSE(s.find("degraded")->boolean);
  EXPECT_EQ(s.find("degradations"), nullptr);  // `degraded` says it once
}

TEST(GapdTelemetry, StatsFormatTextEmbedsExposition) {
  common::metrics().reset();
  serve::Server server(serve::ServerOptions{});
  const std::string reply = server.handle_line(
      "{\"id\":1,\"cmd\":\"stats\",\"format\":\"text\"}");
  ASSERT_TRUE(reply_ok(reply)) << reply;
  auto v = Value::parse_checked(reply);
  ASSERT_TRUE(v.ok());
  const Value* result = v->find("result");
  ASSERT_NE(result, nullptr);
  const std::string text = result->member_string("exposition", "");
  EXPECT_EQ(text.rfind(std::string(kExposeHeader) + "\n", 0), 0u) << text;
  EXPECT_NE(text.find("gap_serve_requests"), std::string::npos) << text;

  const std::string bad = server.handle_line(
      "{\"id\":1,\"cmd\":\"stats\",\"format\":\"xml\"}");
  EXPECT_FALSE(reply_ok(bad)) << bad;
}

TEST(GapdTelemetry, DumpCommandWritesFlightFiles) {
  common::metrics().reset();
  serve::ServerOptions opt;
  opt.journal_dir = temp_dir("dump_cmd");
  serve::Server server(opt);
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("alu"))));

  const std::string reply =
      server.handle_line("{\"id\":1,\"cmd\":\"dump\"}");
  ASSERT_TRUE(reply_ok(reply)) << reply;
  auto v = Value::parse_checked(reply);
  ASSERT_TRUE(v.ok());
  const Value* dumped = v->find("result")->find("dumped");
  ASSERT_NE(dumped, nullptr);
  ASSERT_EQ(dumped->array.size(), 1u);
  const std::string path = dumped->array[0].str;
  const std::string dump = read_file(path);
  auto fv = Value::parse_checked(dump);
  ASSERT_TRUE(fv.ok()) << dump;
  EXPECT_EQ(fv->member_string("flight", ""), "gap-flight-v1");
  // The dump request recorded itself before the snapshot.
  EXPECT_NE(dump.find("\"kind\":\"dump\""), std::string::npos) << dump;

  // Unknown session and missing journal dir are coded errors.
  EXPECT_FALSE(reply_ok(server.handle_line(
      "{\"id\":1,\"cmd\":\"dump\",\"session\":\"ghost\"}")));
  serve::Server bare{serve::ServerOptions{}};
  EXPECT_FALSE(reply_ok(bare.handle_line("{\"id\":1,\"cmd\":\"dump\"}")));
}

TEST(GapdTelemetry, DegradationDumpsFlightRecorder) {
  common::metrics().reset();
  serve::ServerOptions opt;
  opt.journal_dir = temp_dir("degrade_dump");
  serve::Server server(opt);
  ASSERT_TRUE(reply_ok(server.handle_line(load_frame("alu"))));

  // Force a degradation through the public API: corrupt the resident
  // timer's contract by an edit the engine validates but cannot apply is
  // hard to stage; instead check the plumbing via dump + stats after a
  // rejected edit, and the kDegraded path via the flight JSON contract
  // (server_test covers real degradations).
  const std::string bad = server.handle_line(
      "{\"id\":0,\"cmd\":\"edit\",\"session\":\"alu\",\"edit\":"
      "{\"op\":\"set_drive\",\"inst\":999999,\"drive\":2.0}}");
  EXPECT_FALSE(reply_ok(bad));
  const std::string dump = flight_json(server.flight());
  EXPECT_NE(dump.find("\"kind\":\"edit_rejected\""), std::string::npos)
      << dump;
}

TEST(GapdTelemetry, ExposeEveryWritesSnapshots) {
  common::metrics().reset();
  const std::string dir = temp_dir("expose_every");
  serve::ServerOptions opt;
  opt.expose_out = dir + "/metrics.prom";
  opt.expose_every = 2;
  serve::Server server(opt);
  (void)server.handle_line("{\"id\":1,\"cmd\":\"stats\"}");
  EXPECT_FALSE(fs::exists(opt.expose_out));  // request 1: not yet
  (void)server.handle_line("{\"id\":2,\"cmd\":\"stats\"}");
  ASSERT_TRUE(fs::exists(opt.expose_out));  // request 2: snapshot
  const std::string text = read_file(opt.expose_out);
  EXPECT_EQ(text.rfind(std::string(kExposeHeader) + "\n", 0), 0u) << text;
  EXPECT_NE(text.find("gap_serve_requests 2"), std::string::npos) << text;
}

}  // namespace
}  // namespace gap::obs
