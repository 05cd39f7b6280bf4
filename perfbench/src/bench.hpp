#pragma once
/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark (README.md beside this
/// directory): command-line arguments, the result a workload hands back,
/// the in-memory span recorder of the traced run, work-counter probes and
/// the latency statistics every workload reports the same way.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gap::common {
class Counter;
}

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after this many timed operations (0 = run for `seconds`). Used
  /// by the benchmark's own tests for tiny runs.
  std::uint64_t max_ops = 0;
  /// Expected (freq, area, registers) per flow for seed 1 (flow_sweep).
  std::string expected = "perfbench/expected/flow_sweep_seed1.json";
  /// Directory the traced run writes its spans into.
  std::string out_dir = ".bench_out";
  /// Print the first N generated operations and exit (no timing).
  std::uint64_t dump_stream = 0;
  /// flow_sweep: write the expected-results file for this seed and exit.
  std::string write_expected;
};

/// Set-up runs kSetupReps times before the first timed operation (the
/// last one is kept), then once more about every kSetupEveryUs of
/// operation time, so setup_s — the median of all of them — samples the
/// machine over the whole run rather than in one burst at its start.
inline constexpr int kSetupReps = 3;
inline constexpr double kSetupEveryUs = 1e6;

/// What a workload hands back to main(): operation counts plus named
/// metrics. Human-readable notes go to stderr; stdout carries only the
/// final JSON line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< by metric name

  void set(const std::string& name, double v) { values[name] = v; }
  void fail(const std::string& why);  ///< counts one failure, logs `why`
};

/// Every metric the benchmark can print, in output order, with its unit
/// and whether it belongs to the traced (per-layer) run. A workload that
/// does not exercise a layer reports 0 for it.
struct MetricSpec {
  std::string name;
  const char* unit;
  bool per_layer;
};
[[nodiscard]] const std::vector<MetricSpec>& metric_specs();

/// The last stdout line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_json(const Outcome& out, bool trace);

// --- time, memory ---------------------------------------------------------

[[nodiscard]] inline double now_us() {
  using namespace std::chrono;
  return duration<double, std::micro>(
             steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double peak_rss_mb();

// --- statistics -----------------------------------------------------------

/// Median (linear interpolation between the middle pair); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The tail the benchmark reports: the highest percentile with at least
/// ten samples beyond it, i.e. the 11th-largest sample (the maximum when
/// there are fewer than eleven).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
};
[[nodiscard]] Tail tail_latency(std::vector<double> v);

/// Latency and throughput of a run, as each workload estimates them.
/// The machines this runs on slow down by up to half for seconds at a
/// time while other tenants run; the estimators (README.md) are the ones
/// such slowdowns move least.
struct Latency {
  double p50_us = 0.0;
  Tail tail;
  double ops_per_s = 0.0;
  std::size_t samples = 0;  ///< the sample `tail` is taken from
};

/// Adds the end-to-end metrics shared by every workload. setup_s is the
/// median of the set-up repetitions (s).
void add_end_to_end(Outcome& out, const Latency& lat,
                    const std::vector<double>& setup_s);

// --- spans (traced run) ---------------------------------------------------

/// One recorded call: name, start, end (µs), the span that caused it
/// (-1 for a root) and the operation it belongs to.
struct Span {
  std::uint32_t name = 0;  ///< index into SpanRecorder::names()
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; returns its index (-1 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t op);
  void end(std::int64_t idx);
  /// Duration (µs) of a closed span, 0 for -1.
  [[nodiscard]] double duration(std::int64_t idx) const;

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its children, summed over all spans of a name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_times() const;
  /// Write {"names":[...],"spans":[[name,start,end,parent,op],...],
  /// "self_us":{...}} plus `extra` members (pre-rendered JSON).
  bool write(const std::string& path, const std::string& extra) const;

 private:
  std::uint32_t intern(const char* name);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::int64_t parent,
         std::uint64_t op)
      : rec_(rec), idx_(rec.begin(name, parent, op)) {}
  ~Scoped() { rec_.end(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int64_t index() const { return idx_; }

 private:
  SpanRecorder& rec_;
  std::int64_t idx_;
};

// --- work counters --------------------------------------------------------

/// The common::metrics() counters the per-layer metrics are built from,
/// read before and after each operation.
class Probe {
 public:
  enum Id : std::size_t {
    kGatesMapped,
    kSaAccepted,
    kSaRejected,
    kTilosAccepted,
    kTilosRejected,
    kArrivalPasses,
    kNodesRepropagated,
    kIncrementalWaves,
    kPooledSweeps,
    kSerialSweeps,
    kDataflowEvals,
    kDataflowReuses,
    kDataflowFullSweeps,
    kDataflowConePasses,
    kCount
  };
  struct Snapshot {
    std::uint64_t v[kCount] = {};
    [[nodiscard]] std::uint64_t operator[](Id i) const { return v[i]; }
  };

  Probe();
  [[nodiscard]] Snapshot read() const;
  /// after - before, per counter.
  [[nodiscard]] static Snapshot delta(const Snapshot& before,
                                      const Snapshot& after);

 private:
  const gap::common::Counter* c_[kCount] = {};
};

/// Adds `d` into `acc` counter by counter.
void accumulate(Probe::Snapshot& acc, const Probe::Snapshot& d);

/// Ratio with a zero-base guard.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// --- workloads ------------------------------------------------------------

Outcome run_flow_sweep(const Args& args);
Outcome run_serve(const Args& args, bool eco);

}  // namespace perfbench
