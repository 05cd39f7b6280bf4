/// flow_sweep: every registry design under four methodologies, one
/// core::Flow::run per operation on a resident Flow, in a per-pass order
/// shuffled by the seed. Closed loop, one caller, no serve layer.

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "designs/registry.hpp"
#include "netlist/checks.hpp"
#include "tech/technology.hpp"

namespace perfbench {

namespace {

namespace json = gap::common::json;

const char* const kMethodologies[] = {"typical", "good", "custom",
                                      "reference"};
const char* const kStages[] = {"map", "pipeline", "place",
                               "route", "size", "signoff"};

struct Config {
  std::string key;  ///< "<design>/<methodology>"
  gap::core::Methodology m;
  gap::logic::Aig aig;
};

/// Everything set-up builds: the cell libraries (inside Flow) and every
/// design's AIG in the datapath style its methodology asks for.
struct Setup {
  std::unique_ptr<gap::core::Flow> flow;
  std::vector<Config> configs;
};

Setup build_setup(std::uint64_t seed) {
  Setup s;
  s.flow = std::make_unique<gap::core::Flow>(
      *gap::tech::technology_by_name("asic025"), seed);
  for (const std::string& design : gap::designs::design_names()) {
    for (const char* meth : kMethodologies) {
      const gap::core::Methodology m = *gap::core::methodology_by_name(meth);
      s.configs.push_back({design + "/" + meth, m,
                           gap::designs::make_design(design, m.datapath)});
    }
  }
  return s;
}

struct Expected {
  double freq_mhz = 0.0;
  double area_um2 = 0.0;
  int registers = 0;
};

std::map<std::string, Expected> read_expected(const std::string& path) {
  std::map<std::string, Expected> out;
  std::ifstream in(path);
  if (!in) return out;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto doc = json::Value::parse_checked(text);
  if (!doc.ok()) return out;
  const json::Value* flows = doc->find("flows");
  if (flows == nullptr || !flows->is_array()) return out;
  for (const json::Value& f : flows->array) {
    out[f.member_string("key", "")] = {
        f.member_number("freq_mhz", -1.0), f.member_number("area_um2", -1.0),
        static_cast<int>(f.member_number("pipeline_registers", -1.0))};
  }
  return out;
}

/// Config indices for pass `pass`, shuffled by (seed, pass).
std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  gap::Rng rng = gap::Rng::stream(seed, pass);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  return order;
}

bool same(const Expected& a, const Expected& b) {
  return a.freq_mhz == b.freq_mhz && a.area_um2 == b.area_um2 &&
         a.registers == b.registers;
}

int write_expected_file(const Setup& s, const std::string& path,
                        std::uint64_t seed) {
  std::string out = "{\"seed\":" + std::to_string(seed) + ",\"flows\":[";
  for (std::size_t i = 0; i < s.configs.size(); ++i) {
    const Config& c = s.configs[i];
    const gap::core::FlowResult r = s.flow->run(c.aig, c.m);
    if (!r.ok()) return 1;
    out += std::string(i ? "," : "") + "\n{\"key\":\"" + c.key +
           "\",\"freq_mhz\":" + json::number(r.freq_mhz) +
           ",\"area_um2\":" + json::number(r.area_um2) +
           ",\"pipeline_registers\":" + std::to_string(r.pipeline_registers) +
           "}";
  }
  out += "\n]}\n";
  std::ofstream os(path);
  os << out;
  return os ? 0 : 1;
}

/// Empty when flow `idx`'s result passes every check, else why not.
std::string check_flow(const gap::core::FlowResult& r, std::size_t idx,
                       std::vector<std::optional<Expected>>& first,
                       bool pinned,
                       const std::map<std::string, Expected>& expected,
                       const std::string& key) {
  if (!r.ok() || !r.nl) return "flow report not ok";
  if (!gap::netlist::verify(*r.nl).ok())
    return "netlist::verify found violations";
  const Expected got{r.freq_mhz, r.area_um2, r.pipeline_registers};
  if (!first[idx]) first[idx] = got;
  if (!same(*first[idx], got))
    return "result differs from the same config's first pass";
  if (pinned) {
    const auto it = expected.find(key);
    if (it == expected.end() || !same(it->second, got))
      return "result differs from the expected file";
  }
  return {};
}

}  // namespace

Outcome run_flow_sweep(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_us();
    s = build_setup(args.seed);
    setup_s.push_back((now_us() - t0) * 1e-6);
  }
  const std::size_t n = s.configs.size();

  if (!args.write_expected.empty()) {
    if (write_expected_file(s, args.write_expected, args.seed) != 0)
      out.fail("could not write " + args.write_expected);
    out.attempted = n;
    return out;
  }
  if (args.dump_stream != 0) {
    for (std::uint64_t op = 0; op < args.dump_stream; ++op)
      std::cout << s.configs[pass_order(n, args.seed, op / n)[op % n]].key
                << '\n';
    return out;
  }

  // Seed 1 is the default seed: its results are pinned by a file kept
  // with the benchmark. Every seed is checked for determinism: a config
  // must give the same numbers on every pass.
  const bool pinned = args.seed == 1;
  const std::map<std::string, Expected> expected =
      pinned ? read_expected(args.expected) : std::map<std::string, Expected>{};
  std::vector<std::optional<Expected>> first(n);

  SpanRecorder spans(args.trace);
  const Probe probe;
  Probe::Snapshot work;
  // min-of-N per config: a flow's latency is its best pass.
  std::vector<double> best(n, -1.0);
  std::vector<double> untraced_us, traced_us;
  double stage_ms[6] = {};
  double outside_ms = 0.0;
  std::uint64_t traced_flows = 0;

  // With --trace 1 the first third of the run is untraced, so the
  // difference of the two medians is the tracing overhead.
  const double budget_us = args.seconds * 1e6;
  double paused_us = 0.0;  // set-up samples, excluded from the run
  const double start = now_us();
  const auto elapsed = [&] { return now_us() - start - paused_us; };
  double last_setup_us = 0.0;
  std::uint64_t op = 0;
  bool done = false;
  for (std::uint64_t pass = 0; !done; ++pass) {
    for (std::size_t idx : pass_order(n, args.seed, pass)) {
      if (args.max_ops != 0 && op >= args.max_ops) {
        done = true;
        break;
      }
      const Config& c = s.configs[idx];
      const bool traced =
          args.trace && (args.max_ops != 0 || elapsed() >= budget_us / 3);
      ++op;
      ++out.attempted;

      const Probe::Snapshot before = traced ? probe.read() : Probe::Snapshot{};
      const std::int64_t span = traced ? spans.begin("core::Flow::run", -1, op)
                                       : -1;
      const double t0 = now_us();
      const gap::core::FlowResult r = s.flow->run(c.aig, c.m);
      const double dt = now_us() - t0;
      spans.end(span);
      if (best[idx] < 0.0 || dt < best[idx]) best[idx] = dt;
      (traced ? traced_us : untraced_us).push_back(dt);
      if (traced) {
        accumulate(work, Probe::delta(before, probe.read()));
        ++traced_flows;
        double staged = 0.0;
        for (const gap::core::StageReport& st : r.report.stages) {
          for (int k = 0; k < 6; ++k)
            if (st.name == kStages[k]) stage_ms[k] += st.wall_ms;
          staged += st.wall_ms;
        }
        outside_ms += dt * 1e-3 - staged;
      }

      // Output checks (outside the timed call).
      const std::int64_t check = traced ? spans.begin("netlist::verify", -1, op)
                                        : -1;
      const std::string why =
          check_flow(r, idx, first, pinned, expected, c.key);
      spans.end(check);
      if (!why.empty()) out.fail(c.key + ": " + why);
    }
    if (elapsed() - last_setup_us >= kSetupEveryUs) {
      last_setup_us = elapsed();
      const double t0 = now_us();
      (void)build_setup(args.seed);
      const double dt = now_us() - t0;
      setup_s.push_back(dt * 1e-6);
      paused_us += dt;
    }
    if (args.max_ops == 0 && elapsed() >= budget_us) done = true;
  }

  std::vector<double> bests;
  for (double b : best)
    if (b >= 0.0) bests.push_back(b);
  Latency lat;
  lat.p50_us = median(bests);
  lat.tail = tail_latency(bests);
  lat.samples = bests.size();
  double sum_us = 0.0;
  for (double b : bests) sum_us += b;
  lat.ops_per_s = ratio(static_cast<double>(bests.size()), sum_us * 1e-6);
  add_end_to_end(out, lat, setup_s);
  if (!args.trace) return out;

  const double flows = static_cast<double>(traced_flows);
  for (int k = 0; k < 6; ++k)
    out.set(std::string("core.stage.") + kStages[k] + "_ms",
            ratio(stage_ms[k], flows));
  out.set("core.flow_self_ms", ratio(outside_ms, flows));
  out.set("core.flows", flows);
  out.set("synth.gates_mapped", ratio(work[Probe::kGatesMapped], flows));
  const double sa = work[Probe::kSaAccepted] + work[Probe::kSaRejected];
  out.set("place.sa_moves", ratio(sa, flows));
  out.set("place.accept_ratio", ratio(work[Probe::kSaAccepted], sa));
  const double tilos =
      work[Probe::kTilosAccepted] + work[Probe::kTilosRejected];
  out.set("sizing.tilos_moves", ratio(tilos, flows));
  out.set("sizing.accept_ratio", ratio(work[Probe::kTilosAccepted], tilos));
  out.set("sta.arrival_passes_per_flow",
          ratio(work[Probe::kArrivalPasses], flows));
  const double sweeps = work[Probe::kPooledSweeps] + work[Probe::kSerialSweeps];
  out.set("sta.sweeps", sweeps);
  out.set("sta.pooled_sweep_share", ratio(work[Probe::kPooledSweeps], sweeps));
  const double traced_p50 = median(traced_us);
  out.set("trace.op_us_p50", traced_p50);
  out.set("trace.overhead_us",
          untraced_us.empty() ? 0.0 : traced_p50 - median(untraced_us));

  std::cerr << "perfbench: per flow (mean of " << traced_flows << "):";
  for (int k = 0; k < 6; ++k)
    std::cerr << ' ' << kStages[k] << '=' << ratio(stage_ms[k], flows)
              << "ms";
  std::cerr << " outside stages=" << ratio(outside_ms, flows) << "ms\n"
            << "perfbench: place.accept_ratio base " << sa
            << " SA moves; sizing.accept_ratio base " << tilos
            << " TILOS moves; sta.pooled_sweep_share base " << sweeps
            << " sweeps\n";
  const std::string path = args.out_dir + "/trace-flow_sweep.json";
  if (!spans.write(path, ""))
    std::cerr << "perfbench: could not write " << path << '\n';
  return out;
}

}  // namespace perfbench
