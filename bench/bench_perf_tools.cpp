/// \file bench_perf_tools.cpp
/// Tool-performance microbenchmarks (google-benchmark): throughput of the
/// EDA engines themselves — STA, technology mapping, placement, sizing —
/// so regressions in the reproduction's own code are visible.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "datapath/multipliers.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/retiming.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "sta/compact_graph.hpp"
#include "sta/incremental.hpp"
#include "sta/kernels.hpp"
#include "sta/statistical.hpp"
#include "sizing/tilos.hpp"
#include "sta/sta.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace {

using namespace gap;

const library::CellLibrary& rich_lib() {
  static const library::CellLibrary lib =
      library::make_rich_asic_library(tech::asic_025um());
  return lib;
}

void BM_AigConstruction(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto aig = datapath::make_multiplier_aig(datapath::MultiplierKind::kWallace,
                                             width);
    benchmark::DoNotOptimize(aig.num_gates());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AigConstruction)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_TechnologyMapping(benchmark::State& state) {
  const auto aig = designs::make_design(
      state.range(0) == 0 ? "alu16" : "alu32",
      designs::DatapathStyle::kSynthesized);
  for (auto _ : state) {
    auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
    benchmark::DoNotOptimize(nl.num_instances());
  }
}
BENCHMARK(BM_TechnologyMapping)->Arg(0)->Arg(1);

// One-shot compact analysis: the per-call CompactGraph build is included,
// so this measures the cold path a single batch analyze() pays.
void BM_StaFullAnalysisCompact(benchmark::State& state) {
  const auto aig =
      designs::make_design("alu32", designs::DatapathStyle::kSynthesized);
  const auto nl =
      synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  const sta::StaOptions opt{};
  for (auto _ : state) {
    const auto r = sta::analyze(nl, opt);
    benchmark::DoNotOptimize(r.min_period_tau);
  }
  state.counters["instances"] = static_cast<double>(nl.num_instances());
}
BENCHMARK(BM_StaFullAnalysisCompact);

// Incremental-vs-full re-time after a single-gate edit — the inner loop
// of any sizing/ECO tool. mac16 is the largest registry design when
// mapped. The victim is the last mapped gate (it drives a primary
// output, so its fanout cone — the work an incremental timer must redo
// — is a handful of nodes, which is where sizing fixes land; a gate at
// the design's midpoint fans out to ~80% of the netlist and would
// measure cone size, not engine overhead). Each iteration toggles the
// victim's drive override (a real edit every time, never a cached
// no-op) and asks for the new min period. The two benchmarks answer
// byte-identically (the contract tests/incremental_sta_test.cpp
// enforces); only the work differs.
void BM_StaFullRetimeSingleEdit(benchmark::State& state) {
  const auto aig =
      designs::make_design("mac16", designs::DatapathStyle::kSynthesized);
  auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  const sta::StaOptions opt{};
  const InstanceId victim{
      static_cast<std::uint32_t>(nl.num_instances() - 1)};
  double drive = 4.0;
  for (auto _ : state) {
    nl.instance(victim).drive_override = drive;
    const auto r = sta::analyze(nl, opt);
    benchmark::DoNotOptimize(r.min_period_tau);
    drive = drive == 4.0 ? 8.0 : 4.0;
  }
  state.counters["instances"] = static_cast<double>(nl.num_instances());
}
BENCHMARK(BM_StaFullRetimeSingleEdit);

// The same edit-then-full-reanalysis loop on a *resident* compact graph:
// the structure and wavefront schedule are built once, each iteration
// patches the victim's values in place and re-propagates everything.
// Semantically identical work to BM_StaFullRetimeSingleEdit (a complete
// arrival pass per edit, byte-identical min period) — the gap between
// the two series is the amortized graph build. The /1 vs /4 variants
// differ only in ThreadPool lanes over the wavefronts; answers are
// bit-identical.
void BM_StaCompactResidentReanalysis(benchmark::State& state) {
  const auto aig =
      designs::make_design("mac16", designs::DatapathStyle::kSynthesized);
  auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  const sta::StaOptions opt{};
  sta::CompactGraph g(nl);
  common::ThreadPool pool(static_cast<int>(state.range(0)));
  common::ThreadPool* lanes = pool.size() > 1 ? &pool : nullptr;
  const InstanceId victim{
      static_cast<std::uint32_t>(nl.num_instances() - 1)};
  sta::detail::ArrivalState st;
  double drive = 4.0;
  for (auto _ : state) {
    nl.instance(victim).drive_override = drive;
    g.refresh_instance(nl, victim);
    sta::compact_propagate(g, opt, st, lanes);
    const auto e = sta::kern::worst_endpoint_from_state(g, opt, st);
    const auto r = sta::kern::timing_result_from_state(g, opt, st, e);
    benchmark::DoNotOptimize(r.min_period_tau);
    drive = drive == 4.0 ? 8.0 : 4.0;
  }
  state.counters["instances"] = static_cast<double>(nl.num_instances());
}
BENCHMARK(BM_StaCompactResidentReanalysis)->Arg(1)->Arg(4);

// Dirty-cone re-propagation: the resident timer's wavefront flush
// re-times only the victim's fanout cone.
void BM_StaIncrementalRetimeSingleEditCompact(benchmark::State& state) {
  const auto aig =
      designs::make_design("mac16", designs::DatapathStyle::kSynthesized);
  auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  sta::IncrementalTimer timer(nl, sta::StaOptions{}, /*threads=*/1);
  benchmark::DoNotOptimize(timer.timing().min_period_tau);  // warm build
  const InstanceId victim{
      static_cast<std::uint32_t>(nl.num_instances() - 1)};
  double drive = 4.0;
  for (auto _ : state) {
    const auto st = timer.apply(sta::Edit::set_drive(victim, drive));
    benchmark::DoNotOptimize(st.ok());
    const auto r = timer.timing();
    benchmark::DoNotOptimize(r.min_period_tau);
    drive = drive == 4.0 ? 8.0 : 4.0;
  }
  state.counters["instances"] = static_cast<double>(nl.num_instances());
}
BENCHMARK(BM_StaIncrementalRetimeSingleEditCompact);

void BM_Placement(benchmark::State& state) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  for (auto _ : state) {
    auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
    place::PlaceOptions opt;
    opt.sa_moves = static_cast<int>(state.range(0));
    const auto r = place::place(nl, opt);
    benchmark::DoNotOptimize(r.total_hpwl_um);
  }
}
BENCHMARK(BM_Placement)->Arg(1000)->Arg(10000);

void BM_TilosSizing(benchmark::State& state) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  for (auto _ : state) {
    auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
    sizing::initial_drive_assignment(nl);
    sizing::SizingOptions opt;
    opt.max_moves = 200;
    const auto r = sizing::tilos_size(nl, opt);
    benchmark::DoNotOptimize(r.final_period_tau);
  }
}
BENCHMARK(BM_TilosSizing);

void BM_GlobalRouting(benchmark::State& state) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  auto nl = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  place::PlaceOptions popt;
  popt.sa_moves = 2000;
  place::place(nl, popt);
  for (auto _ : state) {
    const auto r = route::route(nl, route::RouteOptions{});
    benchmark::DoNotOptimize(r.total_routed_um);
  }
}
BENCHMARK(BM_GlobalRouting);

void BM_Retiming(benchmark::State& state) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  auto comb = synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  pipeline::PipelineOptions popt;
  popt.stages = 4;
  popt.balanced = false;
  const auto piped = pipeline::pipeline_insert(comb, popt);
  for (auto _ : state) {
    const auto r = pipeline::retime_min_period(piped.nl);
    benchmark::DoNotOptimize(r.final_period_tau);
  }
}
BENCHMARK(BM_Retiming);

// Monte Carlo STA: one shared graph across all samples (statistical.cpp),
// so the per-sample cost is propagation only.
void BM_MonteCarloStaCompact(benchmark::State& state) {
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const auto nl =
      synth::map_to_netlist(aig, rich_lib(), synth::MapOptions{}, "m");
  for (auto _ : state) {
    sta::McStaOptions opt;
    opt.samples = static_cast<int>(state.range(0));
    const auto r = sta::monte_carlo_sta(nl, opt);
    benchmark::DoNotOptimize(r.nominal_period_tau);
  }
}
BENCHMARK(BM_MonteCarloStaCompact)->Arg(20)->Arg(100);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): GAP_BENCH_QUICK=1 caps the
// per-benchmark measuring time so the bench gate (tools/check.sh bench)
// finishes in minutes; an explicit --benchmark_min_time on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static std::string quick_min_time = "--benchmark_min_time=0.05";
  bool user_min_time = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0)
      user_min_time = true;
  if (std::getenv("GAP_BENCH_QUICK") != nullptr && !user_min_time)
    args.insert(args.begin() + 1, quick_min_time.data());

  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
