/// \file soa_graph_test.cpp
/// Oracle + structural suite for the flat SoA timing graph
/// (sta/compact_graph.hpp), run under `ctest -L soa`. Three concerns:
///
///  1. **Agreement with an independent STA.** Every batch query (analyze,
///     net_arrivals, net_slacks, top_critical_paths) and a resident
///     IncrementalTimer after a randomized edit script, and again after
///     TILOS has sized through it, must return the bytes a naive textbook
///     STA (sta_oracle.hpp, which shares no code with src/sta) computes,
///     on every registry design at corner factors 1.0 and 1.15, with and
///     without optimal repeaters. Monte Carlo STA over one shared graph
///     must equal per-sample sta::analyze calls.
///
///  2. **Construction round-trips.** For every designs::registry entry:
///     node/edge/port counts match the netlist, ids are positional and
///     stable across rebuilds, the levelization is a valid wavefront
///     schedule, and rebuild-after-edit lands on the same bytes as a
///     fresh build from the edited netlist.
///
///  3. **Staleness bookkeeping.** built_version() tracks structural
///     (re)builds of Netlist::version(); value patches refresh in place.
///
///  4. **One load formula.** Netlist::net_load and kern::net_load are two
///     copies of one expression; they must agree bit for bit on every net
///     of every flow-implemented registry design, so lint (which reads
///     the netlist) and STA (which reads the graph) cannot disagree about
///     a load.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "netlist/sweep.hpp"
#include "sizing/tilos.hpp"
#include "sta/compact_graph.hpp"
#include "sta/incremental.hpp"
#include "sta/kernels.hpp"
#include "sta/statistical.hpp"
#include "sta/sta.hpp"
#include "sta_oracle.hpp"
#include "tech/technology.hpp"
#include "timer_fixtures.hpp"

namespace gap {
namespace {

using netlist::Netlist;
using sta::CompactGraph;
using sta::IncrementalTimer;

/// Variant 0: corner 1.0 with plain RC wires; variant 1: corner 1.15 with
/// optimal repeaters on long nets.
[[nodiscard]] sta::StaOptions options_variant(int v) {
  sta::StaOptions opt;
  opt.optimal_repeaters = v == 1;
  opt.corner_delay_factor = v == 1 ? 1.15 : 1.0;
  return opt;
}

[[nodiscard]] oracle::Options oracle_options(const sta::StaOptions& opt) {
  oracle::Options o;
  o.corner = opt.corner_delay_factor;
  o.skew_fraction = opt.clock.skew_fraction;
  o.extra_skew_tau = opt.clock.extra_skew_tau;
  o.repeaters = opt.optimal_repeaters;
  return o;
}

[[nodiscard]] bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bytes_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
      << what << " differ from the oracle";
}

/// What an engine answers for one netlist: the timing summary, arrivals,
/// slacks at the reported min period, and the top-5 endpoint paths.
struct Answers {
  sta::TimingResult timing;
  std::vector<double> arrivals;
  std::vector<double> slacks;
  std::vector<sta::CriticalPath> top;
};

/// Every answer equals, bit for bit, what the oracle computes on `nl`.
void expect_matches_oracle(const Netlist& nl, const sta::StaOptions& opt,
                           const Answers& got) {
  oracle::Sta o(nl, oracle_options(opt));
  const std::vector<oracle::Path> eps = o.endpoints();
  ASSERT_FALSE(eps.empty());
  const double period = o.period_tau(eps[0].path_tau);
  EXPECT_TRUE(same_bits(got.timing.worst_path_tau, eps[0].path_tau));
  EXPECT_TRUE(same_bits(got.timing.min_period_tau, period));
  EXPECT_TRUE(same_bits(got.timing.min_period_ps,
                        nl.lib().technology().tau_to_ps(period)));
  EXPECT_EQ(got.timing.num_endpoints, eps.size());
  EXPECT_EQ(got.timing.critical_path, eps[0].insts);
  expect_bytes_equal(got.timing.critical_path_arrival_tau,
                     eps[0].arrivals_tau, "critical path arrivals");

  std::vector<double> arrivals;
  for (NetId n : nl.all_nets()) arrivals.push_back(o.arrival(n));
  expect_bytes_equal(got.arrivals, arrivals, "arrivals");
  expect_bytes_equal(got.slacks, o.slacks(period), "slacks");

  ASSERT_EQ(got.top.size(), std::min<std::size_t>(5, eps.size()));
  for (std::size_t p = 0; p < got.top.size(); ++p) {
    const sta::CriticalPath& a = got.top[p];
    const oracle::Path& b = eps[p];
    EXPECT_EQ(a.endpoint_net, b.net) << p;
    EXPECT_EQ(a.endpoint.kind, b.sink.kind) << p;
    EXPECT_EQ(a.endpoint.inst, b.sink.inst) << p;
    EXPECT_EQ(a.endpoint.port, b.sink.port) << p;
    EXPECT_TRUE(same_bits(a.path_tau, b.path_tau)) << p;
    ASSERT_EQ(a.nodes.size(), b.insts.size()) << p;
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].inst, b.insts[i]) << p << ":" << i;
      EXPECT_EQ(a.nodes[i].input_net, b.input_nets[i]) << p << ":" << i;
      EXPECT_TRUE(same_bits(a.nodes[i].arrival_tau, b.arrivals_tau[i]))
          << p << ":" << i;
    }
  }
}

class SoaGraph : public ::testing::Test {
 protected:
  SoaGraph() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}
  library::CellLibrary lib_;
};

// --- 1. agreement with the oracle -------------------------------------------

/// Every batch query, over every registry design, at both corner factors;
/// the 1.15 variant also takes the optimal-repeater branch, which must
/// change at least one design's worst path for the check to mean much.
TEST_F(SoaGraph, BatchQueriesMatchOracle) {
  bool repeaters_bite = false;
  for (const std::string& name : designs::design_names()) {
    SCOPED_TRACE(name);
    const Netlist nl = placed_design(name, lib_);
    for (int v : {0, 1}) {
      SCOPED_TRACE(v);
      const sta::StaOptions opt = options_variant(v);
      const sta::TimingResult t = sta::analyze(nl, opt);
      expect_matches_oracle(
          nl, opt,
          {t, sta::net_arrivals(nl, opt),
           sta::net_slacks(nl, opt, t.min_period_tau),
           sta::top_critical_paths(nl, opt, 5)});
      if (HasFatalFailure()) return;
    }
    sta::StaOptions plain = options_variant(1);
    plain.optimal_repeaters = false;
    repeaters_bite |=
        !same_bits(sta::analyze(nl, plain).worst_path_tau,
                   sta::analyze(nl, options_variant(1)).worst_path_tau);
  }
  EXPECT_TRUE(repeaters_bite);
}

/// Monte Carlo signoff reuses one shared graph across samples; every
/// sampled period (so every quantile) must be the bytes a per-sample
/// sta::analyze produces with the factors regenerated from the same
/// Rng::stream(seed, s), at any thread count.
TEST_F(SoaGraph, SharedGraphMonteCarloEqualsPerSampleAnalysis) {
  const Netlist nl = placed_design("mac8", lib_);
  sta::McStaOptions mc;
  mc.base = options_variant(1);
  mc.samples = 32;
  mc.sigma_die = 0.05;
  SampleStats want;
  for (int s = 0; s < mc.samples; ++s) {
    Rng rng = Rng::stream(mc.seed, static_cast<std::uint64_t>(s));
    const double die = std::exp(mc.sigma_die * rng.normal());
    std::vector<double> factors(nl.num_instances());
    for (double& f : factors) f = die * std::exp(mc.sigma_gate * rng.normal());
    sta::StaOptions opt = mc.base;
    opt.instance_delay_factors = &factors;
    want.add(sta::analyze(nl, opt).min_period_tau);
  }
  const double nominal = sta::analyze(nl, mc.base).min_period_tau;
  for (int threads : {1, 4}) {
    mc.threads = threads;
    const sta::McStaResult got = sta::monte_carlo_sta(nl, mc);
    EXPECT_TRUE(same_bits(got.nominal_period_tau, nominal));
    expect_bytes_equal(got.period_tau.samples(), want.samples(),
                       "MC periods");
    for (double q : {0.05, 0.5, 0.95})
      EXPECT_TRUE(same_bits(got.period_tau.quantile(q), want.quantile(q)))
          << "quantile " << q << " at " << threads << " threads";
  }
}

// --- 2. construction round-trips --------------------------------------------

/// Counts, per-element values, and adjacency all round-trip the netlist,
/// for every registry entry.
TEST_F(SoaGraph, ConstructionRoundTripsEveryRegistryDesign) {
  for (const std::string& name : designs::design_names()) {
    const Netlist nl = placed_design(name, lib_);
    const CompactGraph g(nl);

    EXPECT_EQ(g.num_nets(), nl.num_nets()) << name;
    EXPECT_EQ(g.num_instances(), nl.num_instances()) << name;
    EXPECT_EQ(g.num_ports(), nl.num_ports()) << name;

    std::size_t pins = 0;
    for (InstanceId id : nl.all_instances()) {
      const netlist::Instance& inst = nl.instance(id);
      pins += inst.inputs.size();
      EXPECT_EQ(g.output(id), inst.output);
      EXPECT_EQ(g.is_sequential(id), nl.is_sequential(id));
      // Value arrays hold the exact bytes the Netlist accessors derive.
      const double want_drive = nl.drive_of(id);
      const double got_drive = g.drive(id);
      const double want_cap = nl.pin_cap(id);
      const double got_cap = g.pin_cap(id);
      EXPECT_EQ(std::memcmp(&got_drive, &want_drive, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&got_cap, &want_cap, sizeof(double)), 0);
      const auto in = g.inputs(id);
      ASSERT_EQ(in.size(), inst.inputs.size());
      for (std::size_t p = 0; p < in.size(); ++p)
        EXPECT_EQ(in[p], inst.inputs[p]) << name << " pin order";
    }
    EXPECT_EQ(g.num_edges(), pins) << name;

    for (NetId n : nl.all_nets()) {
      const netlist::Net& net = nl.net(n);
      EXPECT_EQ(g.driver(n).kind, net.driver.kind);
      const auto sinks = g.sinks(n);
      ASSERT_EQ(sinks.size(), net.sinks.size());
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        EXPECT_EQ(sinks[s].kind, net.sinks[s].kind) << name << " sink order";
        EXPECT_EQ(sinks[s].inst, net.sinks[s].inst);
      }
    }
    if (HasFatalFailure()) return;
  }
}

/// The schedule is a valid wavefront: order() is a topological order,
/// every combinational instance sits strictly above the combinational
/// drivers of its instance-driven inputs, sequentials sit at level 0, and
/// the wave CSR partitions the instances in ascending id per level.
TEST_F(SoaGraph, LevelizationIsValidTopologicalOrder) {
  for (const std::string& name : designs::design_names()) {
    const Netlist nl = placed_design(name, lib_);
    const CompactGraph g(nl);
    const std::vector<int>& level = g.levels();

    ASSERT_EQ(g.order().size(), nl.num_instances());
    std::vector<std::size_t> pos(nl.num_instances());
    std::vector<char> seen(nl.num_instances(), 0);
    for (std::size_t i = 0; i < g.order().size(); ++i) {
      const std::size_t idx = g.order()[i].index();
      EXPECT_EQ(seen[idx], 0) << name << ": duplicate in order()";
      seen[idx] = 1;
      pos[idx] = i;
    }

    for (InstanceId id : nl.all_instances()) {
      if (nl.is_sequential(id)) {
        EXPECT_EQ(level[id.index()], 0) << name;
        continue;
      }
      for (NetId in : nl.instance(id).inputs) {
        const netlist::NetDriver& d = nl.net(in).driver;
        if (d.kind != netlist::NetDriver::Kind::kInstance) continue;
        // Topological: combinational drivers precede their readers.
        if (!nl.is_sequential(d.inst))
          EXPECT_LT(pos[d.inst.index()], pos[id.index()]) << name;
        // Wavefront: a level reads only arrivals from strictly below it.
        const int dl = nl.is_sequential(d.inst) ? 0 : level[d.inst.index()];
        EXPECT_LT(dl, level[id.index()]) << name;
      }
    }

    std::size_t waved = 0;
    for (int l = 0; l < g.num_levels(); ++l) {
      const auto wave = g.wave(l);
      waved += wave.size();
      for (std::size_t i = 0; i < wave.size(); ++i) {
        EXPECT_EQ(level[wave[i].index()], l) << name;
        if (i > 0) EXPECT_LT(wave[i - 1].index(), wave[i].index()) << name;
      }
    }
    EXPECT_EQ(waved, nl.num_instances()) << name;
    if (HasFatalFailure()) return;
  }
}

/// Two builds from the same netlist agree element for element, and a
/// rebuild after an edit lands on the same bytes as a fresh build from
/// the edited netlist — ids are positional, so they never shift.
TEST_F(SoaGraph, StableIdsAndRebuildAfterEditEqualsFreshBuild) {
  Netlist nl = placed_design("alu16", lib_);
  CompactGraph a(nl);
  const CompactGraph b(nl);
  EXPECT_EQ(a.order(), b.order());
  EXPECT_EQ(a.levels(), b.levels());
  EXPECT_EQ(a.num_edges(), b.num_edges());

  // A value edit patched in place equals the fresh-build value array.
  const InstanceId target(0);
  const library::Cell& c = nl.cell_of(target);
  const auto& ladder = nl.lib().cells_of(c.func, c.family);
  nl.replace_cell(target, ladder.back());
  a.refresh_instance(nl, target);
  const CompactGraph after_value(nl);
  const double want_drive = after_value.drive(target);
  const double got_drive = a.drive(target);
  EXPECT_EQ(std::memcmp(&got_drive, &want_drive, sizeof(double)), 0);

  // A structural edit + rebuild_structure equals a fresh build. Rewire a
  // combinational input to a primary-input net: that can never create a
  // combinational cycle, so the raw netlist mutation stays well-formed.
  NetId pi_net;
  for (PortId p : nl.all_ports())
    if (nl.port(p).is_input) {
      pi_net = nl.port(p).net;
      break;
    }
  ASSERT_TRUE(pi_net.valid());
  InstanceId rewired;
  for (InstanceId id : nl.all_instances())
    if (!nl.is_sequential(id) && !nl.instance(id).inputs.empty()) {
      rewired = id;
      break;
    }
  ASSERT_TRUE(rewired.valid());
  nl.rewire_input(rewired, 0, pi_net);
  a.rebuild_structure(nl);
  const CompactGraph fresh(nl);
  EXPECT_EQ(a.order(), fresh.order());
  EXPECT_EQ(a.levels(), fresh.levels());
  EXPECT_EQ(a.built_version(), fresh.built_version());
  for (InstanceId id : nl.all_instances()) {
    const auto ga = a.inputs(id);
    const auto gf = fresh.inputs(id);
    ASSERT_EQ(ga.size(), gf.size());
    for (std::size_t p = 0; p < ga.size(); ++p) EXPECT_EQ(ga[p], gf[p]);
  }
  // Propagation over both graphs is byte-identical.
  const sta::StaOptions opt = options_variant(0);
  sta::detail::ArrivalState sa, sf;
  sta::compact_propagate(a, opt, sa);
  sta::compact_propagate(fresh, opt, sf);
  expect_bytes_equal(sa.arrival, sf.arrival, "arrivals after rebuild");
}

// --- 3. staleness bookkeeping -----------------------------------------------

/// built_version() records the netlist version at (re)build time; value
/// patches deliberately do not advance it.
TEST_F(SoaGraph, BuiltVersionTracksStructuralRebuilds) {
  Netlist nl = placed_design("alu16", lib_);
  CompactGraph g(nl);
  EXPECT_EQ(g.built_version(), nl.version());

  const InstanceId target(0);
  const library::Cell& c = nl.cell_of(target);
  nl.replace_cell(target, nl.lib().cells_of(c.func, c.family).front());
  EXPECT_LT(g.built_version(), nl.version());  // value patch: not a rebuild
  g.refresh_instance(nl, target);
  EXPECT_LT(g.built_version(), nl.version());
  g.rebuild_structure(nl);
  EXPECT_EQ(g.built_version(), nl.version());
}

// --- 4. one load formula -----------------------------------------------------

/// Netlist::net_load and kern::net_load agree bit for bit on every net,
/// after the full flow under every methodology (routed lengths, sized and
/// continuous drives, pipeline registers), and again on a sweep-point copy
/// whose length scale and extra cap exercise the wire and extra_cap_units
/// terms.
TEST(SoaGraphLoad, NetlistAndKernelLoadsAgreeAfterFlow) {
  const core::Flow flow(tech::asic_025um());
  netlist::SweepPoint point;
  point.wire_length_scale = 1.7;
  point.extra_cap_units = 0.75;
  std::size_t wired = 0;
  for (const std::string& m_name : core::methodology_names()) {
    const core::Methodology m = *core::methodology_by_name(m_name);
    for (const std::string& name : designs::design_names()) {
      const core::FlowResult r =
          flow.run(designs::make_design(name, m.datapath), m);
      ASSERT_TRUE(r.ok()) << name << " " << m_name;
      for (const Netlist& nl :
           {*r.nl, netlist::apply_sweep_point(*r.nl, point)}) {
        const CompactGraph g(nl);
        for (NetId n : nl.all_nets()) {
          ASSERT_TRUE(same_bits(nl.net_load(n), sta::kern::net_load(g, n)))
              << name << " " << m_name << " net " << nl.net(n).name;
          if (nl.net(n).length_um > 0.0) ++wired;
        }
      }
    }
  }
  EXPECT_GT(wired, 0u);  // the wire term was exercised, not just pins
}

// --- incremental timer vs the oracle -----------------------------------------

/// A resident timer driven by a randomized edit script (swaps, resizes,
/// rewires, clock changes) on every registry design answers every query
/// with the bytes the oracle computes on the edited netlist — and so it
/// does after TILOS has sized that netlist through the same timer
/// (discrete ladder moves on variant 0, continuous drive steps on
/// variant 1), which is how the flow's size stage and sign-off run.
/// Lane counts alternate 1/4; incremental_sta_test covers thread-count
/// invariance.
TEST_F(SoaGraph, IncrementalTimerMatchesOracleAfterEdits) {
  constexpr std::uint64_t kSeed = 0x50A0ull;
  int script = 0;
  int applied = 0;
  int sized_moves[2] = {0, 0};
  for (const std::string& name : designs::design_names()) {
    SCOPED_TRACE(name);
    const Netlist base = placed_design(name, lib_);
    for (int v : {0, 1}) {
      Netlist nl = base;
      IncrementalTimer timer(nl, options_variant(v), v == 0 ? 1 : 4);
      const auto expect_timer_matches_oracle = [&] {
        const sta::TimingResult t = timer.timing();
        expect_matches_oracle(nl, timer.options(),
                              {t, timer.arrivals(),
                               timer.slacks(t.min_period_tau),
                               timer.top_paths(5)});
        return t;
      };
      // Build first, so the script's edits take the dirty-cone path
      // rather than folding into the first query's full rebuild.
      (void)timer.timing();
      Rng rng = Rng::stream(kSeed, static_cast<std::uint64_t>(script++));
      for (int e = 0; e < 12; ++e)
        applied += timer.apply(random_edit(rng, nl)).ok() ? 1 : 0;
      expect_timer_matches_oracle();
      if (HasFatalFailure()) return;

      // Budgets that reach rejected (undone) moves in both regimes:
      // discrete upsizing rarely misses early, while most continuous
      // steps are tried and undone.
      sizing::SizingOptions sopt;
      sopt.continuous = v == 1;
      sopt.max_moves = v == 0 ? 60 : 2;
      const sizing::SizingResult sized = sizing::tilos_size(timer, sopt);
      sized_moves[v] += sized.moves;
      const sta::TimingResult t = expect_timer_matches_oracle();
      if (HasFatalFailure()) return;
      EXPECT_TRUE(same_bits(sized.final_period_tau, t.min_period_tau))
          << "variant " << v;
    }
  }
  EXPECT_GT(applied, script * 12 / 2);
  // Both sizing regimes made moves, so the post-sizing checks bite.
  EXPECT_GT(sized_moves[0], 0);
  EXPECT_GT(sized_moves[1], 0);
}

}  // namespace
}  // namespace gap
