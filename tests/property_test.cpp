#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "datapath/adders.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "logic/transforms.hpp"
#include "netlist/checks.hpp"
#include "netlist/simulate.hpp"
#include "netlist/verilog.hpp"
#include "pipeline/pipeline.hpp"
#include "sizing/buffers.hpp"
#include "sizing/tilos.hpp"
#include "sta/sta.hpp"
#include "sta/statistical.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap {
namespace {

using library::CellLibrary;
using library::Family;
using library::Func;
using logic::Aig;
using logic::Lit;

/// Random AIG generator: `n_ops` random operations over a growing pool of
/// literals, mixing node kinds and complement edges; `n_po` outputs drawn
/// from the pool tail.
Aig random_aig(std::uint64_t seed, int n_pi, int n_ops, int n_po) {
  Rng rng(seed);
  Aig aig;
  std::vector<Lit> pool;
  for (int i = 0; i < n_pi; ++i) pool.push_back(aig.create_pi());

  auto pick = [&]() {
    Lit l = pool[rng.uniform_index(pool.size())];
    return rng.bernoulli(0.4) ? !l : l;
  };
  for (int i = 0; i < n_ops; ++i) {
    Lit r;
    switch (rng.uniform_index(5)) {
      case 0: r = aig.create_and(pick(), pick()); break;
      case 1: r = aig.create_or(pick(), pick()); break;
      case 2: r = aig.create_xor(pick(), pick()); break;
      case 3: r = aig.create_mux(pick(), pick(), pick()); break;
      default: r = aig.create_maj(pick(), pick(), pick()); break;
    }
    pool.push_back(r);
  }
  for (int i = 0; i < n_po; ++i) {
    // Bias towards late (deep) literals but keep some shallow ones.
    const std::size_t idx =
        pool.size() - 1 - rng.uniform_index(std::min<std::size_t>(pool.size(), 24));
    Lit po = pool[idx];
    if (rng.bernoulli(0.3)) po = !po;
    // Constant POs are not mappable; replace with a PI in that case.
    if (po.node() == 0) po = pool[0];
    aig.add_po(po);
  }
  return aig;
}

class RandomAigProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAigProperty, TransformsPreserveFunction) {
  const Aig aig = random_aig(GetParam(), 8, 120, 6);
  logic::ExpandOptions all;
  all.expand_xor = all.expand_mux = all.expand_maj = true;
  EXPECT_TRUE(logic::equivalent(aig, logic::expand_structural(aig, all)));
}

TEST_P(RandomAigProperty, MappingPreservesFunctionAcrossLibraries) {
  const Aig aig = random_aig(GetParam(), 8, 100, 5);
  const CellLibrary rich = library::make_rich_asic_library(tech::asic_025um());
  const CellLibrary poor = library::make_poor_asic_library(tech::asic_025um());
  const CellLibrary custom = library::make_custom_library(tech::asic_025um());
  Rng rng(GetParam() ^ 0xABCDEF);
  for (const CellLibrary* lib : {&rich, &poor, &custom}) {
    const auto nl = synth::map_to_netlist(aig, *lib, synth::MapOptions{}, "r");
    ASSERT_TRUE(netlist::verify(nl).ok()) << lib->name();
    for (int round = 0; round < 6; ++round) {
      std::vector<std::uint64_t> pi(aig.num_pis());
      for (auto& v : pi) v = rng.next_u64();
      EXPECT_EQ(aig.simulate(pi), netlist::simulate(nl, pi)) << lib->name();
    }
  }
}

TEST_P(RandomAigProperty, FullFlowInvariants) {
  // Map -> pipeline -> buffer -> size on a random network: the result
  // must stay structurally sound, functionally identical (transparent
  // registers), and timing-analyzable with positive period.
  const Aig aig = random_aig(GetParam(), 8, 140, 6);
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  auto comb = synth::map_to_netlist(aig, lib, synth::MapOptions{}, "r");

  pipeline::PipelineOptions popt;
  popt.stages = 3;
  popt.balanced = true;
  auto nl = pipeline::pipeline_insert(comb, popt).nl;
  sizing::initial_drive_assignment(nl);
  sizing::insert_buffers(nl, 48.0);
  sizing::SizingOptions sopt;
  sopt.max_moves = 50;
  sizing::tilos_size(nl, sopt);

  EXPECT_TRUE(netlist::verify(nl).ok());
  const auto timing = sta::analyze(nl, sopt.sta);
  EXPECT_GT(timing.min_period_tau, 0.0);
  EXPECT_GT(timing.num_endpoints, 0u);

  Rng rng(GetParam() + 17);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> pi(aig.num_pis());
    for (auto& v : pi) v = rng.next_u64();
    EXPECT_EQ(aig.simulate(pi), netlist::simulate(nl, pi));
  }
}

TEST_P(RandomAigProperty, VerilogRoundTripOnRandomLogic) {
  const Aig aig = random_aig(GetParam(), 6, 80, 4);
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  const auto nl = synth::map_to_netlist(aig, lib, synth::MapOptions{}, "r");
  const auto back = netlist::read_verilog(netlist::to_verilog(nl), lib).value();
  Rng rng(GetParam() + 99);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> pi(aig.num_pis());
    for (auto& v : pi) v = rng.next_u64();
    EXPECT_EQ(netlist::simulate(nl, pi), netlist::simulate(back, pi));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAigProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class StaMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaMonotonicity, PeriodRespondsMonotonically) {
  const Aig aig = random_aig(GetParam(), 8, 120, 5);
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  const auto nl = synth::map_to_netlist(aig, lib, synth::MapOptions{}, "r");

  sta::StaOptions base;
  const double t0 = sta::analyze(nl, base).min_period_tau;

  // Slower corner -> longer period, exactly proportional.
  sta::StaOptions slow = base;
  slow.corner_delay_factor = 1.4;
  EXPECT_NEAR(sta::analyze(nl, slow).min_period_tau, 1.4 * t0, 1e-6);

  // More skew -> longer period.
  sta::StaOptions skewed = base;
  skewed.clock.skew_fraction = 0.2;
  EXPECT_GT(sta::analyze(nl, skewed).min_period_tau, t0);

  // Extra absolute skew -> longer period.
  sta::StaOptions jitter = base;
  jitter.clock.extra_skew_tau = 3.0;
  EXPECT_GT(sta::analyze(nl, jitter).min_period_tau, t0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaMonotonicity, ::testing::Values(7, 11, 19));

class McStaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McStaProperty, MedianNeverBelowNominalAtAnyThreadCount) {
  // Section 8.1.1's max-of-paths effect as an invariant: per-gate
  // lognormal factors have median 1, but the chip period is a max over
  // near-critical endpoints of sums of skewed factors, so the Monte
  // Carlo median can only sit at or above the nominal corner. The
  // invariant must hold — with bit-identical statistics — at every
  // thread count (the parallel layer's determinism contract).
  const Aig aig = random_aig(GetParam(), 8, 120, 5);
  const CellLibrary lib = library::make_rich_asic_library(tech::asic_025um());
  const auto nl = synth::map_to_netlist(aig, lib, synth::MapOptions{}, "r");

  sta::McStaOptions opt;
  opt.samples = 120;
  opt.sigma_gate = 0.10;
  opt.seed = GetParam();

  opt.threads = 1;
  const auto serial = sta::monte_carlo_sta(nl, opt);
  EXPECT_GE(serial.period_tau.quantile(0.5), serial.nominal_period_tau);
  EXPECT_GE(serial.mean_shift(), 0.0);

  opt.threads = 3;
  const auto parallel = sta::monte_carlo_sta(nl, opt);
  EXPECT_GE(parallel.period_tau.quantile(0.5), parallel.nominal_period_tau);
  EXPECT_EQ(serial.period_tau.samples(), parallel.period_tau.samples());
}

INSTANTIATE_TEST_SUITE_P(Seeds, McStaProperty,
                         ::testing::Values(3, 23, 43, 63, 83));

}  // namespace
}  // namespace gap
