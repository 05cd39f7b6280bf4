#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/gap.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "netlist/simulate.hpp"
#include "sta/sta.hpp"
#include "synth/mapper.hpp"

namespace gap::core {
namespace {

/// End-to-end integration across every registry design: the full flow
/// must produce a valid, analyzable implementation whatever the input.
class AllDesignsFlow : public ::testing::TestWithParam<std::string> {
 protected:
  AllDesignsFlow() : flow_(tech::asic_025um()) {}
  Flow flow_;
};

TEST_P(AllDesignsFlow, ReferenceFlowSucceeds) {
  const auto design =
      designs::make_design(GetParam(), designs::DatapathStyle::kSynthesized);
  const FlowResult r = flow_.run(design, reference_methodology());
  ASSERT_NE(r.nl, nullptr);
  EXPECT_TRUE(netlist::verify(*r.nl).ok());
  EXPECT_GT(r.freq_mhz, 10.0);
  EXPECT_LT(r.freq_mhz, 20000.0);
  EXPECT_GT(r.area_um2, 0.0);
  EXPECT_GT(r.timing.num_endpoints, 0u);
}

TEST_P(AllDesignsFlow, PipelinedFlowStillFunctionallyCorrect) {
  const auto design =
      designs::make_design(GetParam(), designs::DatapathStyle::kSynthesized);
  Methodology m = reference_methodology();
  m.pipeline_stages = 3;
  m.balanced_stages = true;
  const FlowResult r = flow_.run(design, m);

  // Transparent-register simulation equals the source logic network.
  Rng rng(0x1517);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> pi(design.num_pis());
    for (auto& v : pi) v = rng.next_u64();
    EXPECT_EQ(design.simulate(pi), netlist::simulate(*r.nl, pi))
        << GetParam();
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Sign-off reads the size stage's resident timer; under every
/// methodology it must answer the bits a from-scratch sta::analyze of the
/// final netlist gives, with the flow's sign-off options.
TEST_P(AllDesignsFlow, SignoffIsAFreshAnalysis) {
  for (const std::string& m_name : methodology_names()) {
    const Methodology m = *methodology_by_name(m_name);
    const FlowResult r =
        flow_.run(designs::make_design(GetParam(), m.datapath), m);
    ASSERT_TRUE(r.ok()) << m_name;
    const sta::TimingResult fresh =
        sta::analyze(*r.nl, signoff_sta_options(m));
    EXPECT_EQ(bits(r.timing.worst_path_tau), bits(fresh.worst_path_tau))
        << m_name;
    EXPECT_EQ(bits(r.timing.min_period_tau), bits(fresh.min_period_tau))
        << m_name;
    EXPECT_EQ(bits(r.timing.min_period_ps), bits(fresh.min_period_ps))
        << m_name;
    EXPECT_EQ(bits(r.timing.min_period_fo4), bits(fresh.min_period_fo4))
        << m_name;
    EXPECT_EQ(r.timing.critical_path, fresh.critical_path) << m_name;
    ASSERT_EQ(r.timing.critical_path_arrival_tau.size(),
              fresh.critical_path_arrival_tau.size())
        << m_name;
    for (std::size_t i = 0; i < fresh.critical_path_arrival_tau.size(); ++i)
      EXPECT_EQ(bits(r.timing.critical_path_arrival_tau[i]),
                bits(fresh.critical_path_arrival_tau[i]))
          << m_name << " node " << i;
    EXPECT_EQ(r.timing.num_endpoints, fresh.num_endpoints) << m_name;
    EXPECT_EQ(bits(r.freq_mhz), bits(r.timing.frequency_mhz())) << m_name;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllDesignsFlow,
                         ::testing::ValuesIn(designs::design_names()),
                         [](const auto& info) { return info.param; });

TEST(Determinism, FlowIsBitReproducible) {
  const auto design =
      designs::make_design("mac8", designs::DatapathStyle::kSynthesized);
  Flow flow_a(tech::asic_025um(), /*seed=*/7);
  Flow flow_b(tech::asic_025um(), /*seed=*/7);
  Methodology m = good_asic();
  const FlowResult a = flow_a.run(design, m);
  const FlowResult b = flow_b.run(design, m);
  EXPECT_DOUBLE_EQ(a.freq_mhz, b.freq_mhz);
  EXPECT_DOUBLE_EQ(a.area_um2, b.area_um2);
  EXPECT_EQ(a.nl->num_instances(), b.nl->num_instances());
  EXPECT_EQ(a.pipeline_registers, b.pipeline_registers);
}

TEST(Determinism, SeedChangesPlacementNotFunction) {
  const auto design =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  Flow flow_a(tech::asic_025um(), 1);
  Flow flow_b(tech::asic_025um(), 99);
  const FlowResult a = flow_a.run(design, reference_methodology());
  const FlowResult b = flow_b.run(design, reference_methodology());
  // Same structure either way.
  EXPECT_EQ(a.nl->num_ports(), b.nl->num_ports());
  // Frequencies differ at most mildly (placement noise).
  EXPECT_NEAR(a.freq_mhz / b.freq_mhz, 1.0, 0.25);
}

TEST(Determinism, DecompositionReproducible) {
  Flow flow(tech::asic_025um());
  auto factory = [](designs::DatapathStyle s) {
    return designs::make_design("alu16", s);
  };
  const GapReport a =
      decompose(flow, factory, reference_methodology(), paper_factors());
  const GapReport b =
      decompose(flow, factory, reference_methodology(), paper_factors());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_DOUBLE_EQ(a.rows[i].individual, b.rows[i].individual);
  EXPECT_DOUBLE_EQ(a.total_ratio, b.total_ratio);
}

TEST(ParameterizedLibraries, BuildAndMapAcrossRecipes) {
  const tech::Technology t = tech::asic_025um();
  for (int per_octave : {1, 2, 4}) {
    for (bool dual : {false, true}) {
      library::LibraryRecipe recipe;
      recipe.drives_per_octave = per_octave;
      recipe.dual_polarity = dual;
      const auto lib = library::make_parameterized_library(t, recipe);
      EXPECT_GT(lib.size(), 20u);
      const auto aig = designs::make_design(
          "alu16", designs::DatapathStyle::kSynthesized);
      const auto nl =
          synth::map_to_netlist(aig, lib, synth::MapOptions{}, "d");
      EXPECT_TRUE(netlist::verify(nl).ok());
    }
  }
}

}  // namespace
}  // namespace gap::core
