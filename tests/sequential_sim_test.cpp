#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "datapath/adders.hpp"
#include "designs/crc.hpp"
#include "designs/fir.hpp"
#include "library/builders.hpp"
#include "netlist/sequential_sim.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/retiming.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap::netlist {
namespace {

using datapath::AdderKind;
using library::Family;
using library::Func;

class SeqSimTest : public ::testing::Test {
 protected:
  SeqSimTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}

  Netlist pipelined_adder(int width, int stages) {
    const auto aig = datapath::make_adder_aig(AdderKind::kRipple, width);
    auto comb = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "a");
    pipeline::PipelineOptions opt;
    opt.stages = stages;
    return pipeline::pipeline_insert(comb, opt).nl;
  }

  library::CellLibrary lib_;
};

TEST_F(SeqSimTest, ShiftRegisterDelaysByDepth) {
  Netlist nl("sr", &lib_);
  const PortId d = nl.add_input("d");
  const CellId dff = *lib_.smallest(Func::kDff, Family::kStatic);
  NetId prev = nl.port(d).net;
  for (int i = 0; i < 3; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_instance("f" + std::to_string(i), dff, {prev}, q);
    prev = q;
  }
  nl.add_output("q", prev);

  SequentialSimulator sim(nl);
  std::vector<std::uint64_t> sent;
  Rng rng(0x51);
  std::vector<std::uint64_t> got;
  for (int k = 0; k < 12; ++k) {
    sent.push_back(rng.next_u64());
    got.push_back(sim.step({sent.back()})[0]);
  }
  // Output at step k equals the input presented at step k-3.
  for (int k = 3; k < 12; ++k) EXPECT_EQ(got[k], sent[k - 3]) << k;
}

TEST_F(SeqSimTest, PipelineLatencyEqualsRankCount) {
  const int width = 8, stages = 3;
  auto nl = pipelined_adder(width, stages);
  const int ranks = stages + 1;  // input regs + internal + output regs
  SequentialSimulator sim(nl);

  Rng rng(0x99);
  std::vector<std::uint64_t> a_hist, b_hist, cin_hist;
  for (int k = 0; k < 24; ++k) {
    std::vector<std::uint64_t> pi;
    std::uint64_t a = rng.next_u64(), b = rng.next_u64(), cin = rng.next_u64();
    a_hist.push_back(a);
    b_hist.push_back(b);
    cin_hist.push_back(cin);
    for (int i = 0; i < width; ++i) pi.push_back((a >> i) & 1 ? ~0ull : 0ull);
    for (int i = 0; i < width; ++i) pi.push_back((b >> i) & 1 ? ~0ull : 0ull);
    pi.push_back(cin & 1 ? ~0ull : 0ull);
    const auto out = sim.step(pi);
    if (k < ranks) continue;  // pipeline warm-up
    const int src = k - ranks;
    const std::uint64_t expect = (a_hist[src] & 0xFF) + (b_hist[src] & 0xFF) +
                                 (cin_hist[src] & 1);
    std::uint64_t got = 0;
    for (int i = 0; i <= width; ++i)
      if (out[static_cast<std::size_t>(i)] & 1u) got |= 1ull << i;
    EXPECT_EQ(got, expect & 0x1FF) << "cycle " << k;
  }
}

TEST_F(SeqSimTest, RetimedPipelineIsCycleAccurate) {
  auto nl = pipelined_adder(8, 3);
  // Use an unbalanced variant so retiming actually moves registers.
  const auto aig = datapath::make_adder_aig(AdderKind::kRipple, 8);
  auto comb = synth::map_to_netlist(aig, lib_, synth::MapOptions{}, "a");
  pipeline::PipelineOptions opt;
  opt.stages = 3;
  opt.balanced = false;
  auto naive = pipeline::pipeline_insert(comb, opt).nl;
  const auto retimed = pipeline::retime_min_period(naive);

  SequentialSimulator sim_a(naive);
  SequentialSimulator sim_b(retimed.nl);
  Rng rng(0xAB);
  for (int k = 0; k < 20; ++k) {
    std::vector<std::uint64_t> pi(17);
    for (auto& v : pi) v = rng.next_u64();
    EXPECT_EQ(sim_a.step(pi), sim_b.step(pi)) << "cycle " << k;
  }
}

TEST_F(SeqSimTest, ResetRestartsState) {
  auto nl = pipelined_adder(4, 2);
  SequentialSimulator sim(nl);
  Rng rng(0x44);
  std::vector<std::vector<std::uint64_t>> first_run;
  std::vector<std::vector<std::uint64_t>> stimulus;
  for (int k = 0; k < 6; ++k) {
    std::vector<std::uint64_t> pi(9);
    for (auto& v : pi) v = rng.next_u64();
    stimulus.push_back(pi);
    first_run.push_back(sim.step(pi));
  }
  sim.reset();
  EXPECT_EQ(sim.cycle(), 0u);
  for (int k = 0; k < 6; ++k)
    EXPECT_EQ(sim.step(stimulus[static_cast<std::size_t>(k)]),
              first_run[static_cast<std::size_t>(k)]);
}

TEST(DesignRef, FirMatchesReference) {
  for (auto style : {designs::DatapathStyle::kSynthesized,
                     designs::DatapathStyle::kMacro}) {
    const auto aig = designs::make_fir_aig(style);
    Rng rng(0xF1A);
    // One parallel simulation: 64 random (x, c) sets.
    std::vector<std::uint64_t> xs[4], cs[4];
    for (int t = 0; t < 4; ++t) {
      xs[t].resize(64);
      cs[t].resize(64);
      for (int k = 0; k < 64; ++k) {
        xs[t][static_cast<std::size_t>(k)] = rng.next_u64() & 0xFF;
        cs[t][static_cast<std::size_t>(k)] = rng.next_u64() & 0xFF;
      }
    }
    std::vector<std::uint64_t> pi(64, 0);
    auto pack = [&](const std::vector<std::uint64_t>& vals, int base) {
      for (int i = 0; i < 8; ++i)
        for (int k = 0; k < 64; ++k)
          if ((vals[static_cast<std::size_t>(k)] >> i) & 1u)
            pi[static_cast<std::size_t>(base + i)] |= 1ull << k;
    };
    for (int t = 0; t < 4; ++t) pack(xs[t], t * 8);
    for (int t = 0; t < 4; ++t) pack(cs[t], 32 + t * 8);
    const auto po = aig.simulate(pi);
    for (int k = 0; k < 64; ++k) {
      const std::uint64_t x[4] = {xs[0][static_cast<std::size_t>(k)],
                                  xs[1][static_cast<std::size_t>(k)],
                                  xs[2][static_cast<std::size_t>(k)],
                                  xs[3][static_cast<std::size_t>(k)]};
      const std::uint64_t c[4] = {cs[0][static_cast<std::size_t>(k)],
                                  cs[1][static_cast<std::size_t>(k)],
                                  cs[2][static_cast<std::size_t>(k)],
                                  cs[3][static_cast<std::size_t>(k)]};
      std::uint64_t got = 0;
      for (int i = 0; i < 18; ++i)
        if ((po[static_cast<std::size_t>(i)] >> k) & 1u) got |= 1ull << i;
      EXPECT_EQ(got, designs::fir_reference(x, c));
    }
  }
}

TEST(DesignRef, CrcMatchesReference) {
  const auto aig = designs::make_crc_aig();
  Rng rng(0xC2C);
  std::vector<std::uint64_t> states(64), msgs(64);
  for (int k = 0; k < 64; ++k) {
    states[static_cast<std::size_t>(k)] = rng.next_u64() & 0xFFFF;
    msgs[static_cast<std::size_t>(k)] = rng.next_u64() & 0xFFFFFFFF;
  }
  std::vector<std::uint64_t> pi(48, 0);
  for (int i = 0; i < 16; ++i)
    for (int k = 0; k < 64; ++k)
      if ((states[static_cast<std::size_t>(k)] >> i) & 1u)
        pi[static_cast<std::size_t>(i)] |= 1ull << k;
  for (int i = 0; i < 32; ++i)
    for (int k = 0; k < 64; ++k)
      if ((msgs[static_cast<std::size_t>(k)] >> i) & 1u)
        pi[static_cast<std::size_t>(16 + i)] |= 1ull << k;
  const auto po = aig.simulate(pi);
  for (int k = 0; k < 64; ++k) {
    std::uint64_t got = 0;
    for (int i = 0; i < 16; ++i)
      if ((po[static_cast<std::size_t>(i)] >> k) & 1u) got |= 1ull << i;
    EXPECT_EQ(got, designs::crc_reference(states[static_cast<std::size_t>(k)],
                                          msgs[static_cast<std::size_t>(k)]));
  }
}

}  // namespace
}  // namespace gap::netlist
