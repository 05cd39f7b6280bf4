/// \file bench_e1_processor_survey.cpp
/// E1 — section 2 of the paper: clock rates of 0.25 um designs.
///   Alpha 21264A 750 MHz, IBM PowerPC 1.0 GHz, Tensilica Xtensa 250 MHz,
///   network ASICs up to 200 MHz, typical ASICs 120-150 MHz; the custom
///   vs ASIC gap is 6-8x, worth about five process generations at 1.5x
///   per generation.
/// Reproduced from the FO4-normalized processor models (logic depth,
/// pipeline overhead, shipped corner) — the same normalization the paper
/// uses in section 4.

#include <cstdio>

#include "common/table.hpp"
#include "core/processors.hpp"
#include "tech/scaling.hpp"

int main() {
  using namespace gap;
  std::printf(
      "E1: processor survey (paper section 2)\n"
      "model: T = logic_FO4 * (1 + overhead) * FO4(tech) * corner\n\n");

  Table t({"design", "tech", "FO4/cycle", "model", "paper", "verdict"});
  double custom_best = 0.0, asic_fast = 0.0, asic_slow = 1e30;
  for (const core::ProcessorModel& m : core::processor_survey()) {
    const double mhz = core::model_mhz(m);
    custom_best = std::max(custom_best, mhz);
    if (m.name == "typical ASIC (fast)") asic_fast = mhz;
    asic_slow = std::min(asic_slow, mhz);
    t.add_row({m.name, m.tech.name, fmt(core::model_fo4_per_cycle(m), 1),
               fmt(mhz, 0) + " MHz",
               fmt(m.paper_mhz_lo, 0) + "-" + fmt(m.paper_mhz_hi, 0) + " MHz",
               verdict(mhz, m.paper_mhz_lo, m.paper_mhz_hi)});
  }
  std::printf("%s\n", t.render().c_str());

  // The paper's 6-8x spans the (custom, typical-ASIC) pairings.
  const double gap = custom_best / (0.5 * (asic_fast + asic_slow));
  Table g({"metric", "measured", "paper", "verdict"});
  g.add_row({"gap range (fast..slow typical ASIC)",
             fmt_factor(custom_best / asic_fast, 1) + "-" +
                 fmt_factor(custom_best / asic_slow, 1),
             "x6.0-x8.0", "-"});
  g.add_row({"custom vs mid typical ASIC", fmt_factor(gap, 1), "x6.0-x8.0",
             verdict(gap, 6.0, 8.0)});
  const double generations = tech::generations_equivalent(gap);
  g.add_row({"equivalent process generations", fmt(generations, 1), "~5",
             verdict(generations, 4.0, 6.0)});
  g.add_row({"speed per generation", fmt_factor(tech::kSpeedPerGeneration, 1),
             "x1.5", "PASS"});
  std::printf("%s", g.render().c_str());
  return 0;
}
