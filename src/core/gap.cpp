#include "core/gap.hpp"

#include "common/check.hpp"

namespace gap::core {

Methodology reference_methodology() {
  Methodology m;
  m.name = "reference";
  m.placement = place::PlacementMode::kCareful;
  m.corner = tech::corner_typical();
  return m;
}

std::vector<Factor> paper_factors() {
  std::vector<Factor> f;
  f.push_back({"pipelining / logic design", 3.0, 4.0,
               [](Methodology& m) {
                 m.pipeline_stages = 1;
                 m.balanced_stages = false;
                 m.datapath = designs::DatapathStyle::kSynthesized;
                 m.skew_fraction = 0.10;
               },
               [](Methodology& m) {
                 // Heavy pipelining: the Alpha 21264 runs seven stages.
                 m.pipeline_stages = 7;
                 m.balanced_stages = true;
                 m.datapath = designs::DatapathStyle::kMacro;
                 m.skew_fraction = 0.05;  // custom registers and clocking
               }});
  f.push_back({"floorplanning / placement", 1.15, 1.25,
               [](Methodology& m) {
                 m.placement = place::PlacementMode::kScattered;
               },
               [](Methodology& m) {
                 m.placement = place::PlacementMode::kCareful;
               }});
  // Band note: the paper's table says x1.25, but its own section 6
  // sub-claims compound higher (25% poor-vs-rich library, 2-7%
  // discretization, >=20% critical-path sizing); we accept up to the
  // compounded x1.55. The model's custom sizing is transistor sizing
  // only: wire widening, measured with the driver resized alongside,
  // added <= 0.06% of period on every registry design and was removed.
  f.push_back({"transistor / wire sizing", 1.15, 1.55,
               [](Methodology& m) {
                 m.library = LibraryKind::kPoorAsic;
                 m.sizing = SizingLevel::kDiscrete;
               },
               [](Methodology& m) {
                 m.library = LibraryKind::kCustom;
                 m.sizing = SizingLevel::kContinuous;
               }});
  f.push_back({"dynamic logic", 1.3, 1.5,
               [](Methodology& m) { m.dynamic_logic = false; },
               [](Methodology& m) { m.dynamic_logic = true; }});
  f.push_back({"process variation / access", 1.7, 1.9,
               [](Methodology& m) { m.corner = tech::corner_worst_case(); },
               [](Methodology& m) { m.corner = tech::corner_fast_bin(); }});
  return f;
}

GapReport decompose(const Flow& flow, const DesignFactory& design,
                    const Methodology& reference,
                    const std::vector<Factor>& factors) {
  GAP_EXPECTS(!factors.empty());
  auto run = [&](const Methodology& m) {
    return flow.run(design(m.datapath), m).freq_mhz;
  };

  GapReport report;

  // Joint endpoints: everything ASIC, everything custom.
  Methodology all_asic = reference;
  Methodology all_custom = reference;
  for (const Factor& f : factors) {
    f.apply_asic(all_asic);
    f.apply_custom(all_custom);
  }
  report.base_mhz = run(all_asic);
  GAP_ENSURES(report.base_mhz > 0.0);

  double prev_cumulative_mhz = report.base_mhz;
  Methodology cumulative = all_asic;
  for (const Factor& f : factors) {
    FactorRow row;
    row.name = f.name;
    row.paper_lo = f.paper_lo;
    row.paper_hi = f.paper_hi;

    // Max contribution around the neutral reference.
    Methodology lo = reference;
    Methodology hi = reference;
    f.apply_asic(lo);
    f.apply_custom(hi);
    row.individual = run(hi) / run(lo);
    report.product_individual *= row.individual;

    // Joint stacking from the all-ASIC baseline.
    f.apply_custom(cumulative);
    const double mhz = run(cumulative);
    row.marginal = mhz / prev_cumulative_mhz;
    row.cumulative = mhz / report.base_mhz;
    prev_cumulative_mhz = mhz;
    report.rows.push_back(std::move(row));
  }
  report.full_mhz = prev_cumulative_mhz;
  report.total_ratio = report.full_mhz / report.base_mhz;
  return report;
}

}  // namespace gap::core
