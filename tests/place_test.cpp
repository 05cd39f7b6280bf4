#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "datapath/adders.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "netlist/checks.hpp"
#include "place/place.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap::place {
namespace {

netlist::Netlist mapped_adder(const library::CellLibrary& lib, int width) {
  const auto aig = datapath::make_adder_aig(datapath::AdderKind::kRipple, width);
  return synth::map_to_netlist(aig, lib, synth::MapOptions{}, "add");
}

// --- pointer-walk reference --------------------------------------------------
// The placer's algorithm written the plain way: every cost, "before"
// included, is recomputed by walking the netlist's Net/Instance records,
// and nothing is cached. It calls nothing in src/place, so a bug in the
// flat tables cannot cancel out against it.

double ref_net_hpwl(const netlist::Netlist& nl, NetId id) {
  const netlist::Net& n = nl.net(id);
  double x0 = 1e30, x1 = -1e30, y0 = 1e30, y1 = -1e30;
  int pins = 0;
  auto visit = [&](InstanceId inst) {
    const netlist::Instance& i = nl.instance(inst);
    if (i.x_um < 0.0) return;
    x0 = std::min(x0, i.x_um);
    x1 = std::max(x1, i.x_um);
    y0 = std::min(y0, i.y_um);
    y1 = std::max(y1, i.y_um);
    ++pins;
  };
  if (n.driver.kind == netlist::NetDriver::Kind::kInstance) visit(n.driver.inst);
  for (const netlist::NetSink& s : n.sinks)
    if (s.kind == netlist::NetSink::Kind::kInstancePin) visit(s.inst);
  if (pins < 2) return 0.0;
  return (x1 - x0) + (y1 - y0);
}

double ref_total_hpwl(const netlist::Netlist& nl) {
  double t = 0.0;
  for (NetId n : nl.all_nets()) t += ref_net_hpwl(nl, n);
  return t;
}

struct RefRun {
  double initial_hpwl_um = 0.0;
  double total_hpwl_um = 0.0;
  std::uint64_t attempted = 0;  ///< swaps of two distinct instances
  std::uint64_t accepted = 0;
  /// Cache fill plus |nets(a)| + |nets(b)| per attempted swap: the HPWL
  /// evaluations a placer makes when "before" costs come from a cache.
  std::uint64_t cached_evals = 0;
  /// Accepted swaps whose nets(a) ++ nets(b) names some net twice.
  std::uint64_t accepted_with_repeat = 0;
};

RefRun reference_place(netlist::Netlist& nl, const PlaceOptions& options) {
  RefRun run;
  Rng rng(options.seed);
  if (nl.num_instances() == 0) return run;

  double die_w, die_h;
  die_w = die_h = std::sqrt(std::max(nl.total_area_um2() / options.utilization, 1.0));
  if (options.mode == PlacementMode::kScattered) {
    if (options.scatter_die_mm > 0.0)
      die_w = die_h = options.scatter_die_mm * 1000.0;
    else
      die_w = die_h = die_w * options.scatter_spread;
  }

  struct Box {
    double x, y, w, h;
    std::vector<InstanceId> members;
  };
  std::vector<Box> boxes;
  std::unordered_map<std::uint32_t, std::size_t> box_of_module;
  Box whole{0.0, 0.0, die_w, die_h, {}};
  for (InstanceId id : netlist::topo_order(nl)) {
    const ModuleId m = nl.instance(id).module;
    const auto it = m.valid() ? options.regions.find(m) : options.regions.end();
    if (it == options.regions.end()) {
      whole.members.push_back(id);
      continue;
    }
    auto bit = box_of_module.find(m.value());
    if (bit == box_of_module.end()) {
      const floorplan::PlacedModule& pm = it->second;
      boxes.push_back(Box{pm.x_um, pm.y_um, pm.w_um, pm.h_um, {}});
      bit = box_of_module.emplace(m.value(), boxes.size() - 1).first;
    }
    boxes[bit->second].members.push_back(id);
  }
  if (!whole.members.empty()) boxes.push_back(std::move(whole));

  for (Box& r : boxes) {
    const std::size_t count = r.members.size();
    if (count == 0) continue;
    const auto cols = static_cast<std::size_t>(std::ceil(
        std::sqrt(static_cast<double>(count) * r.w / std::max(r.h, 1.0))));
    const std::size_t c = std::max<std::size_t>(cols, 1);
    const std::size_t rows = (count + c - 1) / c;
    const double sx = r.w / static_cast<double>(c);
    const double sy = r.h / static_cast<double>(std::max<std::size_t>(rows, 1));
    std::vector<InstanceId> members = r.members;
    if (options.mode == PlacementMode::kScattered)
      for (std::size_t i = members.size(); i > 1; --i)
        std::swap(members[i - 1],
                  members[static_cast<std::size_t>(rng.uniform_index(i))]);
    for (std::size_t k = 0; k < members.size(); ++k) {
      netlist::Instance& inst = nl.instance(members[k]);
      inst.x_um = r.x + (static_cast<double>(k % cols) + 0.5) * sx;
      inst.y_um = r.y + (static_cast<double>(k / cols) + 0.5) * sy;
    }
  }
  run.initial_hpwl_um = ref_total_hpwl(nl);
  run.cached_evals = nl.num_nets();

  if (options.mode == PlacementMode::kCareful && options.sa_moves > 0) {
    auto nets_of = [&](InstanceId id) {
      std::vector<NetId> nets = nl.instance(id).inputs;
      nets.push_back(nl.instance(id).output);
      return nets;
    };
    auto local_cost = [&](InstanceId a, InstanceId b) {
      double c = 0.0;
      for (NetId n : nets_of(a)) c += ref_net_hpwl(nl, n);
      for (NetId n : nets_of(b)) c += ref_net_hpwl(nl, n);
      return c;
    };
    double temp = 0.05 * (die_w + die_h);
    const double cooling = std::pow(1e-3, 1.0 / std::max(1, options.sa_moves));
    for (int move = 0; move < options.sa_moves; ++move) {
      Box& r = boxes[rng.uniform_index(boxes.size())];
      if (r.members.size() < 2) {
        temp *= cooling;
        continue;
      }
      const InstanceId a = r.members[rng.uniform_index(r.members.size())];
      const InstanceId b = r.members[rng.uniform_index(r.members.size())];
      if (a == b) {
        temp *= cooling;
        continue;
      }
      std::vector<NetId> both = nets_of(a);
      for (NetId n : nets_of(b)) both.push_back(n);
      ++run.attempted;
      run.cached_evals += both.size();
      const double before = local_cost(a, b);
      netlist::Instance& ia = nl.instance(a);
      netlist::Instance& ib = nl.instance(b);
      std::swap(ia.x_um, ib.x_um);
      std::swap(ia.y_um, ib.y_um);
      const double delta = local_cost(a, b) - before;
      if (!(delta <= 0.0 || rng.uniform() < std::exp(-delta / temp))) {
        std::swap(ia.x_um, ib.x_um);
        std::swap(ia.y_um, ib.y_um);
      } else {
        ++run.accepted;
        std::sort(both.begin(), both.end());
        if (std::adjacent_find(both.begin(), both.end()) != both.end())
          ++run.accepted_with_repeat;
      }
      temp *= cooling;
    }
  }
  for (NetId n : nl.all_nets()) nl.net(n).length_um = ref_net_hpwl(nl, n);
  run.total_hpwl_um = ref_total_hpwl(nl);
  return run;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Places one copy of `nl` with place() and one with the reference, and
/// requires every coordinate, net length and HPWL total to be bit-equal.
RefRun expect_matches_reference(const netlist::Netlist& nl,
                                const PlaceOptions& opt) {
  netlist::Netlist flat = nl;
  netlist::Netlist ref = nl;
  const PlaceResult r = place(flat, opt);
  const RefRun want = reference_place(ref, opt);
  EXPECT_EQ(bits(r.initial_hpwl_um), bits(want.initial_hpwl_um));
  EXPECT_EQ(bits(r.total_hpwl_um), bits(want.total_hpwl_um));
  std::size_t coord_mismatches = 0;
  for (InstanceId id : nl.all_instances())
    if (bits(flat.instance(id).x_um) != bits(ref.instance(id).x_um) ||
        bits(flat.instance(id).y_um) != bits(ref.instance(id).y_um))
      ++coord_mismatches;
  EXPECT_EQ(coord_mismatches, 0u);
  std::size_t length_mismatches = 0;
  for (NetId n : nl.all_nets())
    if (bits(flat.net(n).length_um) != bits(ref.net(n).length_um))
      ++length_mismatches;
  EXPECT_EQ(length_mismatches, 0u);
  return want;
}

class PlaceTest : public ::testing::Test {
 protected:
  PlaceTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}
  library::CellLibrary lib_;
};

TEST_F(PlaceTest, AllInstancesInsideDie) {
  auto nl = mapped_adder(lib_, 16);
  PlaceOptions opt;
  opt.sa_moves = 2000;
  const PlaceResult r = place(nl, opt);
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& i = nl.instance(id);
    EXPECT_GE(i.x_um, 0.0);
    EXPECT_LE(i.x_um, r.die_w_um);
    EXPECT_GE(i.y_um, 0.0);
    EXPECT_LE(i.y_um, r.die_h_um);
  }
}

TEST_F(PlaceTest, CarefulBeatsScattered) {
  auto nl1 = mapped_adder(lib_, 32);
  auto nl2 = mapped_adder(lib_, 32);
  PlaceOptions careful;
  careful.mode = PlacementMode::kCareful;
  careful.sa_moves = 10000;
  PlaceOptions scattered;
  scattered.mode = PlacementMode::kScattered;
  const PlaceResult rc = place(nl1, careful);
  const PlaceResult rs = place(nl2, scattered);
  EXPECT_LT(rc.total_hpwl_um, rs.total_hpwl_um * 0.5);
}

TEST_F(PlaceTest, SaImprovesOverInitial) {
  auto nl = mapped_adder(lib_, 32);
  PlaceOptions opt;
  opt.sa_moves = 20000;
  const PlaceResult r = place(nl, opt);
  EXPECT_LE(r.total_hpwl_um, r.initial_hpwl_um * 1.001);
}

TEST_F(PlaceTest, NetLengthsAnnotated) {
  auto nl = mapped_adder(lib_, 8);
  place(nl, PlaceOptions{});
  std::size_t with_length = 0;
  for (NetId n : nl.all_nets())
    if (nl.net(n).length_um > 0.0) ++with_length;
  EXPECT_GT(with_length, nl.num_nets() / 4);
}

TEST_F(PlaceTest, ScatteredDieOverride) {
  auto nl = mapped_adder(lib_, 8);
  PlaceOptions opt;
  opt.mode = PlacementMode::kScattered;
  opt.scatter_die_mm = 10.0;  // the paper's 100 mm^2 chip
  const PlaceResult r = place(nl, opt);
  EXPECT_DOUBLE_EQ(r.die_w_um, 10000.0);
  EXPECT_DOUBLE_EQ(r.die_h_um, 10000.0);
}

TEST_F(PlaceTest, ScatterSpreadScalesDie) {
  auto nl1 = mapped_adder(lib_, 8);
  auto nl2 = mapped_adder(lib_, 8);
  PlaceOptions careful;
  const PlaceResult rc = place(nl1, careful);
  PlaceOptions scattered;
  scattered.mode = PlacementMode::kScattered;
  scattered.scatter_spread = 2.0;
  const PlaceResult rs = place(nl2, scattered);
  EXPECT_NEAR(rs.die_w_um, 2.0 * rc.die_w_um, 1e-6);
}

TEST_F(PlaceTest, RegionsConfineModules) {
  auto nl = mapped_adder(lib_, 8);
  // Assign all instances to module 0, confined to a corner box.
  for (InstanceId id : nl.all_instances()) nl.instance(id).module = ModuleId{0};
  PlaceOptions opt;
  opt.sa_moves = 500;
  floorplan::PlacedModule box{100.0, 200.0, 50.0, 50.0};
  opt.regions.emplace(ModuleId{0}, box);
  place(nl, opt);
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& i = nl.instance(id);
    EXPECT_GE(i.x_um, box.x_um);
    EXPECT_LE(i.x_um, box.x_um + box.w_um);
    EXPECT_GE(i.y_um, box.y_um);
    EXPECT_LE(i.y_um, box.y_um + box.h_um);
  }
}

TEST_F(PlaceTest, HpwlManual) {
  netlist::Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId mid = nl.add_net("mid");
  const CellId inv = *lib_.smallest(library::Func::kInv, library::Family::kStatic);
  const InstanceId u1 = nl.add_instance("u1", inv, {nl.port(a).net}, mid);
  const NetId out = nl.add_net("out");
  const InstanceId u2 = nl.add_instance("u2", inv, {mid}, out);
  nl.add_output("y", out);
  nl.instance(u1).x_um = 10.0;
  nl.instance(u1).y_um = 20.0;
  nl.instance(u2).x_um = 110.0;
  nl.instance(u2).y_um = 50.0;
  annotate_net_lengths(nl);
  EXPECT_DOUBLE_EQ(nl.net(mid).length_um, 100.0 + 30.0);
  EXPECT_DOUBLE_EQ(total_hpwl(nl), 130.0);
}

TEST_F(PlaceTest, FlatSaMatchesPointerReference) {
  {
    SCOPED_TRACE("ripple adder, 32 bits");
    const RefRun run = expect_matches_reference(mapped_adder(lib_, 32), PlaceOptions{});
    EXPECT_GT(run.accepted, 0u);
  }
  const netlist::Netlist alu = synth::map_to_netlist(
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized), lib_,
      synth::MapOptions{}, "alu16");
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("alu16, seed " + std::to_string(seed));
    PlaceOptions opt;
    opt.seed = seed;
    expect_matches_reference(alu, opt);
  }
  {
    SCOPED_TRACE("alu16, scattered");
    PlaceOptions opt;
    opt.mode = PlacementMode::kScattered;
    expect_matches_reference(alu, opt);
  }
  {
    // Two floorplan rectangles; a quarter of the instances sit in a module
    // with no rectangle and a quarter in no module, so both share the
    // whole-die region.
    SCOPED_TRACE("alu16, two regions plus whole die");
    netlist::Netlist nl = alu;
    for (InstanceId id : nl.all_instances()) {
      const std::uint32_t k = id.value() % 4;
      if (k < 3) nl.instance(id).module = ModuleId{k == 2 ? 7u : k};
    }
    PlaceOptions opt;
    opt.sa_moves = 20000;
    opt.regions.emplace(ModuleId{0}, floorplan::PlacedModule{0.0, 0.0, 300.0, 200.0});
    opt.regions.emplace(ModuleId{1}, floorplan::PlacedModule{300.0, 0.0, 200.0, 200.0});
    const RefRun run = expect_matches_reference(nl, opt);
    EXPECT_GT(run.accepted, 0u);
  }
  {
    // u2 reads n1 on both pins; u1 drives n1, so every u1/u2 swap (and
    // u2/u3) lists n1 more than once in nets(a) ++ nets(b).
    SCOPED_TRACE("hand-built: repeated and shared nets");
    netlist::Netlist nl("dup", &lib_);
    const CellId inv = *lib_.smallest(library::Func::kInv, library::Family::kStatic);
    const CellId nand = *lib_.smallest(library::Func::kNand2, library::Family::kStatic);
    const NetId in = nl.port(nl.add_input("a")).net;
    NetId prev = in;
    for (int k = 0; k < 3; ++k) {
      const NetId n1 = nl.add_net("n1_" + std::to_string(k));
      const NetId n2 = nl.add_net("n2_" + std::to_string(k));
      const NetId n3 = nl.add_net("n3_" + std::to_string(k));
      nl.add_instance("u1_" + std::to_string(k), inv, {prev}, n1);
      nl.add_instance("u2_" + std::to_string(k), nand, {n1, n1}, n2);
      nl.add_instance("u3_" + std::to_string(k), nand, {n1, n2}, n3);
      prev = n3;
    }
    nl.add_output("y", prev);
    PlaceOptions opt;
    opt.sa_moves = 3000;
    const RefRun run = expect_matches_reference(nl, opt);
    EXPECT_GT(run.accepted_with_repeat, 0u);
  }
}

TEST_F(PlaceTest, NetHpwlEvalsCountsCacheFillAndSwaps) {
  common::Counter& evals = common::metrics().counter("place.net_hpwl_evals");
  const netlist::Netlist nl = mapped_adder(lib_, 32);
  for (PlacementMode mode : {PlacementMode::kCareful, PlacementMode::kScattered}) {
    PlaceOptions opt;
    opt.mode = mode;
    netlist::Netlist ref = nl;
    const RefRun want = reference_place(ref, opt);
    netlist::Netlist flat = nl;
    const std::uint64_t before = evals.value();
    place(flat, opt);
    // One evaluation per net to fill the cache, then only the "after"
    // costs of each attempted swap: "before" costs are cache reads.
    EXPECT_EQ(evals.value() - before, want.cached_evals);
    if (mode == PlacementMode::kScattered) EXPECT_EQ(want.cached_evals, nl.num_nets());
    else EXPECT_GT(want.attempted, 0u);
  }
}

}  // namespace
}  // namespace gap::place
