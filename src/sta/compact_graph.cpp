#include "sta/compact_graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "netlist/checks.hpp"
#include "sta/kernels.hpp"

namespace gap::sta {

void CompactGraph::refresh_instance(const netlist::Netlist& nl,
                                    InstanceId id) {
  const std::size_t i = id.index();
  const library::Cell& c = nl.cell_of(id);
  seq_[i] = c.is_sequential() ? 1 : 0;
  parasitic_[i] = c.parasitic;
  clk_to_q_[i] = c.clk_to_q_tau;
  setup_[i] = c.setup_tau;
  // Computed through the Netlist accessors so the stored doubles are the
  // exact values netlist-side consumers (Netlist::net_load) derive.
  drive_[i] = nl.drive_of(id);
  pin_cap_[i] = nl.pin_cap(id);
}

void CompactGraph::build(const netlist::Netlist& nl) {
  tech_ = &nl.lib().technology();
  const std::size_t insts = nl.num_instances();
  const std::size_t nets = nl.num_nets();
  const std::size_t ports = nl.num_ports();

  seq_.resize(insts);
  parasitic_.resize(insts);
  drive_.resize(insts);
  clk_to_q_.resize(insts);
  setup_.resize(insts);
  pin_cap_.resize(insts);
  output_.resize(insts);
  for (std::uint32_t i = 0; i < insts; ++i)
    refresh_instance(nl, InstanceId{i});

  length_um_.resize(nets);
  width_multiple_.resize(nets);
  extra_cap_units_.resize(nets);
  for (std::uint32_t i = 0; i < nets; ++i) {
    const netlist::Net& n = nl.net(NetId{i});
    length_um_[i] = n.length_um;
    width_multiple_[i] = n.width_multiple;
    extra_cap_units_[i] = n.extra_cap_units;
  }

  port_net_.resize(ports);
  port_ext_drive_.resize(ports);
  port_is_input_.resize(ports);
  for (std::uint32_t i = 0; i < ports; ++i) {
    const netlist::Port& p = nl.port(PortId{i});
    port_net_[i] = p.net;
    port_ext_drive_[i] = p.ext_drive;
    port_is_input_[i] = p.is_input ? 1 : 0;
  }

  rebuild_structure(nl);
}

void CompactGraph::rebuild_structure(const netlist::Netlist& nl) {
  built_version_ = nl.version();
  const std::size_t insts = nl.num_instances();
  const std::size_t nets = nl.num_nets();
  GAP_EXPECTS(insts == output_.size() && nets == length_um_.size());

  // Fanin CSR (pin order preserved) + outputs.
  fanin_off_.assign(insts + 1, 0);
  for (std::uint32_t i = 0; i < insts; ++i) {
    const netlist::Instance& inst = nl.instance(InstanceId{i});
    fanin_off_[i + 1] =
        fanin_off_[i] + static_cast<std::uint32_t>(inst.inputs.size());
    output_[i] = inst.output;
  }
  fanin_.resize(fanin_off_[insts]);
  for (std::uint32_t i = 0; i < insts; ++i) {
    const netlist::Instance& inst = nl.instance(InstanceId{i});
    std::copy(inst.inputs.begin(), inst.inputs.end(),
              fanin_.begin() + fanin_off_[i]);
  }

  // Fanout CSR (per-net sink order preserved — endpoint tie-breaks and
  // pin-cap accumulation order depend on it) + drivers.
  driver_.resize(nets);
  sink_off_.assign(nets + 1, 0);
  for (std::uint32_t i = 0; i < nets; ++i) {
    const netlist::Net& n = nl.net(NetId{i});
    driver_[i] = n.driver;
    sink_off_[i + 1] =
        sink_off_[i] + static_cast<std::uint32_t>(n.sinks.size());
  }
  sink_.resize(sink_off_[nets]);
  for (std::uint32_t i = 0; i < nets; ++i) {
    const netlist::Net& n = nl.net(NetId{i});
    std::copy(n.sinks.begin(), n.sinks.end(), sink_.begin() + sink_off_[i]);
  }

  // Levelization: sequential instances launch at the clock (level 0); a
  // combinational instance sits one past its deepest combinational
  // driver.
  order_ = netlist::topo_order(nl);
  GAP_EXPECTS(order_.size() == insts);
  level_.assign(insts, 0);
  max_level_ = 0;
  for (InstanceId id : order_) {
    if (is_sequential(id)) continue;
    int lvl = 0;
    for (NetId in : inputs(id)) {
      const netlist::NetDriver& d = driver_[in.index()];
      if (d.kind != netlist::NetDriver::Kind::kInstance) continue;
      const int dl = is_sequential(d.inst) ? 0 : level_[d.inst.index()];
      lvl = std::max(lvl, dl + 1);
    }
    level_[id.index()] = lvl;
    max_level_ = std::max(max_level_, lvl);
  }

  // Wavefront CSR: instances bucketed by level, ascending id within a
  // level (counting sort over the id-ordered instance array).
  wave_off_.assign(static_cast<std::size_t>(max_level_) + 2, 0);
  for (std::uint32_t i = 0; i < insts; ++i)
    ++wave_off_[static_cast<std::size_t>(level_[i]) + 1];
  for (std::size_t l = 1; l < wave_off_.size(); ++l)
    wave_off_[l] += wave_off_[l - 1];
  wave_inst_.resize(insts);
  std::vector<std::uint32_t> cursor(wave_off_.begin(), wave_off_.end() - 1);
  for (std::uint32_t i = 0; i < insts; ++i)
    wave_inst_[cursor[static_cast<std::size_t>(level_[i])]++] = InstanceId{i};

  // Prebin the width profile once per schedule so every sweep's
  // profile_wave_sweep is a handful of atomic adds, not O(levels).
  wave_width_profile_ = common::HistogramData{};
  narrow_levels_ = 0;
  for (int lvl = 0; lvl < num_levels(); ++lvl) {
    const std::size_t w = wave(lvl).size();
    common::Histogram::accumulate(wave_width_profile_,
                                  static_cast<double>(w));
    if (w < kWaveDispatchHint) ++narrow_levels_;
  }
}

namespace {

/// Record one full wavefront sweep over `g` into the "sta.wave.*"
/// metrics (docs/observability.md): sweep/level/instance totals and the
/// per-level width histogram, all derived from the schedule itself —
/// never from what a pool actually did — so metric content is identical
/// at any lane count. The one thread-dependent fact, whether the sweep
/// dispatched to a pool, goes to the segregated wall section
/// ("wall.sta.wave.{pooled,serial}_sweeps").
void profile_wave_sweep(const CompactGraph& g, bool pooled_dispatch) {
  static common::Counter& sweeps =
      common::metrics().counter("sta.wave.sweeps");
  static common::Counter& levels =
      common::metrics().counter("sta.wave.levels_touched");
  static common::Counter& relaxed =
      common::metrics().counter("sta.wave.instances_relaxed");
  static common::Counter& narrow =
      common::metrics().counter("sta.wave.levels_below_dispatch_hint");
  static common::Histogram& width =
      common::metrics().histogram("sta.wave.instances_per_level");
  static common::Counter& pooled =
      common::metrics().counter("wall.sta.wave.pooled_sweeps");
  static common::Counter& serial =
      common::metrics().counter("wall.sta.wave.serial_sweeps");
  sweeps.add();
  levels.add(static_cast<std::uint64_t>(g.num_levels()));
  relaxed.add(g.num_instances());
  narrow.add(g.narrow_levels());
  width.record_batch(g.wave_width_profile());
  (pooled_dispatch ? pooled : serial).add();
}

}  // namespace

void compact_propagate(const CompactGraph& g, const StaOptions& opt,
                       detail::ArrivalState& st, common::ThreadPool* pool) {
  const std::size_t nets = g.num_nets();
  st.arrival.assign(nets, kern::kNegInf);
  st.wire_delay.resize(nets);
  st.driver_load.resize(nets);
  st.crit_input.assign(g.num_instances(), NetId{});
  const double k = opt.corner_delay_factor;
  const bool par = pool != nullptr && pool->size() > 1;

  profile_wave_sweep(g, par);

  // Wire models: each net's model is a pure function of the graph, and
  // every lane writes only its own net's slots.
  const auto wire_at = [&](std::size_t i) {
    const NetId n{static_cast<std::uint32_t>(i)};
    const WireModel m = kern::wire_model(g, n, opt);
    st.wire_delay[i] = k * m.delay_tau;
    st.driver_load[i] = m.driver_load_units;
  };
  if (par) {
    pool->parallel_for(nets, wire_at);
  } else {
    for (std::size_t i = 0; i < nets; ++i) wire_at(i);
  }

  // Primary inputs: external driver of the port's declared strength.
  for (std::uint32_t i = 0; i < g.num_ports(); ++i) {
    const PortId pid{i};
    if (!g.port_is_input(pid)) continue;
    st.arrival[g.port_net(pid).index()] = kern::pi_arrival(g, opt, st, pid);
  }

  // Levelized relaxation. A level-L instance reads only arrivals written
  // at levels < L (sequential drivers are read at level >= 1) and writes
  // its own output net + crit slot, so in-level parallelism cannot change
  // values or ordering.
  if (par) {
    for (int lvl = 0; lvl < g.num_levels(); ++lvl) {
      const std::span<const InstanceId> wave = g.wave(lvl);
      pool->parallel_for(wave.size(), [&](std::size_t i) {
        kern::relax_instance(g, opt, st, wave[i]);
      });
    }
  } else {
    for (InstanceId id : g.order()) kern::relax_instance(g, opt, st, id);
  }
}

}  // namespace gap::sta
