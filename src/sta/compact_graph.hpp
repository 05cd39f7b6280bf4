#pragma once
/// \file compact_graph.hpp
/// Flat structure-of-arrays timing graph — the one graph every STA engine
/// evaluates on. Built once from a netlist::Netlist, it stores
/// everything the timing kernels (sta/kernels.hpp) read as contiguous
/// arrays indexed by the *same* InstanceId/NetId/PortId values as the
/// netlist — ids are positional and stable (the netlist never deletes),
/// so results carry over with no translation:
///
///   - per-instance cell values (parasitic, drive, clk-to-Q, setup,
///     pin cap, sequential flag) flattened out of library::Cell,
///   - CSR fanin (instance -> input nets) and fanout (net -> NetSink)
///     adjacency replacing the per-object std::vectors,
///   - per-net geometry (length, extra cap) and driver,
///   - a levelized wavefront schedule: topological order, per-instance
///     level (sequential and PI-fed cones at level 0), and a CSR of
///     instances grouped by level in ascending id order. Every instance
///     at level L reads only arrivals produced at levels < L, so a level
///     can be relaxed in parallel over common::ThreadPool with disjoint
///     writes — bit-identical at any lane count.
///
/// Staleness contract: build() records Netlist::version(). Structural
/// mutations (rewire, added cells/nets) invalidate adjacency + schedule —
/// rebuild_structure() refreshes them; value-only mutations (resize,
/// swap) are patched in place with refresh_instance(). Net geometry
/// (length, extra cap) is read only by build(): no edit changes it.
/// The incremental timer drives both from its edit stream; batch
/// analysis simply builds a fresh graph per call. See
/// docs/data-layout.md.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "netlist/netlist.hpp"
#include "sta/propagation.hpp"
#include "sta/sta.hpp"

namespace gap::sta {

/// Wavefront width below which pool dispatch loses to a serial loop: a
/// parallel_for is a mutex, a condvar wake and a join, which costs more
/// than relaxing a few dozen instances. Every wavefront loop (the levels
/// of compact_propagate, the arrival and required flushes of the
/// incremental timer, the dataflow lattice's forward sweep) dispatches
/// through run_wave, which branches on it. The wavefront profile
/// (docs/observability.md, "sta.wave.*") classifies levels against the
/// same value, so `sta.wave.levels_below_dispatch_hint` counts the
/// levels a full sweep runs serially at any lane count.
inline constexpr std::size_t kWaveDispatchHint = 64;

/// Run fn(i) for every i in [0, n): through `pool` when it has more than
/// one lane and the wave is at least kWaveDispatchHint wide, otherwise as
/// a plain loop on the calling thread. Callers guarantee that fn(i)
/// writes only its own slots and reads nothing another index writes, so
/// both branches produce the same bytes.
template <typename Fn>
void run_wave(common::ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr && pool->size() > 1 && n >= kWaveDispatchHint) {
    pool->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

class CompactGraph {
 public:
  CompactGraph() = default;
  explicit CompactGraph(const netlist::Netlist& nl) { build(nl); }

  /// Full (re)build: values, adjacency, ports, schedule.
  void build(const netlist::Netlist& nl);

  /// Re-read one instance's cell values (drive, parasitic, clk-to-Q,
  /// setup, pin cap) after a resize/swap. O(1); adjacency untouched.
  void refresh_instance(const netlist::Netlist& nl, InstanceId id);

  /// Rebuild adjacency, drivers and the wavefront schedule after a
  /// structural edit (rewire). Instance/net counts must be unchanged
  /// since build(); value arrays are untouched.
  void rebuild_structure(const netlist::Netlist& nl);

  /// Netlist::version() the graph was last (re)built against.
  [[nodiscard]] std::uint64_t built_version() const { return built_version_; }

  // --- accessors the kernels read (see kernels.hpp) ---
  [[nodiscard]] std::size_t num_nets() const { return driver_.size(); }
  [[nodiscard]] std::size_t num_instances() const { return output_.size(); }
  [[nodiscard]] std::size_t num_ports() const { return port_net_.size(); }

  [[nodiscard]] bool is_sequential(InstanceId id) const {
    return seq_[id.index()] != 0;
  }
  [[nodiscard]] double parasitic(InstanceId id) const {
    return parasitic_[id.index()];
  }
  [[nodiscard]] double drive(InstanceId id) const {
    return drive_[id.index()];
  }
  [[nodiscard]] double clk_to_q(InstanceId id) const {
    return clk_to_q_[id.index()];
  }
  [[nodiscard]] double setup(InstanceId id) const {
    return setup_[id.index()];
  }
  [[nodiscard]] double pin_cap(InstanceId id) const {
    return pin_cap_[id.index()];
  }

  [[nodiscard]] std::span<const NetId> inputs(InstanceId id) const {
    return {fanin_.data() + fanin_off_[id.index()],
            fanin_off_[id.index() + 1] - fanin_off_[id.index()]};
  }
  [[nodiscard]] NetId output(InstanceId id) const {
    return output_[id.index()];
  }

  [[nodiscard]] std::span<const netlist::NetSink> sinks(NetId n) const {
    return {sink_.data() + sink_off_[n.index()],
            sink_off_[n.index() + 1] - sink_off_[n.index()]};
  }
  [[nodiscard]] const netlist::NetDriver& driver(NetId n) const {
    return driver_[n.index()];
  }
  [[nodiscard]] double net_length_um(NetId n) const {
    return length_um_[n.index()];
  }
  [[nodiscard]] double net_extra_cap_units(NetId n) const {
    return extra_cap_units_[n.index()];
  }

  [[nodiscard]] NetId port_net(PortId p) const {
    return port_net_[p.index()];
  }
  [[nodiscard]] bool port_is_input(PortId p) const {
    return port_is_input_[p.index()] != 0;
  }
  [[nodiscard]] double port_ext_drive(PortId p) const {
    return port_ext_drive_[p.index()];
  }

  [[nodiscard]] const tech::Technology& technology() const { return *tech_; }

  // --- wavefront schedule ---
  /// Topological order over instances, identical to netlist::topo_order.
  [[nodiscard]] const std::vector<InstanceId>& order() const {
    return order_;
  }
  /// Per-instance level; sequential and PI-fed cones are level 0.
  [[nodiscard]] const std::vector<int>& levels() const { return level_; }
  [[nodiscard]] int max_level() const { return max_level_; }
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(wave_off_.size()) - 1;
  }
  /// Instances at `level`, ascending id. Safe to relax in parallel.
  [[nodiscard]] std::span<const InstanceId> wave(int level) const {
    const auto l = static_cast<std::size_t>(level);
    return {wave_inst_.data() + wave_off_[l], wave_off_[l + 1] - wave_off_[l]};
  }
  /// Total fanin edges (instance input pins).
  [[nodiscard]] std::size_t num_edges() const { return fanin_.size(); }

  /// Per-level wavefront widths, prebinned into histogram form at
  /// rebuild_structure() time — a pure function of the schedule, so
  /// profile_wave_sweep can merge it per sweep with one record_batch
  /// instead of O(levels) per-sample records on the hot path.
  [[nodiscard]] const common::HistogramData& wave_width_profile() const {
    return wave_width_profile_;
  }
  /// Levels narrower than kWaveDispatchHint, from the same precompute.
  [[nodiscard]] std::uint64_t narrow_levels() const { return narrow_levels_; }

 private:
  const tech::Technology* tech_ = nullptr;
  std::uint64_t built_version_ = 0;

  // Per-instance values (SoA of the fields the kernels read).
  std::vector<std::uint8_t> seq_;
  std::vector<double> parasitic_, drive_, clk_to_q_, setup_, pin_cap_;
  std::vector<NetId> output_;

  // CSR fanin: inputs of instance i are fanin_[fanin_off_[i] ..
  // fanin_off_[i+1]), in pin order.
  std::vector<std::uint32_t> fanin_off_;
  std::vector<NetId> fanin_;

  // Per-net: driver, CSR fanout (sink order preserved), geometry.
  std::vector<netlist::NetDriver> driver_;
  std::vector<std::uint32_t> sink_off_;
  std::vector<netlist::NetSink> sink_;
  std::vector<double> length_um_, extra_cap_units_;

  // Ports.
  std::vector<NetId> port_net_;
  std::vector<double> port_ext_drive_;
  std::vector<std::uint8_t> port_is_input_;

  // Levelized schedule.
  std::vector<InstanceId> order_;
  std::vector<int> level_;
  int max_level_ = 0;
  std::vector<std::uint32_t> wave_off_;
  std::vector<InstanceId> wave_inst_;

  // Schedule-derived wave profile, cached for profile_wave_sweep.
  common::HistogramData wave_width_profile_;
  std::uint64_t narrow_levels_ = 0;
};

/// Forward arrival propagation over a compact graph into `st` (arrays are
/// resized): wire models for every net, primary-input seeds, then the
/// levelized relaxation, one level at a time. The net fan-out and each
/// level go through run_wave, so with a pool of >1 lanes a wide level
/// fans out (all writes disjoint, reads strictly below the level) and a
/// narrow one runs serially — bit-identical at any lane count.
void compact_propagate(const CompactGraph& g, const StaOptions& opt,
                       detail::ArrivalState& st,
                       common::ThreadPool* pool = nullptr);

}  // namespace gap::sta
