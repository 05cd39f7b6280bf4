#pragma once
/// \file incremental.hpp
/// Incremental static timing: a resident timer over one netlist that
/// tracks edits (cell resize, gate swap, net rewire, clock-constraint
/// change) as a dirty set, invalidates only the affected fan-in/fan-out
/// cones, and re-propagates levelized wavefronts over the shared
/// ThreadPool machinery.
///
/// **The byte-identity contract.** Every query answers with results
/// bit-identical to a from-scratch `sta::analyze` / `sta::net_slacks` /
/// `sta::top_critical_paths` on the current netlist, at any thread
/// count. Three mechanisms make that hold:
///
///  1. Both engines evaluate all timing arithmetic through the single
///     inline kernels of sta/kernels.hpp over sta::CompactGraph — there
///     is no second copy of any formula that could round differently.
///  2. Re-propagation terminates on *bitwise* comparison: a recomputed
///     value propagates only if its bit pattern changed, so every cached
///     value is, by induction, the value a full recompute would produce.
///  3. Wavefronts are two-phase: each level's nodes are recomputed into
///     scratch in parallel (disjoint writes, shared state read-only) and
///     committed serially in index order, so thread count can influence
///     neither values nor iteration order.
///
/// The differential harness in tests/incremental_sta_test.cpp enforces
/// the contract over randomized edit scripts; docs/incremental-sta.md
/// describes the dirty-cone model.
///
/// Edits mutate the netlist *through* the timer so the dirty sets stay
/// exact. Structural changes made behind the timer's back (e.g. buffer
/// insertion adding instances) require invalidate_all(), which schedules
/// a full rebuild on the next flush.

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "netlist/netlist.hpp"
#include "sta/compact_graph.hpp"
#include "sta/propagation.hpp"
#include "sta/sta.hpp"

namespace gap::sta {

/// One netlist/constraint edit, validated before it is applied. Rejected
/// edits leave both the netlist and the timer state untouched.
struct Edit {
  enum class Kind : std::uint8_t {
    kReplaceCell,       ///< gate swap / discrete resize
    kSetDriveOverride,  ///< continuous resize (<= 0 clears the override)
    kRewireInput,       ///< move one input pin to another net
    kSetClock,          ///< clock-constraint (skew spec) change
  };
  Kind kind = Kind::kReplaceCell;

  InstanceId inst;        ///< target instance (all but kSetClock)
  CellId cell;            ///< kReplaceCell: the new cell, by id...
  std::string cell_name;  ///< ...or by library name when non-empty
  double drive = 0.0;     ///< kSetDriveOverride
  int pin = 0;            ///< kRewireInput: input pin index
  NetId net;              ///< kRewireInput: the new source net
  ClockSpec clock;        ///< kSetClock

  [[nodiscard]] static Edit replace_cell(InstanceId inst, CellId cell);
  [[nodiscard]] static Edit replace_cell_named(InstanceId inst,
                                               std::string cell_name);
  [[nodiscard]] static Edit set_drive(InstanceId inst, double drive);
  [[nodiscard]] static Edit rewire(InstanceId inst, int pin, NetId net);
  [[nodiscard]] static Edit set_clock(ClockSpec clock);
};

class IncrementalTimer {
 public:
  /// The timer keeps a reference to `nl` and mutates it through apply().
  /// `threads` follows common::resolve_threads (0 = hardware concurrency,
  /// 1 = serial). `options.instance_delay_factors`, if set, must outlive
  /// the timer and never change (MC sampling builds fresh timers).
  IncrementalTimer(netlist::Netlist& nl, StaOptions options,
                   int threads = 1);

  IncrementalTimer(const IncrementalTimer&) = delete;
  IncrementalTimer& operator=(const IncrementalTimer&) = delete;

  [[nodiscard]] netlist::Netlist& netlist() { return *nl_; }
  [[nodiscard]] const netlist::Netlist& netlist() const { return *nl_; }
  [[nodiscard]] const StaOptions& options() const { return options_; }
  [[nodiscard]] int threads() const { return threads_; }
  /// The resident timing graph, current as of the last query or flush().
  [[nodiscard]] const CompactGraph& graph() const { return cg_; }

  /// Validate `e` against the current netlist without applying it. The
  /// same checks apply() runs first; exposed so callers that must commit
  /// an edit somewhere else before mutating (gapd's write-ahead journal)
  /// can do so only for edits that will be accepted.
  [[nodiscard]] common::Status check(const Edit& e) const {
    return validate(e);
  }

  /// Validate and apply one edit. On error the netlist and every cached
  /// timing value are exactly as before (coded diagnostics: kUnknownName
  /// for ids/names that resolve to nothing, kInvalidValue for semantic
  /// violations such as a function-changing swap, kStructural for a
  /// rewire that would create a combinational cycle).
  common::Status apply(const Edit& e);

  /// apply(), additionally returning the inverse edit that undoes it.
  common::Result<Edit> apply_undoable(const Edit& e);

  /// Bring all cached arrivals / endpoint state up to date. Queries call
  /// this implicitly; it is a no-op when nothing is dirty.
  void flush();

  /// Forget everything and rebuild from scratch on the next flush. Use
  /// after mutating the netlist outside apply().
  void invalidate_all();

  /// Instances currently awaiting re-propagation (0 after flush()).
  [[nodiscard]] std::size_t pending_dirty() const;

  // --- queries; each flushes first, then answers byte-identically to
  // --- the batch engine on the current netlist ---

  /// sta::net_arrivals equivalent (valid until the next edit/flush).
  [[nodiscard]] const std::vector<double>& arrivals();

  /// sta::net_slacks equivalent.
  [[nodiscard]] std::vector<double> slacks(double period_tau);

  /// sta::analyze equivalent.
  [[nodiscard]] TimingResult timing();

  /// sta::top_critical_paths equivalent.
  [[nodiscard]] std::vector<CriticalPath> top_paths(int k);

 private:
  // Dirty-set helpers; all idempotent.
  void mark_wire_dirty(NetId n);
  void mark_inst_dirty(InstanceId id);
  void mark_ep_dirty(NetId n);
  void mark_req_dirty(NetId n);
  void mark_resize_cones(InstanceId id);

  common::Status validate(const Edit& e) const;
  /// True if `inst` (combinational) has a comb path from its output back
  /// to `net`, i.e. rewiring an input of `inst` to `net` would create a
  /// combinational cycle.
  [[nodiscard]] bool creates_comb_cycle(InstanceId inst, NetId net) const;

  void full_rebuild();
  void flush_wire_models();
  void flush_arrivals();
  /// Recompute one net's worst endpoint path and endpoint-sink count.
  void refresh_endpoint(NetId n);
  void refresh_endpoints();
  void refresh_required(double period_tau);
  [[nodiscard]] detail::WorstEndpoint scan_worst_endpoint() const;

  netlist::Netlist* nl_;
  StaOptions options_;
  int threads_;
  common::ThreadPool pool_;  ///< resident lanes for the wavefronts

  /// The flat graph all timing reads go through, including the levelized
  /// schedule that buckets every wavefront. apply() patches values in
  /// place on resizes; rewires rebuild its adjacency and schedule on
  /// flush; invalidate_all() rebuilds it entirely.
  CompactGraph cg_;

  detail::ArrivalState st_;

  /// Per-net worst endpoint path over that net's PO / sequential-D sinks
  /// (-inf when the net has none or no arrival) and endpoint-sink count.
  std::vector<double> ep_path_;
  std::vector<std::size_t> ep_count_;

  // Dirty bookkeeping: flag arrays (idempotent marking) + lists.
  std::vector<char> wire_dirty_flag_, inst_dirty_flag_, ep_dirty_flag_,
      req_dirty_flag_;
  std::vector<NetId> wire_dirty_, ep_dirty_, req_dirty_;
  std::vector<InstanceId> inst_dirty_;
  bool topo_dirty_ = false;
  bool rebuild_needed_ = true;

  /// Required-time cache, keyed by the period it was computed for.
  std::vector<double> required_;
  double req_period_tau_ = 0.0;
  bool req_valid_ = false;

  /// Scratch for the cycle DFS (sized to nets; reused across edits).
  mutable std::vector<char> dfs_mark_;
};

}  // namespace gap::sta
