#include "sta/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sta/kernels.hpp"

namespace gap::sta {
namespace {

using netlist::NetDriver;
using netlist::NetSink;

/// Bit-pattern equality: the propagation-termination test. Plain `==`
/// would treat -0.0 and +0.0 (and any future NaN) as converged even when
/// the stored bytes differ, breaking the byte-identity contract.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

common::Status reject(common::ErrorCode code, std::string msg) {
  return common::Status::error(code, std::move(msg), {}, "sta.incremental");
}

}  // namespace

Edit Edit::replace_cell(InstanceId inst, CellId cell) {
  Edit e;
  e.kind = Kind::kReplaceCell;
  e.inst = inst;
  e.cell = cell;
  return e;
}

Edit Edit::replace_cell_named(InstanceId inst, std::string cell_name) {
  Edit e;
  e.kind = Kind::kReplaceCell;
  e.inst = inst;
  e.cell_name = std::move(cell_name);
  return e;
}

Edit Edit::set_drive(InstanceId inst, double drive) {
  Edit e;
  e.kind = Kind::kSetDriveOverride;
  e.inst = inst;
  e.drive = drive;
  return e;
}

Edit Edit::rewire(InstanceId inst, int pin, NetId net) {
  Edit e;
  e.kind = Kind::kRewireInput;
  e.inst = inst;
  e.pin = pin;
  e.net = net;
  return e;
}

Edit Edit::set_clock(ClockSpec clock) {
  Edit e;
  e.kind = Kind::kSetClock;
  e.clock = clock;
  return e;
}

IncrementalTimer::IncrementalTimer(netlist::Netlist& nl, StaOptions options,
                                   int threads)
    : nl_(&nl),
      options_(options),
      threads_(common::resolve_threads(threads)),
      pool_(threads_) {
  GAP_EXPECTS(options_.clock.skew_fraction >= 0.0 &&
              options_.clock.skew_fraction < 1.0);
}

// --- dirty-set marking -----------------------------------------------------

void IncrementalTimer::mark_wire_dirty(NetId n) {
  if (wire_dirty_flag_[n.index()]) return;
  wire_dirty_flag_[n.index()] = 1;
  wire_dirty_.push_back(n);
}

void IncrementalTimer::mark_inst_dirty(InstanceId id) {
  if (inst_dirty_flag_[id.index()]) return;
  inst_dirty_flag_[id.index()] = 1;
  inst_dirty_.push_back(id);
}

void IncrementalTimer::mark_ep_dirty(NetId n) {
  if (ep_dirty_flag_[n.index()]) return;
  ep_dirty_flag_[n.index()] = 1;
  ep_dirty_.push_back(n);
}

void IncrementalTimer::mark_req_dirty(NetId n) {
  if (req_dirty_flag_[n.index()]) return;
  req_dirty_flag_[n.index()] = 1;
  req_dirty_.push_back(n);
}

void IncrementalTimer::mark_resize_cones(InstanceId id) {
  // A resize/swap changes the instance's own arc delay (drive, parasitic,
  // clk-to-Q) and the capacitance its input pins present. The input nets'
  // wire models pick up the pin-cap change; ep/req marks cover a
  // setup-time change at a sequential D pin even when the pin cap is
  // bitwise unchanged. The output net's wire model can shift too: under
  // optimal repeaters it reads the driver's drive for the ramp chain.
  mark_inst_dirty(id);
  mark_wire_dirty(nl_->instance(id).output);
  for (NetId in : nl_->instance(id).inputs) {
    mark_wire_dirty(in);
    mark_ep_dirty(in);
    mark_req_dirty(in);
  }
}

// --- edit validation and application ---------------------------------------

common::Status IncrementalTimer::validate(const Edit& e) const {
  const auto check_inst = [&](InstanceId id) -> common::Status {
    if (!id.valid() || id.index() >= nl_->num_instances())
      return reject(common::ErrorCode::kUnknownName,
                    "edit names an unknown instance");
    return {};
  };
  switch (e.kind) {
    case Edit::Kind::kReplaceCell: {
      if (auto s = check_inst(e.inst); !s.ok()) return s;
      CellId cell = e.cell;
      if (!e.cell_name.empty()) {
        const auto found = nl_->lib().find(e.cell_name);
        if (!found)
          return reject(common::ErrorCode::kUnknownName,
                        "cell '" + e.cell_name + "' is not in library '" +
                            nl_->lib().name() + "'");
        cell = *found;
      } else if (!cell.valid() || cell.index() >= nl_->lib().size()) {
        return reject(common::ErrorCode::kUnknownName,
                      "edit names an unknown cell id");
      }
      const library::Cell& from = nl_->cell_of(e.inst);
      const library::Cell& to = nl_->lib().cell(cell);
      if (to.func != from.func || to.num_inputs() != from.num_inputs())
        return reject(common::ErrorCode::kInvalidValue,
                      "replacement cell '" + to.name +
                          "' changes function or pin count of instance '" +
                          nl_->instance(e.inst).name + "'");
      return {};
    }
    case Edit::Kind::kSetDriveOverride: {
      if (auto s = check_inst(e.inst); !s.ok()) return s;
      if (!std::isfinite(e.drive) || e.drive < 0.0)
        return reject(common::ErrorCode::kInvalidValue,
                      "drive override must be finite and >= 0");
      return {};
    }
    case Edit::Kind::kRewireInput: {
      if (auto s = check_inst(e.inst); !s.ok()) return s;
      const netlist::Instance& inst = nl_->instance(e.inst);
      if (e.pin < 0 || static_cast<std::size_t>(e.pin) >= inst.inputs.size())
        return reject(common::ErrorCode::kInvalidValue,
                      "pin index out of range for instance '" + inst.name +
                          "'");
      if (!e.net.valid() || e.net.index() >= nl_->num_nets())
        return reject(common::ErrorCode::kUnknownName,
                      "edit names an unknown net");
      if (!nl_->is_sequential(e.inst) && creates_comb_cycle(e.inst, e.net))
        return reject(common::ErrorCode::kStructural,
                      "rewiring pin " + std::to_string(e.pin) +
                          " of instance '" + inst.name +
                          "' would create a combinational cycle");
      return {};
    }
    case Edit::Kind::kSetClock: {
      if (!std::isfinite(e.clock.skew_fraction) ||
          e.clock.skew_fraction < 0.0 || e.clock.skew_fraction >= 1.0 ||
          !std::isfinite(e.clock.extra_skew_tau))
        return reject(common::ErrorCode::kInvalidValue,
                      "clock spec requires 0 <= skew_fraction < 1 and "
                      "finite extra skew");
      return {};
    }
  }
  return reject(common::ErrorCode::kInvalidValue, "unknown edit kind");
}

bool IncrementalTimer::creates_comb_cycle(InstanceId inst, NetId net) const {
  // DFS through combinational fanout of `inst`: if its output cone drives
  // `net`, the new net -> inst edge would close a combinational loop.
  // Sequential sinks break the search (register loops are legal).
  dfs_mark_.assign(nl_->num_nets(), 0);
  std::vector<NetId> stack{nl_->instance(inst).output};
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    if (n == net) return true;
    if (dfs_mark_[n.index()]) continue;
    dfs_mark_[n.index()] = 1;
    for (const NetSink& s : nl_->net(n).sinks) {
      if (s.kind != NetSink::Kind::kInstancePin) continue;
      if (nl_->is_sequential(s.inst)) continue;
      stack.push_back(nl_->instance(s.inst).output);
    }
  }
  return false;
}

common::Status IncrementalTimer::apply(const Edit& e) {
  static common::Counter& applied =
      common::metrics().counter("sta.incremental.edits_applied");
  static common::Counter& rejected =
      common::metrics().counter("sta.incremental.edits_rejected");
  if (auto s = validate(e); !s.ok()) {
    rejected.add();
    return s;
  }
  // A pending full rebuild recomputes everything, so per-edit dirty marks
  // (whose flag arrays may not match the netlist yet) are skipped.
  const bool track = !rebuild_needed_;
  switch (e.kind) {
    case Edit::Kind::kReplaceCell: {
      CellId cell = e.cell;
      if (!e.cell_name.empty()) cell = *nl_->lib().find(e.cell_name);
      nl_->replace_cell(e.inst, cell);
      if (track) {
        mark_resize_cones(e.inst);
        // Value-only edit: patch the graph's flat cell arrays in place so
        // the next flush reads current drives/pin caps.
        cg_.refresh_instance(*nl_, e.inst);
      }
      break;
    }
    case Edit::Kind::kSetDriveOverride:
      nl_->instance(e.inst).drive_override = e.drive;
      if (track) {
        mark_resize_cones(e.inst);
        cg_.refresh_instance(*nl_, e.inst);
      }
      break;
    case Edit::Kind::kRewireInput: {
      const NetId old = nl_->instance(e.inst).inputs[e.pin];
      nl_->rewire_input(e.inst, e.pin, e.net);
      if (track && old != e.net) {
        for (NetId n : {old, e.net}) {
          mark_wire_dirty(n);
          mark_ep_dirty(n);
          mark_req_dirty(n);
        }
        mark_inst_dirty(e.inst);
        topo_dirty_ = true;  // levels may shift anywhere downstream
      }
      break;
    }
    case Edit::Kind::kSetClock:
      options_.clock = e.clock;
      req_valid_ = false;  // the data budget changed for every net
      break;
  }
  applied.add();
  return {};
}

common::Result<Edit> IncrementalTimer::apply_undoable(const Edit& e) {
  // Capture the inverse before mutating; validation happens inside
  // apply(), and a rejected edit returns its status without touching
  // anything, so the (possibly bogus) inverse is simply discarded.
  Edit inverse;
  bool have_inverse = false;
  switch (e.kind) {
    case Edit::Kind::kReplaceCell:
      if (e.inst.valid() && e.inst.index() < nl_->num_instances()) {
        inverse = Edit::replace_cell(e.inst, nl_->instance(e.inst).cell);
        have_inverse = true;
      }
      break;
    case Edit::Kind::kSetDriveOverride:
      if (e.inst.valid() && e.inst.index() < nl_->num_instances()) {
        inverse =
            Edit::set_drive(e.inst, nl_->instance(e.inst).drive_override);
        have_inverse = true;
      }
      break;
    case Edit::Kind::kRewireInput:
      if (e.inst.valid() && e.inst.index() < nl_->num_instances() &&
          e.pin >= 0 &&
          static_cast<std::size_t>(e.pin) <
              nl_->instance(e.inst).inputs.size()) {
        inverse =
            Edit::rewire(e.inst, e.pin, nl_->instance(e.inst).inputs[e.pin]);
        have_inverse = true;
      }
      break;
    case Edit::Kind::kSetClock:
      inverse = Edit::set_clock(options_.clock);
      have_inverse = true;
      break;
  }
  if (auto s = apply(e); !s.ok()) return s;
  GAP_EXPECTS(have_inverse);  // apply() validated the same addressing
  return inverse;
}

// --- rebuild and flush -----------------------------------------------------

void IncrementalTimer::invalidate_all() {
  rebuild_needed_ = true;
  topo_dirty_ = false;
  wire_dirty_.clear();
  inst_dirty_.clear();
  ep_dirty_.clear();
  req_dirty_.clear();
  req_valid_ = false;
}

std::size_t IncrementalTimer::pending_dirty() const {
  return wire_dirty_.size() + inst_dirty_.size() + ep_dirty_.size();
}

void IncrementalTimer::full_rebuild() {
  GAP_TRACE_SPAN("sta::incremental_rebuild");
  // The rebuild *is* a batch arrival pass, so it reports into the same
  // counters the batch engine uses (consumers watching sta.arrival_passes
  // see resident-timer work too), plus its own rebuild count.
  static common::Counter& passes =
      common::metrics().counter("sta.arrival_passes");
  static common::Counter& props =
      common::metrics().counter("sta.arrival_propagations");
  static common::Counter& rebuilds =
      common::metrics().counter("sta.incremental.full_rebuilds");
  passes.add();
  props.add(nl_->num_instances());
  rebuilds.add();

  const std::size_t nets = nl_->num_nets();
  const std::size_t insts = nl_->num_instances();
  cg_.build(*nl_);
  // Wire models and the levelized relaxation fan out over the resident
  // lanes exactly as a one-shot analysis does.
  compact_propagate(cg_, options_, st_, &pool_);
  ep_path_.resize(nets);
  ep_count_.resize(nets);
  for (std::uint32_t i = 0; i < nets; ++i) refresh_endpoint(NetId{i});

  wire_dirty_flag_.assign(nets, 0);
  ep_dirty_flag_.assign(nets, 0);
  req_dirty_flag_.assign(nets, 0);
  inst_dirty_flag_.assign(insts, 0);
  wire_dirty_.clear();
  inst_dirty_.clear();
  ep_dirty_.clear();
  req_dirty_.clear();
  req_valid_ = false;
  topo_dirty_ = false;
  rebuild_needed_ = false;
}

void IncrementalTimer::flush_wire_models() {
  if (wire_dirty_.empty()) return;
  const CompactGraph& g = cg_;
  std::sort(wire_dirty_.begin(), wire_dirty_.end(),
            [](NetId a, NetId b) { return a.index() < b.index(); });
  const double k = options_.corner_delay_factor;
  for (NetId n : wire_dirty_) {
    wire_dirty_flag_[n.index()] = 0;
    const WireModel m = kern::wire_model(g, n, options_);
    const double wd = k * m.delay_tau;
    const double dl = m.driver_load_units;
    const bool wd_changed = !same_bits(wd, st_.wire_delay[n.index()]);
    const bool dl_changed = !same_bits(dl, st_.driver_load[n.index()]);
    if (!wd_changed && !dl_changed) continue;
    st_.wire_delay[n.index()] = wd;
    st_.driver_load[n.index()] = dl;
    mark_ep_dirty(n);
    mark_req_dirty(n);

    const NetDriver& d = g.driver(n);
    if (dl_changed) {
      if (d.kind == NetDriver::Kind::kInstance) {
        // The driver's arc delay sees the new load; the arc term in its
        // input nets' required times does too.
        mark_inst_dirty(d.inst);
        for (NetId in : g.inputs(d.inst)) mark_req_dirty(in);
      } else if (d.kind == NetDriver::Kind::kPrimaryInput) {
        const double a = kern::pi_arrival(g, options_, st_, d.port);
        if (!same_bits(a, st_.arrival[n.index()])) {
          st_.arrival[n.index()] = a;
          for (const NetSink& s : g.sinks(n))
            if (s.kind == NetSink::Kind::kInstancePin &&
                !g.is_sequential(s.inst))
              mark_inst_dirty(s.inst);
        }
      }
    }
    if (wd_changed) {
      // Wire delay is added at every sink: combinational sinks' input
      // arrivals change (sequential sinks launch at the clock and only
      // their endpoint term moves, which mark_ep_dirty covered).
      for (const NetSink& s : g.sinks(n))
        if (s.kind == NetSink::Kind::kInstancePin &&
            !g.is_sequential(s.inst))
          mark_inst_dirty(s.inst);
    }
  }
  wire_dirty_.clear();
}

void IncrementalTimer::flush_arrivals() {
  if (inst_dirty_.empty()) return;
  const CompactGraph& g = cg_;
  const std::vector<int>& level = g.levels();
  static common::Counter& reprops =
      common::metrics().counter("sta.incremental.nodes_repropagated");
  // Incremental wavefront profile: which levels an edit's cone actually
  // touched and how wide each wave was. Wave contents are thread-count
  // invariant (the commit phase is serial and extends buckets
  // deterministically), so these stay in the deterministic section.
  static common::Counter& levels_touched =
      common::metrics().counter("sta.wave.levels_touched");
  static common::Counter& inc_waves =
      common::metrics().counter("sta.wave.incremental_waves");
  static common::Counter& changed =
      common::metrics().counter("sta.wave.arrivals_changed");
  static common::Histogram& inc_width =
      common::metrics().histogram("sta.wave.incremental_wave_width");

  // Bucket the wavefront by level; commits at level L may push newly
  // dirty instances into strictly higher buckets.
  std::vector<std::vector<InstanceId>> buckets(
      static_cast<std::size_t>(g.max_level()) + 1);
  for (InstanceId id : inst_dirty_)
    buckets[static_cast<std::size_t>(level[id.index()])].push_back(id);
  inst_dirty_.clear();

  std::vector<double> new_arr;
  std::vector<NetId> new_crit;
  std::uint64_t total = 0;
  // Batched-counting idiom (docs/observability.md): accumulate locally,
  // merge once after the loop — the flush runs per edit on the hot path.
  // The batch is thread_local so a single-edit flush doesn't pay a heap
  // allocation for the bucket array; drain_batch below leaves it zeroed
  // for the next flush.
  std::uint64_t n_waves = 0;
  std::uint64_t n_changed = 0;
  thread_local common::HistogramData width_batch;
  for (std::size_t lvl = 0; lvl < buckets.size(); ++lvl) {
    std::vector<InstanceId>& wave = buckets[lvl];
    if (wave.empty()) continue;
    std::sort(wave.begin(), wave.end(),
              [](InstanceId a, InstanceId b) { return a.index() < b.index(); });
    total += wave.size();
    ++n_waves;
    common::Histogram::accumulate(width_batch,
                                  static_cast<double>(wave.size()));

    // Phase 1 (parallel): pure recompute into scratch. Lanes read the
    // committed state and write disjoint scratch slots — race-free and
    // value-independent of the lane count.
    new_arr.resize(wave.size());
    new_crit.resize(wave.size());
    pool_.parallel_for(wave.size(), [&](std::size_t i) {
      new_arr[i] =
          kern::instance_arrival(g, options_, st_, wave[i], &new_crit[i]);
    });

    // Phase 2 (serial, index order): commit and extend the wavefront on
    // bitwise change only.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const InstanceId id = wave[i];
      inst_dirty_flag_[id.index()] = 0;
      st_.crit_input[id.index()] = new_crit[i];
      const NetId out = g.output(id);
      if (same_bits(new_arr[i], st_.arrival[out.index()])) continue;
      ++n_changed;
      st_.arrival[out.index()] = new_arr[i];
      mark_ep_dirty(out);
      for (const NetSink& s : g.sinks(out)) {
        if (s.kind != NetSink::Kind::kInstancePin) continue;
        if (g.is_sequential(s.inst)) continue;
        if (inst_dirty_flag_[s.inst.index()]) continue;
        inst_dirty_flag_[s.inst.index()] = 1;
        buckets[static_cast<std::size_t>(level[s.inst.index()])].push_back(
            s.inst);
      }
    }
  }
  reprops.add(total);
  levels_touched.add(n_waves);
  inc_waves.add(n_waves);
  changed.add(n_changed);
  inc_width.drain_batch(width_batch);
}

void IncrementalTimer::refresh_endpoint(NetId n) {
  double path = kern::kNegInf;
  std::size_t count = 0;
  if (st_.arrival[n.index()] != kern::kNegInf) {
    for (const NetSink& s : cg_.sinks(n)) {
      if (s.kind != NetSink::Kind::kPrimaryOutput &&
          !(s.kind == NetSink::Kind::kInstancePin && cg_.is_sequential(s.inst)))
        continue;
      ++count;
      path = std::max(path, kern::endpoint_path_tau(cg_, options_, st_, n, s));
    }
  }
  ep_path_[n.index()] = path;
  ep_count_[n.index()] = count;
}

void IncrementalTimer::refresh_endpoints() {
  if (ep_dirty_.empty()) return;
  std::sort(ep_dirty_.begin(), ep_dirty_.end(),
            [](NetId a, NetId b) { return a.index() < b.index(); });
  for (NetId n : ep_dirty_) {
    ep_dirty_flag_[n.index()] = 0;
    refresh_endpoint(n);
  }
  ep_dirty_.clear();
}

void IncrementalTimer::flush() {
  static common::Counter& flushes =
      common::metrics().counter("sta.incremental.flushes");
  flushes.add();
  if (rebuild_needed_) {
    full_rebuild();
    return;
  }
  if (topo_dirty_) {
    // Structural edits invalidated the CSR adjacency and the schedule.
    cg_.rebuild_structure(*nl_);
    topo_dirty_ = false;
  }
  flush_wire_models();
  flush_arrivals();
  refresh_endpoints();
}

// --- required-time cache ---------------------------------------------------

void IncrementalTimer::refresh_required(double period_tau) {
  const CompactGraph& g = cg_;
  const std::vector<int>& level = g.levels();
  static common::Counter& req_recomputed =
      common::metrics().counter("sta.incremental.required_recomputed");
  const double budget = detail::cycle_budget(options_, period_tau);

  if (!req_valid_ || !same_bits(period_tau, req_period_tau_)) {
    required_ = kern::compute_required(g, options_, st_, budget);
    req_recomputed.add(g.num_nets());
    for (NetId n : req_dirty_) req_dirty_flag_[n.index()] = 0;
    req_dirty_.clear();
    req_period_tau_ = period_tau;
    req_valid_ = true;
    return;
  }
  if (req_dirty_.empty()) return;

  // Backward wavefront, bucketed by the *driver* level of each net
  // (+1 so PI/undriven nets land in bucket 0) and processed from the
  // highest level down: required[n] reads required[] of its combinational
  // sinks' outputs, whose drivers sit at strictly higher levels.
  std::vector<std::vector<NetId>> buckets(
      static_cast<std::size_t>(g.max_level()) + 2);
  const auto bucket_of = [&](NetId n) -> std::size_t {
    const NetDriver& d = g.driver(n);
    if (d.kind != NetDriver::Kind::kInstance) return 0;
    if (g.is_sequential(d.inst)) return 1;
    return static_cast<std::size_t>(level[d.inst.index()]) + 1;
  };
  for (NetId n : req_dirty_) buckets[bucket_of(n)].push_back(n);
  req_dirty_.clear();

  std::vector<double> scratch;
  std::uint64_t total = 0;
  for (std::size_t lvl = buckets.size(); lvl-- > 0;) {
    std::vector<NetId>& wave = buckets[lvl];
    if (wave.empty()) continue;
    std::sort(wave.begin(), wave.end(),
              [](NetId a, NetId b) { return a.index() < b.index(); });
    total += wave.size();
    scratch.resize(wave.size());
    pool_.parallel_for(wave.size(), [&](std::size_t i) {
      scratch[i] = kern::required_of_net(g, options_, st_, required_,
                                         budget, wave[i]);
    });
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const NetId n = wave[i];
      req_dirty_flag_[n.index()] = 0;
      if (same_bits(scratch[i], required_[n.index()])) continue;
      required_[n.index()] = scratch[i];
      // Propagate into the nets feeding this net's combinational driver.
      const NetDriver& d = g.driver(n);
      if (d.kind != NetDriver::Kind::kInstance) continue;
      if (g.is_sequential(d.inst)) continue;
      for (NetId in : g.inputs(d.inst)) {
        if (req_dirty_flag_[in.index()]) continue;
        req_dirty_flag_[in.index()] = 1;
        buckets[bucket_of(in)].push_back(in);
      }
    }
  }
  req_recomputed.add(total);
}

// --- queries ---------------------------------------------------------------

const std::vector<double>& IncrementalTimer::arrivals() {
  flush();
  return st_.arrival;
}

std::vector<double> IncrementalTimer::slacks(double period_tau) {
  flush();
  refresh_required(period_tau);
  return kern::slacks_from_state(cg_, st_, required_);
}

detail::WorstEndpoint IncrementalTimer::scan_worst_endpoint() const {
  detail::WorstEndpoint e{kern::kNegInf, NetId{}, 0};
  for (std::size_t i = 0; i < ep_path_.size(); ++i) {
    e.count += ep_count_[i];
    if (ep_count_[i] > 0 && ep_path_[i] > e.path_tau) {
      e.path_tau = ep_path_[i];
      e.net = NetId(static_cast<std::uint32_t>(i));
    }
  }
  return e;
}

TimingResult IncrementalTimer::timing() {
  static common::Counter& analyses =
      common::metrics().counter("sta.analyses");
  analyses.add();
  flush();
  const detail::WorstEndpoint e = scan_worst_endpoint();
  return kern::timing_result_from_state(cg_, options_, st_, e);
}

std::vector<CriticalPath> IncrementalTimer::top_paths(int k) {
  if (k <= 0) return {};
  flush();
  return kern::top_paths_from_state(cg_, options_, st_, k);
}

}  // namespace gap::sta
