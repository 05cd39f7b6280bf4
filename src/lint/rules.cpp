/// \file rules.cpp
/// The built-in gap::lint rule catalog. Each rule is a pure scan over the
/// LintContext; docs/static-analysis.md documents every rule with its
/// default severity and the knobs that feed it.

#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>

#include <bit>

#include "common/check.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "netlist/checks.hpp"

namespace gap::lint {

namespace {

using common::Severity;
using netlist::Netlist;
using netlist::StructuralViolation;
using netlist::VerilogViolation;

/// Compact `%g` rendering of a double for finding messages: at most 6
/// significant digits, so not round-trippable and not what the JSON
/// writer emits (`%.17g`-exact via `to_chars`).
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Nets invented by the lenient Verilog reader to repair connectivity;
/// the repair itself is already reported (GL-S001/GL-S003), so derived
/// rules skip them instead of piling on secondary noise.
bool is_synthetic(const std::string& name) {
  return name.rfind(netlist::kSyntheticNetPrefix, 0) == 0;
}

Finding make(AnchorKind anchor, std::string name, std::string message,
             common::SourceLoc loc = {}) {
  Finding f;
  f.anchor = anchor;
  f.anchor_name = std::move(name);
  f.message = std::move(message);
  f.loc = loc;
  return f;
}

/// Drive strength and (when the driver is an instance) the driving cell
/// of a net. Returns drive <= 0 for undriven nets and for primary inputs
/// with a non-positive external drive — callers skip those (GL-S002 and
/// GL-K003 own them).
struct DriverModel {
  double drive = 0.0;
  const library::Cell* cell = nullptr;
};

DriverModel driver_model(const Netlist& nl, NetId id) {
  const netlist::Net& n = nl.net(id);
  DriverModel m;
  switch (n.driver.kind) {
    case netlist::NetDriver::Kind::kInstance:
      m.drive = nl.drive_of(n.driver.inst);
      m.cell = &nl.cell_of(n.driver.inst);
      break;
    case netlist::NetDriver::Kind::kPrimaryInput:
      m.drive = nl.port(n.driver.port).ext_drive;
      break;
    case netlist::NetDriver::Kind::kNone:
      break;
  }
  return m;
}

/// A rule defined by its info plus a scan function.
class LambdaRule final : public Rule {
 public:
  using Fn = std::function<void(const LintContext&, std::vector<Finding>&)>;
  LambdaRule(RuleInfo info, Fn fn)
      : info_(std::move(info)), fn_(std::move(fn)) {}

  [[nodiscard]] const RuleInfo& info() const override { return info_; }
  void run(const LintContext& ctx, std::vector<Finding>& out) const override {
    fn_(ctx, out);
  }

 private:
  RuleInfo info_;
  Fn fn_;
};

void add_rule(RuleRegistry& reg, const char* id, Category cat, Severity sev,
              const char* title, LambdaRule::Fn fn) {
  reg.add(std::make_unique<LambdaRule>(
      RuleInfo{id, cat, sev, title}, std::move(fn)));
}

/// Scan-kind filter shared by the structural rules: report the matching
/// subset of the run's one structural scan (ctx.structure, which
/// run_lint() always supplies to an enabled structural rule) with the
/// violations' original messages.
void emit_scan(const LintContext& ctx,
               std::initializer_list<StructuralViolation::Kind> kinds,
               std::vector<Finding>& out) {
  GAP_EXPECTS(ctx.structure != nullptr);
  const Netlist& nl = *ctx.nl;
  for (const StructuralViolation& v : *ctx.structure) {
    bool match = false;
    for (auto k : kinds) match |= v.kind == k;
    if (!match) continue;
    if (v.kind == StructuralViolation::Kind::kCombinationalCycle) {
      out.push_back(make(AnchorKind::kDesign, nl.name(), v.message));
    } else if (v.inst.valid()) {
      out.push_back(
          make(AnchorKind::kInstance, nl.instance(v.inst).name, v.message));
    } else {
      const std::string& net = nl.net(v.net).name;
      if (v.kind == StructuralViolation::Kind::kUndriven &&
          is_synthetic(net)) {
        continue;  // repair artifact; the repair is reported by GL-S003
      }
      out.push_back(make(AnchorKind::kNet, net, v.message));
    }
  }
}

void emit_parse(const LintContext& ctx,
                std::initializer_list<VerilogViolation::Kind> kinds,
                std::vector<Finding>& out) {
  if (ctx.parse_violations == nullptr) return;
  for (const VerilogViolation& v : *ctx.parse_violations) {
    bool match = false;
    for (auto k : kinds) match |= v.kind == k;
    if (!match) continue;
    if (!v.net.empty()) {
      out.push_back(make(AnchorKind::kNet, v.net, v.message, v.loc));
    } else {
      out.push_back(make(AnchorKind::kInstance, v.instance, v.message, v.loc));
    }
  }
}

// --- structural ----------------------------------------------------------

void rule_multiply_driven(const LintContext& ctx, std::vector<Finding>& out) {
  emit_scan(ctx, {StructuralViolation::Kind::kMultiplyDriven}, out);
  emit_parse(ctx, {VerilogViolation::Kind::kMultiplyDriven}, out);
}

void rule_undriven(const LintContext& ctx, std::vector<Finding>& out) {
  emit_scan(ctx, {StructuralViolation::Kind::kUndriven}, out);
}

void rule_pin_connectivity(const LintContext& ctx, std::vector<Finding>& out) {
  emit_scan(ctx,
            {StructuralViolation::Kind::kSinkMismatch,
             StructuralViolation::Kind::kPinCountMismatch,
             StructuralViolation::Kind::kOutputDriverMismatch},
            out);
  emit_parse(ctx,
             {VerilogViolation::Kind::kFloatingInput,
              VerilogViolation::Kind::kUnconnectedOutput},
             out);
}

void rule_comb_cycle(const LintContext& ctx, std::vector<Finding>& out) {
  emit_scan(ctx, {StructuralViolation::Kind::kCombinationalCycle}, out);
}

void rule_unloaded_net(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  for (NetId id : nl.all_nets()) {
    const netlist::Net& n = nl.net(id);
    if (n.driver.kind != netlist::NetDriver::Kind::kInstance) continue;
    if (!n.sinks.empty() || n.extra_cap_units > 0.0) continue;
    if (is_synthetic(n.name)) continue;
    out.push_back(make(AnchorKind::kNet, n.name,
                       "net '" + n.name + "' is driven by instance '" +
                           nl.instance(n.driver.inst).name +
                           "' but has no sinks and no external load"));
  }
}

void rule_unreachable_instance(const LintContext& ctx,
                               std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  // Reverse BFS from the primary-output nets: a net "reaches" if some
  // path of (net -> driving instance -> its input nets) leads to a PO.
  std::vector<bool> reaches(nl.num_nets(), false);
  std::queue<NetId> frontier;
  for (PortId pid : nl.all_ports()) {
    const netlist::Port& p = nl.port(pid);
    if (p.is_input || !p.net.valid() || reaches[p.net.index()]) continue;
    reaches[p.net.index()] = true;
    frontier.push(p.net);
  }
  while (!frontier.empty()) {
    const netlist::Net& n = nl.net(frontier.front());
    frontier.pop();
    if (n.driver.kind != netlist::NetDriver::Kind::kInstance) continue;
    for (NetId in : nl.instance(n.driver.inst).inputs) {
      if (!in.valid() || reaches[in.index()]) continue;
      reaches[in.index()] = true;
      frontier.push(in);
    }
  }
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& inst = nl.instance(id);
    if (!inst.output.valid() || reaches[inst.output.index()]) continue;
    if (is_synthetic(nl.net(inst.output).name)) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "output of instance '" + inst.name +
                           "' never reaches a primary output"));
  }
}

// --- electrical ----------------------------------------------------------

void rule_max_fanout(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  for (NetId id : nl.all_nets()) {
    const netlist::Net& n = nl.net(id);
    const DriverModel d = driver_model(nl, id);
    if (d.drive <= 0.0) continue;
    const double limit = (d.cell != nullptr && d.cell->max_fanout > 0.0)
                             ? d.cell->max_fanout
                             : ctx.limits.max_fanout;
    const double fanout = static_cast<double>(n.sinks.size());
    if (fanout <= limit) continue;
    out.push_back(make(AnchorKind::kNet, n.name,
                       "net '" + n.name + "' has fanout " + num(fanout) +
                           " exceeding the limit of " + num(limit)));
  }
}

void rule_max_load(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  const tech::Technology& t = nl.lib().technology();
  for (NetId id : nl.all_nets()) {
    const netlist::Net& n = nl.net(id);
    const DriverModel d = driver_model(nl, id);
    if (d.drive <= 0.0) continue;
    const double load = nl.net_load(id);
    const double limit =
        (d.cell != nullptr && d.cell->max_capacitance_ff > 0.0)
            ? t.cap_to_units(d.cell->max_capacitance_ff)
            : ctx.limits.max_load_units_per_drive * d.drive;
    if (load <= limit) continue;
    out.push_back(make(
        AnchorKind::kNet, n.name,
        "net '" + n.name + "' carries a load of " + num(load) +
            " unit caps, past its driver's limit of " + num(limit)));
  }
}

void rule_max_transition(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  const tech::Technology& t = nl.lib().technology();
  for (NetId id : nl.all_nets()) {
    const netlist::Net& n = nl.net(id);
    const DriverModel d = driver_model(nl, id);
    if (d.drive <= 0.0) continue;
    // Transition proxy: electrical effort plus the distributed-wire
    // Elmore term (R * C / 2; ohm * fF = 1e-3 ps), in tau.
    const double r_ohm = t.wire_r_ohm_per_um * n.length_um / n.width_multiple;
    const double c_ff = t.wire_c_ff_per_um * n.length_um;
    const double slew_tau =
        nl.net_load(id) / d.drive + t.ps_to_tau(0.5 * r_ohm * c_ff * 1e-3);
    const double limit =
        (d.cell != nullptr && d.cell->max_transition_ps > 0.0)
            ? t.ps_to_tau(d.cell->max_transition_ps)
            : ctx.limits.max_transition_tau;
    if (slew_tau <= limit) continue;
    out.push_back(make(AnchorKind::kNet, n.name,
                       "net '" + n.name + "' has transition proxy " +
                           num(slew_tau) + " tau, past the limit of " +
                           num(limit) + " tau"));
  }
}

void rule_weak_driver(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  for (NetId id : nl.all_nets()) {
    const netlist::Net& n = nl.net(id);
    if (n.length_um < ctx.limits.long_wire_um) continue;
    const DriverModel d = driver_model(nl, id);
    if (d.drive <= 0.0 || d.drive >= ctx.limits.weak_drive) continue;
    out.push_back(make(
        AnchorKind::kNet, n.name,
        "net '" + n.name + "' spans " + num(n.length_um) +
            " um but is driven at only " + num(d.drive) +
            "x; upsize the driver or insert repeaters"));
  }
}

// --- clock ---------------------------------------------------------------

void rule_clock_phase(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  const int phases = nl.lib().clock_phases;
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    if (inst.clock_phase >= 0 && inst.clock_phase < phases) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "instance '" + inst.name + "' uses clock phase " +
                           std::to_string(inst.clock_phase) +
                           " outside the library's [0, " +
                           std::to_string(phases) + ") range"));
  }
}

void rule_mixed_sequentials(const LintContext& ctx,
                            std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  std::size_t dffs = 0, latches = 0;
  for (InstanceId id : nl.all_instances()) {
    const library::Cell& c = nl.cell_of(id);
    if (c.func == library::Func::kDff) ++dffs;
    if (c.func == library::Func::kLatch) ++latches;
  }
  if (dffs == 0 || latches == 0) return;
  out.push_back(make(AnchorKind::kDesign, nl.name(),
                     "design mixes " + std::to_string(dffs) +
                         " flip-flop(s) with " + std::to_string(latches) +
                         " latch(es); pick one register style per domain"));
}

void rule_unreachable_register(const LintContext& ctx,
                               std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  // Forward BFS from the primary-input nets through instances (including
  // sequentials): a register none of whose input pins is reached can
  // never be initialized from the ports.
  std::vector<bool> reached(nl.num_nets(), false);
  std::queue<NetId> frontier;
  for (PortId pid : nl.all_ports()) {
    const netlist::Port& p = nl.port(pid);
    if (!p.is_input || !p.net.valid() || reached[p.net.index()]) continue;
    reached[p.net.index()] = true;
    frontier.push(p.net);
  }
  while (!frontier.empty()) {
    const netlist::Net& n = nl.net(frontier.front());
    frontier.pop();
    for (const netlist::NetSink& s : n.sinks) {
      if (s.kind != netlist::NetSink::Kind::kInstancePin) continue;
      const NetId outn = nl.instance(s.inst).output;
      if (!outn.valid() || reached[outn.index()]) continue;
      reached[outn.index()] = true;
      frontier.push(outn);
    }
  }
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    bool fed = false;
    for (NetId in : inst.inputs) {
      fed |= in.valid() && reached[in.index()];
    }
    if (fed) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "register '" + inst.name +
                           "' is not reachable from any primary input"));
  }
}

// --- constraint ----------------------------------------------------------

void rule_no_period(const LintContext& ctx, std::vector<Finding>& out) {
  if (ctx.constraints.period_tau.has_value()) return;
  out.push_back(make(AnchorKind::kDesign, ctx.nl->name(),
                     "no clock period constraint supplied; timing rules "
                     "cannot bound the design (set --period-tau or "
                     "[constraints] period_tau)"));
}

void rule_bad_period(const LintContext& ctx, std::vector<Finding>& out) {
  if (!ctx.constraints.period_tau.has_value()) return;
  if (*ctx.constraints.period_tau > 0.0) return;
  out.push_back(make(AnchorKind::kDesign, ctx.nl->name(),
                     "clock period constraint " +
                         num(*ctx.constraints.period_tau) +
                         " tau is not positive"));
}

void rule_port_model(const LintContext& ctx, std::vector<Finding>& out) {
  const Netlist& nl = *ctx.nl;
  for (PortId pid : nl.all_ports()) {
    const netlist::Port& p = nl.port(pid);
    if (p.is_input) {
      if (p.ext_drive > 0.0) continue;
      out.push_back(make(AnchorKind::kPort, p.name,
                         "input port '" + p.name +
                             "' has non-positive external drive " +
                             num(p.ext_drive) +
                             "; electrical rules cannot model it"));
    } else if (p.net.valid()) {
      const double load = nl.net(p.net).extra_cap_units;
      if (load > 0.0) continue;
      out.push_back(make(AnchorKind::kPort, p.name,
                         "output port '" + p.name +
                             "' has non-positive external load " + num(load) +
                             "; downstream stage is unmodeled"));
    }
  }
}

// --- domain (dataflow engine) --------------------------------------------

/// The dataflow lattice, if run_lint (or gapd) computed one. Null — e.g.
/// on a combinational cycle — silences the whole GL-D/GL-X family;
/// GL-S004 already reports the cycle itself.
const DataflowEngine* engine(const LintContext& ctx) {
  if (ctx.dataflow == nullptr || !ctx.dataflow->valid()) return nullptr;
  return ctx.dataflow;
}

/// Union lattice state over a register's data inputs (flops and latches
/// have exactly one, but stay general).
NetState data_state(const DataflowEngine& e, const Netlist& nl,
                    InstanceId id) {
  NetState s{ConstVal::kVarying, 0, 0, 0};
  for (NetId in : nl.instance(id).inputs) {
    if (!in.valid()) continue;
    const NetState& is = e.state(in);
    s.taint |= is.taint;
    s.doms |= is.doms;
    s.rsts |= is.rsts;
  }
  return s;
}

/// First stage of a recognized 2-flop synchronizer: the register's output
/// feeds exactly one sink, the data pin of another register on the same
/// clock phase. The second stage never trips GL-D001 itself — its data
/// arrives from the first stage's (own-domain) output.
bool is_sync_head(const Netlist& nl, InstanceId id) {
  const netlist::Instance& inst = nl.instance(id);
  if (!inst.output.valid()) return false;
  const netlist::Net& n = nl.net(inst.output);
  if (n.sinks.size() != 1) return false;
  const netlist::NetSink& s = n.sinks.front();
  if (s.kind != netlist::NetSink::Kind::kInstancePin) return false;
  if (!nl.is_sequential(s.inst)) return false;
  return nl.instance(s.inst).clock_phase == inst.clock_phase;
}

void rule_domain_crossing(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr || !e->domains().enabled()) return;
  const Netlist& nl = *ctx.nl;
  const DomainTable& t = e->domains();
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    const std::uint32_t own = t.mask_of_phase(inst.clock_phase);
    if ((own & kUnknownDomainBit) != 0) continue;
    const std::uint32_t doms = data_state(*e, nl, id).doms;
    if ((doms & kUnknownDomainBit) != 0) continue;  // GL-D003 owns this
    // Exactly one domain, and not the register's own: a clean crossing.
    if (std::popcount(doms) != 1 || (doms & own) != 0) continue;
    if (is_sync_head(nl, id)) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "register '" + inst.name +
                           "' captures data from clock domain '" +
                           t.describe(doms) +
                           "' without a recognized 2-flop synchronizer"));
  }
}

void rule_mixed_domains(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr || !e->domains().enabled()) return;
  const Netlist& nl = *ctx.nl;
  const DomainTable& t = e->domains();
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    const std::uint32_t own = t.mask_of_phase(inst.clock_phase);
    if ((own & kUnknownDomainBit) != 0) continue;
    const std::uint32_t doms = data_state(*e, nl, id).doms;
    if ((doms & kUnknownDomainBit) != 0) continue;  // GL-D003 owns this
    if ((doms & ~own) == 0) continue;               // own-domain only
    if (std::popcount(doms) < 2) continue;          // single foreign: GL-D001
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "register '" + inst.name +
                           "' captures data converging from clock domains '" +
                           t.describe(doms) + "'"));
  }
}

void rule_unknown_domain(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr || !e->domains().enabled() || !e->domains().declared())
    return;
  const Netlist& nl = *ctx.nl;
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const std::uint32_t doms = data_state(*e, nl, id).doms;
    if ((doms & kUnknownDomainBit) == 0) continue;
    const netlist::Instance& inst = nl.instance(id);
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "register '" + inst.name +
                           "' captures data of unresolved clock domain; "
                           "annotate its source ports (// gap: domain)"));
  }
}

void rule_reset_crossing(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr || !e->domains().enabled()) return;
  const Netlist& nl = *ctx.nl;
  const DomainTable& t = e->domains();
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    const std::uint32_t own = t.mask_of_phase(inst.clock_phase);
    const std::uint32_t rsts = data_state(*e, nl, id).rsts;
    const std::uint32_t foreign = rsts & ~own & ~kUnknownDomainBit;
    if (foreign == 0) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "register '" + inst.name +
                           "' is reached by reset domain '" +
                           t.describe(foreign) +
                           "' foreign to its own clock domain '" +
                           t.describe(own) + "'"));
  }
}

// --- dataflow (constants, dead logic, X) ---------------------------------

void rule_constant_net(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr) return;
  const Netlist& nl = *ctx.nl;
  for (NetId id : nl.all_nets()) {
    const netlist::Net& n = nl.net(id);
    if (n.driver.kind != netlist::NetDriver::Kind::kInstance) continue;
    const ConstVal v = e->state(id).cval;
    if (v == ConstVal::kVarying) continue;
    if (is_synthetic(n.name)) continue;
    out.push_back(make(AnchorKind::kNet, n.name,
                       "net '" + n.name + "' is provably constant " +
                           (v == ConstVal::kOne ? "1" : "0") +
                           "; fold the driving logic away"));
  }
}

void rule_dead_logic(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr) return;
  const Netlist& nl = *ctx.nl;
  for (InstanceId id : nl.all_instances()) {
    if (nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    if (!inst.output.valid()) continue;
    const NetId o = inst.output;
    if (e->state(o).cval != ConstVal::kVarying) continue;  // GL-X001 owns it
    if (e->observed(o)) continue;
    // Structurally dead logic is GL-S006's finding; this rule reports
    // only value-dead cones (shadowed by a constant mux select).
    if (!e->reaches_po(o)) continue;
    if (is_synthetic(nl.net(o).name)) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "instance '" + inst.name +
                           "' drives dead logic: a constant mux select "
                           "makes its output unobservable"));
  }
}

void rule_disabled_enable(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr) return;
  const Netlist& nl = *ctx.nl;
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    if (inst.inputs.empty() || !inst.inputs.front().valid()) continue;
    const netlist::Net& d = nl.net(inst.inputs.front());
    if (d.driver.kind != netlist::NetDriver::Kind::kInstance) continue;
    const InstanceId mux = d.driver.inst;
    if (nl.cell_of(mux).func != library::Func::kMux2) continue;
    const std::vector<NetId>& mins = nl.instance(mux).inputs;
    if (mins.size() != 3 || !mins[2].valid()) continue;
    const ConstVal sel = e->state(mins[2]).cval;
    if (sel == ConstVal::kVarying) continue;
    const NetId picked = mins[sel == ConstVal::kOne ? 1 : 0];
    if (picked != inst.output) continue;
    out.push_back(make(AnchorKind::kInstance, inst.name,
                       "register '" + inst.name +
                           "' can never load: its input mux select is "
                           "constant and recirculates the register's own "
                           "output"));
  }
}

void rule_no_reset(const LintContext& ctx, std::vector<Finding>& out) {
  const DataflowEngine* e = engine(ctx);
  if (e == nullptr || !e->domains().reset_discipline()) return;
  const Netlist& nl = *ctx.nl;
  for (InstanceId id : nl.all_instances()) {
    if (!nl.is_sequential(id)) continue;
    const netlist::Instance& inst = nl.instance(id);
    if (inst.has_reset) continue;
    std::string msg = "register '" + inst.name +
                      "' has no reset; its power-up state is undefined";
    if (data_state(*e, nl, id).taint != 0) {
      msg += " and recirculates uninitialized state";
    }
    out.push_back(make(AnchorKind::kInstance, inst.name, std::move(msg)));
  }
}

}  // namespace

RuleRegistry default_registry() {
  RuleRegistry reg;
  add_rule(reg, "GL-S001", Category::kStructural, Severity::kError,
           "net driven by more than one source", rule_multiply_driven);
  add_rule(reg, "GL-S002", Category::kStructural, Severity::kError,
           "net with sinks but no driver", rule_undriven);
  add_rule(reg, "GL-S003", Category::kStructural, Severity::kError,
           "pin connectivity mismatch (floating or inconsistent pins)",
           rule_pin_connectivity);
  add_rule(reg, "GL-S004", Category::kStructural, Severity::kError,
           "combinational cycle", rule_comb_cycle);
  add_rule(reg, "GL-S005", Category::kStructural, Severity::kWarning,
           "driven net with no sinks or external load", rule_unloaded_net);
  add_rule(reg, "GL-S006", Category::kStructural, Severity::kWarning,
           "instance output never reaches a primary output",
           rule_unreachable_instance);
  add_rule(reg, "GL-E001", Category::kElectrical, Severity::kWarning,
           "fanout above the driver's limit", rule_max_fanout);
  add_rule(reg, "GL-E002", Category::kElectrical, Severity::kError,
           "capacitive load above the driver's limit", rule_max_load);
  add_rule(reg, "GL-E003", Category::kElectrical, Severity::kWarning,
           "output transition proxy above the limit", rule_max_transition);
  add_rule(reg, "GL-E004", Category::kElectrical, Severity::kWarning,
           "long wire with a weak driver", rule_weak_driver);
  add_rule(reg, "GL-C001", Category::kClock, Severity::kError,
           "clock phase outside the library's range", rule_clock_phase);
  add_rule(reg, "GL-C002", Category::kClock, Severity::kWarning,
           "design mixes flip-flops and latches", rule_mixed_sequentials);
  add_rule(reg, "GL-C003", Category::kClock, Severity::kWarning,
           "register unreachable from any primary input",
           rule_unreachable_register);
  add_rule(reg, "GL-D001", Category::kDomain, Severity::kError,
           "clock-domain crossing without a synchronizer",
           rule_domain_crossing);
  add_rule(reg, "GL-D002", Category::kDomain, Severity::kWarning,
           "register captures data from multiple clock domains",
           rule_mixed_domains);
  add_rule(reg, "GL-D003", Category::kDomain, Severity::kWarning,
           "register captures data of unresolved clock domain",
           rule_unknown_domain);
  add_rule(reg, "GL-D004", Category::kDomain, Severity::kWarning,
           "foreign reset domain reaches a register", rule_reset_crossing);
  add_rule(reg, "GL-K001", Category::kConstraint, Severity::kWarning,
           "no clock period constraint supplied", rule_no_period);
  add_rule(reg, "GL-K002", Category::kConstraint, Severity::kError,
           "non-positive clock period constraint", rule_bad_period);
  add_rule(reg, "GL-K003", Category::kConstraint, Severity::kWarning,
           "port with unmodeled external drive or load", rule_port_model);
  add_rule(reg, "GL-X001", Category::kDataflow, Severity::kWarning,
           "net is provably constant", rule_constant_net);
  add_rule(reg, "GL-X002", Category::kDataflow, Severity::kWarning,
           "dead logic cone behind a constant mux select", rule_dead_logic);
  add_rule(reg, "GL-X003", Category::kDataflow, Severity::kWarning,
           "register recirculates through a constant mux select",
           rule_disabled_enable);
  add_rule(reg, "GL-X004", Category::kDataflow, Severity::kWarning,
           "register without a reset in a reset-disciplined design",
           rule_no_reset);
  return reg;
}

}  // namespace gap::lint
