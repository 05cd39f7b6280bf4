#pragma once
/// \file netlist.hpp
/// Gate-level netlist: cell instances connected by single-driver nets, with
/// primary input/output ports. Each instance references a Cell in a
/// CellLibrary; physical information (position, net length) is annotated by
/// the placement stage and consumed by STA.

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "library/library.hpp"

namespace gap::netlist {

using library::CellLibrary;
using library::Func;

/// What drives a net.
struct NetDriver {
  enum class Kind : std::uint8_t { kNone, kInstance, kPrimaryInput };
  Kind kind = Kind::kNone;
  InstanceId inst;  ///< valid when kind == kInstance
  PortId port;      ///< valid when kind == kPrimaryInput
};

/// One fanout of a net.
struct NetSink {
  enum class Kind : std::uint8_t { kInstancePin, kPrimaryOutput };
  Kind kind = Kind::kInstancePin;
  InstanceId inst;  ///< valid when kind == kInstancePin
  int pin = 0;      ///< input pin index on inst
  PortId port;      ///< valid when kind == kPrimaryOutput

  friend bool operator==(const NetSink&, const NetSink&) = default;
};

struct Instance {
  std::string name;
  CellId cell;
  std::vector<NetId> inputs;  ///< size == cell's num_inputs
  NetId output;

  /// Continuous drive override used by custom sizing; <= 0 means "use the
  /// library cell's drive".
  double drive_override = 0.0;

  /// Clock phase for sequential instances (multi-phase latch clocking).
  int clock_phase = 0;

  /// Reset-discipline annotation (`// gap: hasreset <inst> 1`): the
  /// register has a reset and powers up in a defined state. Consumed by
  /// the lint dataflow engine (GL-X004); value-only, never structural.
  bool has_reset = false;

  /// Placement annotation (um); negative = unplaced.
  double x_um = -1.0;
  double y_um = -1.0;

  /// Floorplanning module this instance belongs to.
  ModuleId module;
};

struct Net {
  std::string name;
  NetDriver driver;
  std::vector<NetSink> sinks;

  /// Routed/estimated wire length (um); 0 until placement annotates it.
  double length_um = 0.0;

  /// Extra lumped capacitance at this net (unit input capacitances),
  /// e.g. primary-output loading.
  double extra_cap_units = 0.0;
};

struct Port {
  std::string name;
  NetId net;
  bool is_input = true;

  /// Drive strength modeled for primary inputs (unit-inverter multiples).
  double ext_drive = 8.0;

  /// Clock-domain annotation (`// gap: domain <port> <name>`): the named
  /// domain this input's data is synchronous to. Empty = undeclared.
  std::string domain;

  /// Tie annotation (`// gap: tie <port> 0|1`): the input is a constant
  /// tie-low/tie-high rail. -1 = not a tie.
  int tie = -1;

  /// Reset annotation (`// gap: reset <port> 1`): the input is a reset
  /// root; its domain (if named) seeds reset-domain propagation.
  bool is_reset = false;
};

/// The netlist. Instances/nets/ports are stable, index-addressed arrays;
/// deletion is not supported (transform passes build new netlists instead),
/// which keeps ids valid across the whole flow.
class Netlist {
 public:
  Netlist(std::string name, const CellLibrary* lib);

  // --- construction ---
  NetId add_net(std::string name);
  PortId add_input(std::string name, double ext_drive = 8.0);
  PortId add_output(std::string name, NetId net, double load_units = 1.0);
  InstanceId add_instance(std::string name, CellId cell,
                          std::vector<NetId> inputs, NetId output);

  /// Rewire input pin `pin` of `inst` to `net`, maintaining sink lists.
  void rewire_input(InstanceId inst, int pin, NetId net);

  /// Replace the cell of an instance (repowering / family swap). The new
  /// cell must implement the same function with the same pin count.
  void replace_cell(InstanceId inst, CellId cell);

  // --- access ---
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const CellLibrary& lib() const { return *lib_; }

  [[nodiscard]] std::size_t num_instances() const { return instances_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }

  [[nodiscard]] const Instance& instance(InstanceId id) const;
  [[nodiscard]] Instance& instance(InstanceId id);
  [[nodiscard]] const Net& net(NetId id) const;
  [[nodiscard]] Net& net(NetId id);
  [[nodiscard]] const Port& port(PortId id) const;
  [[nodiscard]] Port& port(PortId id);

  [[nodiscard]] const library::Cell& cell_of(InstanceId id) const {
    return lib_->cell(instance(id).cell);
  }

  /// Effective drive of an instance (override or library drive).
  [[nodiscard]] double drive_of(InstanceId id) const {
    const Instance& i = instance(id);
    return i.drive_override > 0.0 ? i.drive_override
                                  : lib_->cell(i.cell).drive;
  }

  /// Input capacitance one pin of `inst` presents, in unit caps.
  [[nodiscard]] double pin_cap(InstanceId id) const {
    return cell_of(id).logical_effort * drive_of(id);
  }

  [[nodiscard]] bool is_sequential(InstanceId id) const {
    return cell_of(id).is_sequential();
  }

  /// Total capacitive load on a net (pins + wire + extra), in unit caps.
  [[nodiscard]] double net_load(NetId id) const;

  /// All instance ids (for range-for loops).
  [[nodiscard]] std::vector<InstanceId> all_instances() const;
  [[nodiscard]] std::vector<NetId> all_nets() const;
  [[nodiscard]] std::vector<PortId> all_ports() const;

  /// Count of sequential instances.
  [[nodiscard]] std::size_t num_sequential() const;

  /// Sum of instance areas (um^2).
  [[nodiscard]] double total_area_um2() const;

  /// Make a unique net/instance name with the given prefix.
  [[nodiscard]] std::string fresh_name(const std::string& prefix);

  /// Structural version: bumped by every mutator that changes what the
  /// netlist *is* — adding nets/ports/instances, rewiring pins, swapping
  /// cells. Derived index structures (sta::CompactGraph) record the
  /// version they were built at and detect staleness by comparison.
  /// Value-only writes through the non-const instance()/net() accessors
  /// (drive overrides, placement, wire lengths) do not bump it; callers
  /// making those must refresh derived values themselves (the incremental
  /// timer's apply() path does).
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  std::string name_;
  const CellLibrary* lib_;
  std::vector<Instance> instances_;
  std::vector<Net> nets_;
  std::vector<Port> ports_;
  std::uint64_t fresh_counter_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace gap::netlist
