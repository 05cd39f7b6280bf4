#pragma once
/// \file checks.hpp
/// Structural verification and combinational ordering of a netlist. Every
/// flow stage calls verify() after transforming a netlist; a malformed
/// netlist (multiple drivers, dangling pins, combinational cycles) would
/// silently corrupt all downstream timing numbers.
///
/// The checks themselves live in structural_scan(), which reports typed
/// violations with net/instance anchors. verify() is a thin formatter over
/// that scan (the blocking subset), and gap::lint's structural rules
/// consume the same scan so the two can never disagree.

#include <string>
#include <vector>

#include "common/status.hpp"
#include "netlist/netlist.hpp"

namespace gap::netlist {

/// One structural violation with a machine-readable kind and an anchor
/// (net and/or instance id; invalid when not applicable).
struct StructuralViolation {
  enum class Kind : std::uint8_t {
    kMultiplyDriven,        ///< net claimed by more than one source
    kUndriven,              ///< net has sinks but no driver
    kSinkMismatch,          ///< net's sink list disagrees with instance pins
    kPinCountMismatch,      ///< instance pin count != cell pin count
    kOutputDriverMismatch,  ///< instance output net does not record it
    kCombinationalCycle,    ///< combinational feedback loop
  };
  Kind kind = Kind::kMultiplyDriven;
  NetId net;        ///< valid for net-anchored kinds
  InstanceId inst;  ///< valid for instance-anchored kinds
  std::string message;
};

/// Report *all* structural violations in one pass, never stopping at the
/// first. The combinational-cycle message lists the member instances
/// deduplicated and sorted by name, so it is stable across construction
/// orderings.
[[nodiscard]] std::vector<StructuralViolation> structural_scan(
    const Netlist& nl);

/// Result of a structural check: empty means the netlist is well-formed.
/// verify() reports *all* violations in one pass, never just the first,
/// as structured diagnostics (one entry each, in scan order).
struct CheckResult {
  std::vector<common::Diagnostic> diagnostics;
  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// Check: every net has exactly one driver and consistent sink lists,
/// instance pin counts match cells, no combinational cycles. Thin wrapper
/// over structural_scan(): every violation it finds is blocking.
[[nodiscard]] CheckResult verify(const Netlist& nl);

/// Topological order of all instances for combinational propagation:
/// sequential instances come first (their outputs are cycle sources),
/// then combinational instances in dependency order.
/// Fails (returns empty) if a combinational cycle exists.
[[nodiscard]] std::vector<InstanceId> topo_order(const Netlist& nl);

/// Maximum number of combinational instances on any register-to-register /
/// port-to-port path (the "logic levels" of section 4).
[[nodiscard]] int logic_depth(const Netlist& nl);

}  // namespace gap::netlist
