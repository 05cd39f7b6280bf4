#pragma once
/// \file domains.hpp
/// Clock/reset-domain naming for the lint dataflow engine. A domain is a
/// clock phase with a name: declarations come from the lint config
/// (`[[domain]]` blocks mapping a name to a phase) and from netlist port
/// annotations (`// gap: domain <port> <name>`); phases used by sequential
/// instances but never declared get deterministic auto-names. Domains are
/// represented as bits of a 32-bit set so the lattice can union them in
/// one instruction; bit 31 is reserved for "unknown domain" (an
/// unannotated data input, or overflow past 31 named domains).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace gap::lint {

/// One `[[domain]]` declaration from the lint config: a named clock
/// domain bound to a clock phase index.
struct DomainDecl {
  std::string name;
  int phase = 0;

  friend bool operator==(const DomainDecl&, const DomainDecl&) = default;
};

/// Bit reserved for data whose domain cannot be named.
inline constexpr std::uint32_t kUnknownDomainBit = 0x80000000u;
/// Named domains fit in bits [0, 31).
inline constexpr int kMaxNamedDomains = 31;

/// Deterministic name/phase <-> bit table built once per analysis.
/// Construction order (and therefore bit assignment) is reproducible:
/// config declarations first, then port annotations in port-id order,
/// then undeclared phases in ascending phase order (auto-named
/// "phase<N>").
class DomainTable {
 public:
  static DomainTable build(const netlist::Netlist& nl,
                           const std::vector<DomainDecl>& decls);

  [[nodiscard]] int num_domains() const {
    return static_cast<int>(names_.size());
  }
  [[nodiscard]] const std::string& name(int bit) const { return names_[bit]; }

  /// Single-bit mask of a clock phase (kUnknownDomainBit on overflow).
  [[nodiscard]] std::uint32_t mask_of_phase(int phase) const;
  /// Single-bit mask of a declared name; kUnknownDomainBit when unnamed.
  [[nodiscard]] std::uint32_t mask_of_name(const std::string& name) const;

  /// True when the user declared any domain (config block, port
  /// annotation, or reset annotation) — gates the "unknown domain" rule.
  [[nodiscard]] bool declared() const { return declared_; }
  /// True when the design declares a reset discipline (any reset port or
  /// any `hasreset` instance annotation) — gates GL-X004.
  [[nodiscard]] bool reset_discipline() const { return reset_discipline_; }
  /// True when sequential instances use more than one clock phase.
  [[nodiscard]] bool multi_phase() const { return multi_phase_; }
  /// Domain rules run only when the user *declared* domains (config
  /// block or port annotation). Multi-phase alone does not opt in: a
  /// two-phase latch pipeline is an intentional clocking style, not a
  /// clock-domain crossing.
  [[nodiscard]] bool enabled() const { return declared_; }

  /// Human-readable rendering of a domain set: names sorted by bit,
  /// '|'-joined, '?' for the unknown bit ("a|b", "?", "a|?").
  [[nodiscard]] std::string describe(std::uint32_t mask) const;

 private:
  int add(const std::string& name);  // returns bit or kMaxNamedDomains

  std::vector<std::string> names_;
  std::map<int, int> phase_bit_;
  std::map<std::string, int> name_bit_;
  bool declared_ = false;
  bool reset_discipline_ = false;
  bool multi_phase_ = false;
};

}  // namespace gap::lint
