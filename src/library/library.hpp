#pragma once
/// \file library.hpp
/// A standard-cell library: a set of cells with lookup by function, family
/// and drive. The library also records methodology-level capabilities that
/// the paper's analysis turns on: whether sizing is continuous (custom) or
/// discrete (any ASIC library), which clock phases are available, and the
/// guard-banding of sequential cells.

#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "library/cell.hpp"
#include "tech/technology.hpp"

namespace gap::library {

/// Immutable after construction via add(); cells are referenced by CellId.
class CellLibrary {
 public:
  CellLibrary(std::string name, tech::Technology technology);

  /// Add a cell; returns its id. Cell names must be unique.
  CellId add(Cell cell);

  [[nodiscard]] const Cell& cell(CellId id) const;
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const tech::Technology& technology() const { return tech_; }

  /// All cells implementing (func, family), sorted by ascending drive.
  [[nodiscard]] const std::vector<CellId>& cells_of(Func f, Family fam) const;

  /// True if at least one cell implements (func, family).
  [[nodiscard]] bool has(Func f, Family fam = Family::kStatic) const;

  /// Smallest cell of (func, family) whose drive is >= `min_drive`; if none
  /// is large enough, the largest available. nullopt if the function is
  /// absent from the library.
  [[nodiscard]] std::optional<CellId> best_for_drive(Func f, Family fam,
                                                     double min_drive) const;

  /// Smallest (minimum-drive) cell of (func, family), if any.
  [[nodiscard]] std::optional<CellId> smallest(Func f, Family fam) const;

  /// Find by name (exact); nullopt if absent.
  [[nodiscard]] std::optional<CellId> find(const std::string& name) const;

  // --- methodology capabilities ---

  /// Custom methodologies size transistors continuously (section 6); ASIC
  /// libraries only offer the discrete drives above.
  bool continuous_sizing = false;

  /// Number of clock phases the methodology supports (section 4.1: ASIC
  /// tools typically handle only one or two; custom multi-phase clocking
  /// enables time borrowing).
  int clock_phases = 1;

  /// True when sequential cells include skew guard-banding typical of ASIC
  /// flops (section 4.1: "registers and latches in ASICs have additional
  /// overheads as they have to be more tolerant to clock skew").
  bool guard_banded_sequentials = true;

 private:
  [[nodiscard]] static std::size_t bucket(Func f, Family fam);

  std::string name_;
  tech::Technology tech_;
  std::vector<Cell> cells_;
  // (func, family) -> cell ids sorted by drive.
  std::vector<std::vector<CellId>> by_func_;
};

}  // namespace gap::library
