#pragma once
/// \file methodology.hpp
/// A design methodology: the bundle of choices section 3 of the paper
/// enumerates. Toggling groups of these knobs between their ASIC and
/// custom settings reproduces the paper's factor decomposition.

#include <optional>
#include <string>
#include <vector>

#include "designs/alu.hpp"
#include "library/library.hpp"
#include "place/place.hpp"
#include "tech/technology.hpp"

namespace gap::core {

/// Which cell library the methodology uses (section 6).
enum class LibraryKind {
  kPoorAsic,  ///< two drive strengths, single polarity
  kRichAsic,  ///< full commercial library
  kCustom,    ///< effectively continuous sizing, lean sequentials
};

/// Gate-sizing effort (section 6).
enum class SizingLevel {
  kDiscrete,    ///< TILOS over the library's drive ladder
  kContinuous,  ///< TILOS with continuous drives (custom only)
};

struct Methodology {
  std::string name;

  // --- factor 1: micro-architecture and logic design (x4.00) ---
  int pipeline_stages = 1;
  bool balanced_stages = false;  ///< custom teams balance stage delays
  designs::DatapathStyle datapath = designs::DatapathStyle::kSynthesized;
  /// Clock skew as a cycle fraction: 0.10 ASIC, 0.05 custom (section 4.1).
  double skew_fraction = 0.10;

  // --- factor 2: floorplanning and placement (x1.25) ---
  place::PlacementMode placement = place::PlacementMode::kScattered;
  /// Long nets get proper buffering in every flow ("proper driving of a
  /// wire", section 5); synthesis has done this for decades.
  bool optimal_repeaters = true;

  // --- factor 3: circuits and sizing (x1.25) ---
  LibraryKind library = LibraryKind::kRichAsic;
  /// Even a plain ASIC flow selects drive strengths from the library
  /// (section 6.2).
  SizingLevel sizing = SizingLevel::kDiscrete;

  // --- factor 4: dynamic logic (x1.50) ---
  bool dynamic_logic = false;

  // --- factor 5: process variation and accessibility (x1.90) ---
  tech::ProcessCorner corner = tech::corner_worst_case();
};

/// A typical ASIC flow of the era: unpipelined, no floorplanning, mapper
/// sizes only, static CMOS, worst-case signoff.
[[nodiscard]] Methodology typical_asic();

/// A well-driven ASIC flow: pipelined and floorplanned with discrete
/// sizing, but still static CMOS on ASIC corners (Tensilica-class).
[[nodiscard]] Methodology good_asic();

/// Full custom methodology (Alpha/PowerPC-class): deep balanced pipeline,
/// manual floorplanning, continuous sizing, domino on the paths, fast-bin
/// silicon off the best line.
[[nodiscard]] Methodology full_custom();

/// The one continuous-sizing rule: TILOS takes continuous drive steps
/// only when the methodology asks for them and `lib` can realize them.
[[nodiscard]] bool continuous_sizing(const Methodology& m,
                                     const library::CellLibrary& lib);

/// CLI-facing name lookup ("typical" | "good" | "custom" | "reference"),
/// shared by gapflow and gapd so the accepted vocabulary cannot drift.
[[nodiscard]] std::optional<Methodology> methodology_by_name(
    const std::string& name);
[[nodiscard]] std::vector<std::string> methodology_names();

}  // namespace gap::core
