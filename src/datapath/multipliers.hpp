#pragma once
/// \file multipliers.hpp
/// Multiplier generators: the linear-depth array multiplier (what naive
/// synthesis yields) versus the log-depth Wallace tree + fast final adder
/// (the custom macro-cell style the paper's section 7.2 mentions).

#include <vector>

#include "datapath/adders.hpp"
#include "logic/aig.hpp"

namespace gap::datapath {

enum class MultiplierKind {
  kArray,    ///< row-by-row carry-propagate accumulation
  kWallace,  ///< 3:2 compressor tree + Kogge-Stone final add
};

/// Build an unsigned width x width -> 2*width multiplier.
[[nodiscard]] std::vector<Lit> build_multiplier(Aig& aig, MultiplierKind kind,
                                                const std::vector<Lit>& a,
                                                const std::vector<Lit>& b);

/// Standalone multiplier network for tests/benchmarks.
[[nodiscard]] Aig make_multiplier_aig(MultiplierKind kind, int width);

}  // namespace gap::datapath
