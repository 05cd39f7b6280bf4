#pragma once
/// \file shifters.hpp
/// Barrel shifter and comparator generators — the paper's canonical
/// examples of blocks where custom macro cells beat synthesized random
/// logic (sections 7.2 and 9).

#include <vector>

#include "logic/aig.hpp"

namespace gap::datapath {

using logic::Aig;
using logic::Lit;

/// Logarithmic barrel shifter: shift `data` left by the binary amount
/// `shift_amount` (LSB first), filling with zeros. Width of shift_amount
/// must be ceil(log2(width(data))) or more; excess select bits force zero.
[[nodiscard]] std::vector<Lit> build_barrel_shifter(
    Aig& aig, const std::vector<Lit>& data,
    const std::vector<Lit>& shift_amount);

/// Equality comparator: a == b.
[[nodiscard]] Lit build_equal(Aig& aig, const std::vector<Lit>& a,
                              const std::vector<Lit>& b);

/// Unsigned less-than comparator, LSB-first ripple (linear depth — what
/// naive RTL synthesis produces).
[[nodiscard]] Lit build_less_than(Aig& aig, const std::vector<Lit>& a,
                                  const std::vector<Lit>& b);

/// Unsigned less-than comparator, divide-and-conquer prefix tree
/// (logarithmic depth — the macro-cell implementation).
[[nodiscard]] Lit build_less_than_tree(Aig& aig, const std::vector<Lit>& a,
                                       const std::vector<Lit>& b);

}  // namespace gap::datapath
