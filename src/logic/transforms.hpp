#pragma once
/// \file transforms.hpp
/// Technology-independent passes over the Aig: library-aware lowering of
/// structural nodes, which returns a freshly built network (structural
/// hashing in the builder deduplicates and drops dead logic
/// automatically), and a functional equivalence check.

#include "logic/aig.hpp"

namespace gap::logic {

/// Options for expand_structural: which structural node kinds to decompose
/// into the AND-inverter base (used when the target library lacks the
/// corresponding cells).
struct ExpandOptions {
  bool expand_xor = false;
  bool expand_mux = false;
  bool expand_maj = false;
};

/// Decompose structural XOR/MUX/MAJ nodes into AND-inverter logic
/// according to `opts` (library-aware lowering).
[[nodiscard]] Aig expand_structural(const Aig& aig, const ExpandOptions& opts);

/// Functional equivalence check by exhaustive simulation when the PI count
/// is <= 16, else by `rounds` x 64 random patterns. Networks must have the
/// same PI/PO counts (correspondence by index).
[[nodiscard]] bool equivalent(const Aig& a, const Aig& b, int rounds = 64);

}  // namespace gap::logic
