#pragma once
/// \file htree.hpp
/// Clock distribution model (section 4.1: "there is typically 10% clock
/// skew or more for ASICs, compared with about 5% clock skew for a high
/// quality custom design of clocking trees; the 600 MHz Alpha 21264 has
/// 75 ps global clock skew, or about 5%").
///
/// The tree is a geometric H-tree: each level halves the covered span and
/// quadruples the subtree count; each branch is an optimally repeated wire
/// driven by a level buffer. Skew accumulates as a systematic imbalance
/// fraction of each stage's delay (layout asymmetry, load mismatch) plus a
/// random per-stage mismatch combined in quadrature. ASIC trees are
/// auto-generated with looser matching; custom trees are hand-tuned and
/// deskewed.

#include "tech/technology.hpp"

namespace gap::clock {

enum class TreeQuality {
  kAsic,    ///< automatic CTS, conservative matching
  kCustom,  ///< hand-tuned grid/tree with deskew
};

struct ClockTreeOptions {
  double die_w_um = 7000.0;
  double die_h_um = 7000.0;
  int num_sinks = 4096;  ///< flip-flop count serviced by the tree
  TreeQuality quality = TreeQuality::kAsic;
};

struct ClockTreeResult {
  int levels = 0;
  double insertion_delay_ps = 0.0;  ///< root-to-leaf latency
  double skew_ps = 0.0;             ///< max-min leaf arrival spread

  /// Skew as a fraction of a given clock period.
  [[nodiscard]] double skew_fraction(double period_ps) const {
    return period_ps > 0.0 ? skew_ps / period_ps : 0.0;
  }
};

/// Build and characterize the H-tree.
[[nodiscard]] ClockTreeResult build_htree(const tech::Technology& t,
                                          const ClockTreeOptions& options);

}  // namespace gap::clock
