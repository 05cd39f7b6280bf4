#pragma once
/// \file scaling.hpp
/// Process-generation scaling rules used by the paper's framing argument:
/// one process generation (e.g. 0.35 -> 0.25 um) is worth about 1.5x in
/// speed, so a 6-8x gap equals about five generations (section 2). Also the
/// optical-shrink model of section 8.1.1 (Intel 856: 5% shrink -> 18% speed).

namespace gap::tech {

/// Speed improvement factor per full process generation (paper's 1.5x).
inline constexpr double kSpeedPerGeneration = 1.5;

/// Number of process generations equivalent to a given speed ratio,
/// i.e. log_{1.5}(ratio). Requires ratio > 0.
[[nodiscard]] double generations_equivalent(double speed_ratio);

/// Speed gain from an optical shrink of the given linear fraction
/// (e.g. 0.05 for a 5% shrink). Model: gate delay ~ CV/I with channel
/// length; empirically calibrated so a 5% shrink yields about 18%
/// (Intel 0.25 um 856 process, paper section 8.1.1).
[[nodiscard]] double speed_from_shrink(double shrink_fraction);

}  // namespace gap::tech
