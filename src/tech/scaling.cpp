#include "tech/scaling.hpp"

#include <cmath>

#include "common/check.hpp"

namespace gap::tech {

double generations_equivalent(double speed_ratio) {
  GAP_EXPECTS(speed_ratio > 0.0);
  return std::log(speed_ratio) / std::log(kSpeedPerGeneration);
}

double speed_from_shrink(double shrink_fraction) {
  GAP_EXPECTS(shrink_fraction >= 0.0 && shrink_fraction < 1.0);
  // Delay scales roughly with L^alpha in velocity-saturated short-channel
  // devices combined with capacitance reduction; alpha calibrated to the
  // paper's data point (5% shrink -> 18% speed): 1.18 = (1/0.95)^alpha
  // -> alpha = ln(1.18)/ln(1/0.95) ~ 3.23.
  constexpr double kAlpha = 3.2276;
  return std::pow(1.0 / (1.0 - shrink_fraction), kAlpha);
}

}  // namespace gap::tech
