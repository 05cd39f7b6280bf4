#include "wire/repeaters.hpp"

#include <cmath>

#include "common/check.hpp"

namespace gap::wire {

double unrepeated_delay_ps(const tech::Technology& t, const WireSegment& seg,
                           double driver_drive, double sink_cap_ff) {
  GAP_EXPECTS(driver_drive > 0.0);
  const double r_drv = t.unit_drive_r_ohm() / driver_drive;
  const double c_wire = seg.capacitance_ff(t);
  const double r_wire = seg.resistance_ohm(t);
  // Driver sees all of the wire plus the sink; the wire's distributed
  // resistance sees half its own cap plus the sink.
  const double fs =
      r_drv * (c_wire + sink_cap_ff) + r_wire * (c_wire / 2.0 + sink_cap_ff);
  return fs / 1000.0;
}

RepeaterPlan plan_repeaters(const tech::Technology& t, const WireSegment& seg,
                            double sink_cap_ff) {
  const double r0 = t.unit_drive_r_ohm();
  const double c0 = t.unit_inv_cin_ff;
  const double rw = seg.resistance_ohm(t);
  const double cw = seg.capacitance_ff(t);

  RepeaterPlan best;
  best.num_repeaters = 0;
  best.repeater_size = 8.0;
  best.delay_ps = unrepeated_delay_ps(t, seg, best.repeater_size, sink_cap_ff);

  if (rw <= 0.0 || cw <= 0.0) return best;

  const double k_star = std::sqrt(rw * cw / (2.0 * r0 * c0));
  const double h_star = std::sqrt(r0 * cw / (rw * c0));

  // Evaluate integer segment counts around the optimum.
  for (int k = std::max(1, static_cast<int>(k_star) - 1);
       k <= static_cast<int>(k_star) + 2; ++k) {
    const double h = std::max(1.0, h_star);
    const double seg_r = rw / k;
    const double seg_c = cw / k;
    const double drv_r = r0 / h;
    // Per segment: driver drives segment wire + next repeater input.
    const double per_seg_fs =
        drv_r * (seg_c + h * c0) + seg_r * (seg_c / 2.0 + h * c0);
    // Last segment drives the sink instead of another repeater.
    const double last_fs =
        drv_r * (seg_c + sink_cap_ff) + seg_r * (seg_c / 2.0 + sink_cap_ff);
    const double total_ps = ((k - 1) * per_seg_fs + last_fs) / 1000.0;
    if (total_ps < best.delay_ps) {
      best.delay_ps = total_ps;
      best.num_repeaters = k - 1;
      best.repeater_size = h;
    }
  }
  return best;
}

}  // namespace gap::wire
