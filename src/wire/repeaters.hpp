#pragma once
/// \file repeaters.hpp
/// Optimal repeater (buffer) insertion for long wires — the "proper
/// driving of a wire" of section 5. For a wire with total resistance R and
/// capacitance C driven through inverters of unit resistance R0 and input
/// capacitance C0, the classic optimum is
///   k* = sqrt(R C / (2 R0 C0)) segments,
///   h* = sqrt(R0 C / (R C0)) sized drivers,
/// giving delay linear in length instead of quadratic.

#include "tech/technology.hpp"
#include "wire/elmore.hpp"

namespace gap::wire {

struct RepeaterPlan {
  int num_repeaters = 0;     ///< k - 1 inserted inverters (k segments)
  double repeater_size = 1.0;  ///< drive of each repeater
  double delay_ps = 0.0;       ///< end-to-end delay including repeaters
};

/// Delay of an unrepeated wire driven by a driver of the given drive
/// strength (unit multiples), including the driver's own delay into the
/// wire, in ps.
[[nodiscard]] double unrepeated_delay_ps(const tech::Technology& t,
                                         const WireSegment& seg,
                                         double driver_drive,
                                         double sink_cap_ff);

/// Optimal repeater plan for the segment. If the wire is short enough that
/// repeaters do not help, returns num_repeaters == 0 with the unrepeated
/// delay for a reasonable (size-8) driver.
[[nodiscard]] RepeaterPlan plan_repeaters(const tech::Technology& t,
                                          const WireSegment& seg,
                                          double sink_cap_ff);

}  // namespace gap::wire
