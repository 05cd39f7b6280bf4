#pragma once
/// \file report_cli.hpp
/// Implementation of the `gapreport` command-line tool: render a QoR run
/// manifest (gap::qor::write_json) as text or CSV, and diff two manifests
/// with per-stage / per-factor deltas and a regression threshold for CI
/// gating. Lives in the library (not tools/gapreport.cpp) so tests can
/// drive it in-process with captured streams.
///
///   gapreport show FILE [--csv]
///   gapreport diff BASE CURRENT [--threshold F] [--strict]
///
/// Exit codes follow gapflow's conventions (0, 2 and 5 are common::cli's
/// kExitOk, kExitUsage, kExitIo):
///   0  success; for diff: no *regression* (differences alone are fine)
///   1  regression past the threshold, --strict only
///   2  unknown flag or command
///   3  flag value malformed
///   5  file unreadable or not a manifest

#include <ostream>

#include "common/cli.hpp"

namespace gap::qor {

inline constexpr int kExitRegression = 1;
inline constexpr int kExitBadValue = 3;

/// Default relative-increase threshold for `gapreport diff`.
inline constexpr double kDefaultRegressionThreshold = 0.05;

/// Run the tool. `argv` excludes the program name (pass argc-1/argv+1
/// from main). Human output goes to `out`, errors to `err`.
int run_gapreport(int argc, const char* const* argv, std::ostream& out,
                  std::ostream& err);

}  // namespace gap::qor
