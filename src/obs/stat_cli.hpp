#pragma once
/// \file stat_cli.hpp
/// Implementation of the `gapstat` telemetry CLI: load, diff, and
/// aggregate the three observability artifacts the service emits —
/// `--metrics-out` JSON, `--expose-out` Prometheus text, and
/// `gap-flight-v1` flight-recorder dumps — without caring which is which
/// (the loader sniffs the format). Lives in the library so the test
/// suite can drive it in-process with captured streams.
///
///   gapstat show FILE            [--format text|csv|json]
///   gapstat diff OLD NEW         [--format text|csv|json] [--strict]
///   gapstat agg FILE [FILE...]   [--format text|csv|json]
///
/// Every input collapses to a sorted name -> value map (histograms
/// contribute their _count/_clamped/_min/_max series; flight dumps
/// contribute per-kind event counts), so files of different formats can
/// be diffed against each other. `agg` merges by metric kind: counters
/// sum, gauges and maxima keep the max, minima keep the min.
///
/// Exit codes (0, 2 and 5 are common::cli's kExitOk, kExitUsage, kExitIo):
///   0  success (for diff: also "differences found" without --strict)
///   1  diff --strict found differences
///   2  malformed command line
///   4  an input file failed to parse
///   5  an input file could not be read

#include <iosfwd>

#include "common/cli.hpp"

namespace gap::obs {

inline constexpr int kStatExitDiff = 1;
inline constexpr int kStatExitParse = 4;

/// Run gapstat over explicit streams. `argv` excludes the program name
/// (pass argc-1/argv+1 from main).
int run_gapstat(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err);

}  // namespace gap::obs
