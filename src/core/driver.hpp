#pragma once
/// \file driver.hpp
/// The gapflow command-line driver as a library, so argument handling and
/// exit codes are testable in-process. tools/gapflow.cpp is a thin main()
/// that forwards to run().
///
/// Exit codes (see docs/diagnostics.md):
///   0  success
///   2  usage error: unknown flag
///   3  missing or invalid flag value
///   4  unknown name (design / tech / methodology / corner / report)
///   5  input error: parse failure, duplicate, or I/O on user files
///   6  flow failure: structural, contract, or internal error in a stage

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gap::core::cli {

/// Parsed command line.
struct DriverArgs {
  std::string design = "alu32";
  std::string methodology = "reference";
  std::string tech = "asic025";
  std::string report;  // "", "timing", "power", "noise", "all"
  std::string verilog_out;
  std::string liberty_out;
  std::string check_liberty;  ///< lint a Liberty file and exit
  std::string check_verilog;  ///< lint a Verilog file and exit
  std::string trace_out;      ///< Chrome trace_event JSON output path
  std::string metrics_out;    ///< engine-metrics JSON output path
  std::string qor_out;        ///< QoR run-manifest JSON output path
  std::optional<int> stages;
  std::optional<std::string> corner;
  int mc_samples = 0;
  int threads = 0;
  bool macro_style = false;
  bool scan = false;
  bool list_designs = false;
  bool diagnostics = false;  ///< dump the per-stage FlowReport
  bool lint = false;          ///< run the gap::lint gate after mapping
  bool lint_dataflow = false;  ///< run the GL-D/GL-X gate after sizing
  bool help = false;
};

/// Map an error code to the documented process exit code.
[[nodiscard]] int exit_code_for(common::ErrorCode code);

/// Parse argv (argv[0] is the program name and ignored). Never throws or
/// aborts: bad input comes back as a failed Status whose code selects the
/// exit code and whose message is the one-line diagnostic.
[[nodiscard]] common::Result<DriverArgs> parse_args(
    const std::vector<std::string>& argv);

/// Run the full driver. Returns the process exit code; all human output
/// goes to `out`, all diagnostics to `err`.
[[nodiscard]] int run(const std::vector<std::string>& argv, std::ostream& out,
                      std::ostream& err);

}  // namespace gap::core::cli
