#pragma once
/// \file lint_cli.hpp
/// Implementation of the `gaplint` command-line tool: run the gap::lint
/// rule catalog over a structural Verilog module and render the findings
/// as text, JSON, or SARIF. Lives in the library (not tools/gaplint.cpp)
/// so tests can drive it in-process with captured streams. `gaplint
/// --help` prints the flags, generated from the flag table in
/// lint_cli.cpp (syntax: common/cli.hpp).
///
/// Exit codes (0, 2 and 5 are common::cli's kExitOk, kExitUsage, kExitIo):
///   0  clean, or only warnings / notes / waived findings
///   1  at least one unwaived error-severity finding
///   2  malformed command line (unknown flag, missing or bad value)
///   3  input did not parse (Verilog, Liberty, or config)
///   5  file unreadable or output unwritable

#include <ostream>

#include "common/cli.hpp"

namespace gap::lint {

inline constexpr int kExitFindings = 1;
inline constexpr int kExitParse = 3;

/// Run the tool. `argv` excludes the program name (pass argc-1/argv+1
/// from main). Reports go to `out`, errors to `err`.
int run_gaplint(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err);

}  // namespace gap::lint
