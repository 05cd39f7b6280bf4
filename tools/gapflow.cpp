/// \file gapflow.cpp
/// Command-line driver for the implementation flow — the tool a
/// downstream user actually runs:
///
///   gapflow --design alu32 --methodology custom --report all
///   gapflow --design mac16 --stages 4 --corner worst
///           --write-verilog mac16.v --write-liberty rich.lib
///   gapflow --check-verilog mac16.v --diagnostics
///   gapflow --list-designs
///
/// All logic lives in core/driver.{hpp,cpp} so the argument handling and
/// exit codes are covered by tests/driver_test.cpp; this file only binds
/// it to the process: SIGPIPE is ignored and a broken stdout (reader
/// closed the pipe mid-report) exits 5 with a diagnostic instead of a
/// silent signal death (common/io_guard.hpp).

#include <iostream>

#include "common/io_guard.hpp"
#include "core/driver.hpp"

int main(int argc, char** argv) {
  gap::common::ignore_sigpipe();
  const int code =
      gap::core::cli::run({argv, argv + argc}, std::cout, std::cerr);
  return gap::common::finish_stdout(code, std::cout, std::cerr, "gapflow");
}
