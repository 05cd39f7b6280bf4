#pragma once
/// \file serve_cli.hpp
/// Implementation of the `gapd` resident timing daemon: recover journaled
/// sessions, then answer gap-serve-v1 frames from stdin on stdout until
/// EOF or a shutdown request. Lives in the library (not tools/gapd.cpp)
/// so tests can drive it in-process with captured streams. `gapd --help`
/// prints the flags, generated from the flag table in serve_cli.cpp
/// (syntax: common/cli.hpp).
///
/// Exit codes (common::cli's kExitOk, kExitUsage and kExitIo):
///   0  clean EOF, an acknowledged shutdown request, or a SIGTERM drain
///   2  malformed command line (unknown flag, missing or bad value)
///   5  I/O failure: journal directory unscannable, or stdout broke
///      mid-serve (client closed the pipe)
///
/// Protocol errors never affect the exit code: a malformed frame gets a
/// coded error *reply*, and the daemon keeps serving (docs/gapd.md).

#include <iosfwd>

#include "common/cli.hpp"

namespace gap::serve {

/// Install the SIGTERM latch. On POSIX, SIGTERM is *blocked*
/// process-wide — pool workers spawned later inherit the mask, so the
/// signal can never fire a handler on a thread that isn't watching for
/// it — and a dedicated watcher thread consumes it with sigwait(), sets
/// the latch, and writes a self-pipe that wakes sigterm_stdin()'s
/// select. A SIGTERM sent at any moment (even mid-request) therefore
/// ends the serve loop at the next between-requests wait, and run_gapd
/// dumps the flight recorder next to the journals before exiting 0
/// (docs/gapd.md). Call from main() before spawning any threads; tests
/// that drive run_gapd in-process simply skip it.
void install_sigterm_dump();

/// Whether SIGTERM arrived since install_sigterm_dump().
[[nodiscard]] bool sigterm_received();

/// Stdin as an istream whose blocking wait is interruptible by the
/// SIGTERM latch (POSIX: a streambuf over fd 0 that selects on stdin
/// plus the latch's self-pipe; elsewhere just std::cin). Only meaningful
/// after install_sigterm_dump(); pass it to run_gapd as `in` so a
/// SIGTERM between requests ends the serve loop instead of leaving the
/// daemon blocked in read(2).
[[nodiscard]] std::istream& sigterm_stdin();

/// Run the daemon over explicit streams. `argv` excludes the program
/// name (pass argc-1/argv+1 from main). Frames are read from `in`,
/// replies go to `out`, startup diagnostics to `err`.
int run_gapd(int argc, const char* const* argv, std::istream& in,
             std::ostream& out, std::ostream& err);

}  // namespace gap::serve
