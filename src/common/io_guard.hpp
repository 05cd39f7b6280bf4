#pragma once
/// \file io_guard.hpp
/// Output-path hardening for the CLI tools (gapflow, gapreport, gaplint,
/// gapd). Two failure modes exist when a tool's stdout is a pipe whose
/// reader went away:
///
///  1. SIGPIPE kills the process silently (default disposition), so the
///     shell sees a signal death instead of a diagnosed failure.
///  2. With SIGPIPE ignored, writes fail with EPIPE; iostreams record
///     badbit but nobody checks it, so the tool exits 0 having written a
///     truncated report.
///
/// Every tool main therefore calls ignore_sigpipe() first and funnels its
/// exit through finish_stdout(), which turns a broken/short-written
/// stdout into the documented I/O exit code 5 with a one-line diagnostic
/// on stderr (docs/diagnostics.md).
///
/// The input side is one whole-file reader; each caller words its own
/// diagnostic and exit code when a file cannot be opened.

#include <iosfwd>
#include <optional>
#include <string>

namespace gap::common {

/// Ignore SIGPIPE for the process (no-op on platforms without it), so a
/// closed reader surfaces as a stream error instead of killing the tool.
void ignore_sigpipe();

/// Flush `out` (the tool's stdout stream) and check that every write
/// reached it. Returns `code` when the stream is healthy; otherwise
/// reports a kIo diagnostic for `tool` on `err` and returns exit code 5.
/// A run that already failed keeps its own (nonzero) exit code.
[[nodiscard]] int finish_stdout(int code, std::ostream& out,
                                std::ostream& err, const char* tool);

/// The bytes of the file at `path`, or nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace gap::common
