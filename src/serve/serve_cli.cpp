#include "serve/serve_cli.hpp"

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>
#include <streambuf>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/select.h>
#include <unistd.h>

#include <thread>
#endif

#include "common/trace.hpp"
#include "serve/server.hpp"

namespace gap::serve {

namespace {

constexpr const char* kUsage =
    "usage: gapd [--journal-dir DIR] [--threads N] [--max-sessions N]\n"
    "            [--max-frame-bytes N] [--max-journal-edits N]\n"
    "            [--max-session-diags N] [--deadline-us F] [--no-recover]\n"
    "            [--trace-out FILE] [--expose-out FILE]\n"
    "            [--expose-interval N] [--flight-capacity N]\n"
    "\n"
    "Resident timing service: answers gap-serve-v1 JSON frames (one per\n"
    "line) on stdout until stdin closes or a shutdown frame arrives.\n"
    "With --journal-dir, edits are write-ahead journaled and sessions\n"
    "are recovered on startup. --expose-out rewrites a Prometheus text\n"
    "snapshot every --expose-interval requests (and at exit);\n"
    "--trace-out writes a chrome://tracing JSON of per-request spans.\n"
    "On SIGTERM the daemon finishes the in-flight request, dumps the\n"
    "flight recorder next to the journals, and exits 0. See docs/gapd.md\n"
    "and docs/observability.md.\n";

/// SIGTERM latch. All the drain work (flight dump, exposition write,
/// trace flush) happens on the serve loop after sigterm_stdin() reports
/// EOF — never in signal context. On POSIX the latch is set by a
/// dedicated sigwait() watcher thread (install_sigterm_dump); elsewhere
/// by a std::signal handler, which is legal because atomic<int> is
/// lock-free on every supported platform.
std::atomic<int> g_sigterm{0};

void sigterm_handler(int) { g_sigterm.store(1, std::memory_order_relaxed); }

#if defined(__unix__) || defined(__APPLE__)

/// Self-pipe the sigwait() watcher writes one byte into when SIGTERM
/// arrives, waking sigterm_stdin()'s select. {-1, -1} until installed.
int g_sigterm_pipe[2] = {-1, -1};

/// streambuf over fd 0 whose blocking wait selects on both stdin and the
/// SIGTERM self-pipe. A SIGTERM raised at any moment (even mid-request)
/// is consumed by the watcher thread, which makes the pipe readable; the
/// next wait returns immediately, underflow reports EOF, and the serve
/// loop drains. No async signal handler is involved, so this closes the
/// classic races of the bare-EINTR scheme (a handler firing on a pool
/// worker, or in the gap just before read(2) blocks, leaves the daemon
/// wedged) and stays correct under sanitizers that defer handler
/// delivery to interception points.
class SigtermStdinBuf final : public std::streambuf {
 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    for (;;) {
      if (g_sigterm.load(std::memory_order_relaxed) != 0)
        return traits_type::eof();
      fd_set read_fds;
      FD_ZERO(&read_fds);
      FD_SET(0, &read_fds);
      int nfds = 1;
      if (g_sigterm_pipe[0] >= 0) {
        FD_SET(g_sigterm_pipe[0], &read_fds);
        nfds = g_sigterm_pipe[0] + 1;
      }
      const int ready =
          ::select(nfds, &read_fds, nullptr, nullptr, nullptr);
      if (ready < 0) {
        if (errno == EINTR) continue;  // signal: recheck the latch
        return traits_type::eof();
      }
      if (g_sigterm.load(std::memory_order_relaxed) != 0 ||
          (g_sigterm_pipe[0] >= 0 && FD_ISSET(g_sigterm_pipe[0], &read_fds)))
        return traits_type::eof();
      if (!FD_ISSET(0, &read_fds)) continue;
      const ::ssize_t n = ::read(0, buf_, sizeof buf_);
      if (n <= 0) return traits_type::eof();
      setg(buf_, buf_, buf_ + n);
      return traits_type::to_int_type(buf_[0]);
    }
  }

 private:
  char buf_[4096];
};

#endif  // __unix__ || __APPLE__

/// Parse a non-negative number; false on garbage or trailing characters.
bool parse_number(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !(v >= 0.0)) return false;
  *out = v;
  return true;
}

int usage_error(std::ostream& err, const std::string& message) {
  err << "gapd: error: " << message << '\n' << kUsage;
  return kExitUsage;
}

}  // namespace

void install_sigterm_dump() {
#if defined(__unix__) || defined(__APPLE__)
  // Block SIGTERM process-wide before any thread exists: workers inherit
  // the mask, so the sigwait() below is the only consumer. The watcher
  // thread parks in sigwait until SIGTERM arrives, then sets the latch
  // and writes the self-pipe to wake sigterm_stdin()'s select. sigwait
  // is an ordinary blocking call — no async handler, so there is no
  // delivery race and no sanitizer interception to defer it.
  static sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &block, nullptr);
  if (::pipe(g_sigterm_pipe) != 0) {
    // No pipe: fall back to a plain handler; select() still wakes with
    // EINTR on the main thread most of the time.
    g_sigterm_pipe[0] = g_sigterm_pipe[1] = -1;
    ::pthread_sigmask(SIG_UNBLOCK, &block, nullptr);
    struct sigaction sa = {};
    sa.sa_handler = sigterm_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART: interrupt the wait
    ::sigaction(SIGTERM, &sa, nullptr);
    return;
  }
  std::thread([] {
    int sig = 0;
    if (::sigwait(&block, &sig) == 0 && sig == SIGTERM) {
      g_sigterm.store(1, std::memory_order_relaxed);
      const char byte = 1;
      (void)!::write(g_sigterm_pipe[1], &byte, 1);
    }
  }).detach();
#else
  std::signal(SIGTERM, sigterm_handler);
#endif
}

bool sigterm_received() {
  return g_sigterm.load(std::memory_order_relaxed) != 0;
}

std::istream& sigterm_stdin() {
#if defined(__unix__) || defined(__APPLE__)
  static SigtermStdinBuf buf;
  static std::istream stream(&buf);
  return stream;
#else
  return std::cin;
#endif
}

int run_gapd(int argc, const char* const* argv, std::istream& in,
             std::ostream& out, std::ostream& err) {
  ServerOptions options;
  bool recover = true;
  std::string trace_out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string* into) {
      if (i + 1 >= argc) return false;
      *into = argv[++i];
      return true;
    };
    const auto number = [&](double* into, double lo, double hi) {
      std::string text;
      if (!value(&text)) return false;
      double v = 0.0;
      if (!parse_number(text, &v) || v < lo || v > hi) return false;
      *into = v;
      return true;
    };
    // Counts and capacities: a fractional value is a usage error, never
    // silently truncated.
    const auto integer = [&](double* into, double lo, double hi) {
      return number(into, lo, hi) && *into == std::floor(*into);
    };
    double v = 0.0;
    if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return kExitOk;
    } else if (arg == "--journal-dir") {
      if (!value(&options.journal_dir))
        return usage_error(err, "--journal-dir needs a directory");
    } else if (arg == "--threads") {
      if (!integer(&v, 0, 1024))
        return usage_error(err, "--threads needs an integer in [0, 1024]");
      options.threads = static_cast<int>(v);
    } else if (arg == "--max-sessions") {
      if (!integer(&v, 1, 1024))
        return usage_error(err, "--max-sessions needs an integer in [1, 1024]");
      options.max_sessions = static_cast<std::size_t>(v);
    } else if (arg == "--max-frame-bytes") {
      if (!integer(&v, 64, 1e9))
        return usage_error(err,
                           "--max-frame-bytes needs an integer in [64, 1e9]");
      options.max_frame_bytes = static_cast<std::size_t>(v);
    } else if (arg == "--max-journal-edits") {
      if (!integer(&v, 1, 1e9))
        return usage_error(err,
                           "--max-journal-edits needs an integer in [1, 1e9]");
      options.max_journal_edits = static_cast<std::uint64_t>(v);
    } else if (arg == "--max-session-diags") {
      if (!integer(&v, 1, 1e6))
        return usage_error(err,
                           "--max-session-diags needs an integer in [1, 1e6]");
      options.max_session_diags = static_cast<std::size_t>(v);
    } else if (arg == "--deadline-us") {
      if (!number(&v, 0, 1e12))
        return usage_error(err, "--deadline-us needs a number in [0, 1e12]");
      options.default_deadline_us = v;
    } else if (arg == "--no-recover") {
      recover = false;
    } else if (arg == "--trace-out") {
      if (!value(&trace_out))
        return usage_error(err, "--trace-out needs a file path");
    } else if (arg == "--expose-out") {
      if (!value(&options.expose_out))
        return usage_error(err, "--expose-out needs a file path");
    } else if (arg == "--expose-interval") {
      // Counted in requests, not seconds, so snapshot contents stay a
      // pure function of the request stream (docs/observability.md).
      if (!integer(&v, 1, 1e9))
        return usage_error(err,
                           "--expose-interval needs an integer in [1, 1e9]");
      options.expose_every = static_cast<std::uint64_t>(v);
    } else if (arg == "--flight-capacity") {
      if (!integer(&v, 16, 1e6))
        return usage_error(err,
                           "--flight-capacity needs an integer in [16, 1e6]");
      options.flight_capacity = static_cast<std::size_t>(v);
    } else {
      return usage_error(err, "unknown flag '" + arg + "'");
    }
  }

  if (!trace_out.empty()) {
    common::tracer().clear();
    common::tracer().set_enabled(true);
  }

  Server server(std::move(options));
  if (recover) {
    const common::Status st = server.recover();
    if (!st.ok()) {
      err << "gapd: " << st.to_string() << '\n';
      return kExitIo;
    }
  }
  int code = server.serve(in, out);

  if (sigterm_received()) {
    // Graceful drain: the in-flight request already got its reply; leave
    // the flight recorder next to the journals and exit clean.
    const auto dumped = server.dump_flight("");
    err << "gapd: SIGTERM: drained";
    for (const std::string& path : dumped) err << ' ' << path;
    err << '\n';
    if (code == kExitOk || code == kExitIo) code = kExitOk;
  }
  if (!trace_out.empty()) {
    common::tracer().set_enabled(false);
    std::ofstream os(trace_out);
    if (os) {
      common::tracer().write_chrome_json(os);
    } else {
      err << "gapd: error[io]: cannot write '" << trace_out << "'\n";
      if (code == kExitOk) code = kExitIo;
    }
  }
  if (code == kExitIo)
    err << "gapd: error[io]: short write on stdout (reader closed the "
           "pipe?)\n";
  return code;
}

}  // namespace gap::serve
