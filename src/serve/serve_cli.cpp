#include "serve/serve_cli.hpp"

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/select.h>
#include <unistd.h>

#include <thread>
#endif

#include "common/cli.hpp"
#include "common/trace.hpp"
#include "serve/server.hpp"

namespace gap::serve {

namespace {

namespace cl = common::cli;

/// Everything gapd's command line sets.
struct Options {
  ServerOptions server;
  bool recover = true;
  std::string trace_out;
  bool help = false;
};

std::vector<cl::Flag> flag_table(Options& opt) {
  ServerOptions& o = opt.server;
  return {
      cl::string_flag("--journal-dir", o.journal_dir, "DIR",
                      "write-ahead journal edits under DIR and recover its "
                      "sessions on startup"),
      cl::number_flag("--threads", o.threads, "N", {0, 1024},
                      "worker threads (0 = all cores); replies are identical "
                      "at any setting"),
      cl::number_flag("--max-sessions", o.max_sessions, "N", {1, 1024},
                      "resident sessions at once"),
      cl::number_flag("--max-frame-bytes", o.max_frame_bytes, "N", {64, 1e9},
                      "longest request frame"),
      cl::number_flag("--max-journal-edits", o.max_journal_edits, "N",
                      {1, 1e9},
                      "edit records per session journal before edits bounce "
                      "overloaded"),
      cl::number_flag("--max-session-diags", o.max_session_diags, "N",
                      {1, 1e6}, "diagnostics kept per session"),
      cl::number_flag("--deadline-us", o.default_deadline_us, "F", {0, 1e12},
                      "default per-request budget in microseconds (0 = none)"),
      cl::switch_flag("--no-recover", opt.recover,
                      "do not replay journals on startup", false),
      cl::string_flag("--trace-out", opt.trace_out, "FILE",
                      "write a chrome://tracing JSON of per-request spans"),
      cl::string_flag("--expose-out", o.expose_out, "FILE",
                      "rewrite a Prometheus text snapshot every "
                      "--expose-interval requests (and at exit)"),
      // Counted in requests, not seconds, so snapshot contents stay a pure
      // function of the request stream (docs/observability.md).
      cl::number_flag("--expose-interval", o.expose_every, "N", {1, 1e9},
                      "requests between exposition snapshots"),
      cl::number_flag("--flight-capacity", o.flight_capacity, "N", {16, 1e6},
                      "flight recorder ring size in events"),
      cl::help_flag(opt.help),
  };
}

std::string usage_text() {
  Options unused;
  return cl::usage(
      "usage: gapd [options]\n\n"
      "Resident timing service: answers gap-serve-v1 JSON frames (one per\n"
      "line) on stdout until stdin closes or a shutdown frame arrives.\n"
      "On SIGTERM the daemon finishes the in-flight request, dumps the\n"
      "flight recorder next to the journals, and exits 0. See docs/gapd.md\n"
      "and docs/observability.md.\n",
      {{"options:", flag_table(unused)}},
      "exit codes: 0 clean EOF, shutdown request or SIGTERM drain,\n"
      "2 usage, 5 I/O failure\n");
}

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
  Options opt;
  const std::vector<std::string> args(argv, argv + argc);
  if (const common::Status s = cl::parse(args, flag_table(opt)); !s.ok()) {
    err << "gapd: error: " << s.message() << '\n' << usage_text();
    return cl::kExitUsage;
  }
  if (opt.help) {
    out << usage_text();
    return cl::kExitOk;
  }

  const std::string& trace_out = opt.trace_out;
  if (!trace_out.empty()) {
    common::tracer().clear();
    common::tracer().set_enabled(true);
  }

  Server server(std::move(opt.server));
  if (opt.recover) {
    const common::Status st = server.recover();
    if (!st.ok()) {
      err << "gapd: " << st.to_string() << '\n';
      return cl::kExitIo;
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
    if (code == cl::kExitOk || code == cl::kExitIo) code = cl::kExitOk;
  }
  if (!trace_out.empty()) {
    common::tracer().set_enabled(false);
    std::ofstream os(trace_out);
    if (os) {
      common::tracer().write_chrome_json(os);
    } else {
      err << "gapd: error[io]: cannot write '" << trace_out << "'\n";
      if (code == cl::kExitOk) code = cl::kExitIo;
    }
  }
  if (code == cl::kExitIo)
    err << "gapd: error[io]: short write on stdout (reader closed the "
           "pipe?)\n";
  return code;
}

}  // namespace gap::serve
