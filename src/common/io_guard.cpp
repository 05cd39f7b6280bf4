#include "common/io_guard.hpp"

#include <csignal>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/status.hpp"

namespace gap::common {

void ignore_sigpipe() {
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif
}

int finish_stdout(int code, std::ostream& out, std::ostream& err,
                  const char* tool) {
  out.flush();
  if (out.good() || code != 0) return code;
  err << Status::error(ErrorCode::kIo,
                       "short write on stdout (reader closed the pipe?)", {},
                       tool)
             .to_diagnostic()
             .format()
      << '\n';
  // 5 is the documented I/O exit code shared by every tool
  // (docs/diagnostics.md); gap_common cannot see core::cli::exit_code_for.
  return 5;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace gap::common
