#include "serve/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define GAP_SERVE_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#else
#define GAP_SERVE_POSIX_IO 0
#include <fstream>
#endif

namespace gap::serve {

namespace json = common::json;
using common::ErrorCode;
using common::Result;
using common::Status;

std::string fnv1a64_hex(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string journal_line(const std::string& rec_json) {
  json::Writer w;
  w.begin_object().member("crc", fnv1a64_hex(rec_json)).key("rec");
  w.raw(rec_json).end_object();
  return w.take();
}

Replay replay_journal(const std::string& text) {
  GAP_TRACE_SPAN("serve::journal_replay");
  Replay r;
  std::size_t pos = 0;
  bool bad = false;  // a line failed, pending "was it the last line?"
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    const bool has_newline = eol != std::string::npos;
    if (!has_newline) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = has_newline ? eol + 1 : text.size();
    if (line.empty()) continue;

    auto parsed = json::Value::parse_checked(line);
    const json::Value* crc = parsed.ok() ? parsed->find("crc") : nullptr;
    const json::Value* rec = parsed.ok() ? parsed->find("rec") : nullptr;
    if (crc == nullptr || !crc->is_string() || rec == nullptr ||
        crc->str != fnv1a64_hex(rec->dump())) {
      // Keep scanning: a later verified line upgrades this to kCorrupt.
      bad = true;
    } else if (bad) {
      // A verified record *after* a failed line: the damage was not a
      // torn tail but interior corruption. Stop at the good prefix.
      r.halt = ReplayHalt::kCorrupt;
      return r;
    } else {
      r.records.push_back(*rec);
    }
  }
  if (bad) r.halt = ReplayHalt::kTornTail;
  return r;
}

Journal::~Journal() { close(); }

Journal::Journal(Journal&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      appended_(other.appended_),
      bytes_appended_(other.bytes_appended_) {
  other.fd_ = -1;
  other.appended_ = 0;
  other.bytes_appended_ = 0;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    appended_ = other.appended_;
    bytes_appended_ = other.bytes_appended_;
    other.fd_ = -1;
    other.appended_ = 0;
    other.bytes_appended_ = 0;
  }
  return *this;
}

void Journal::close() {
#if GAP_SERVE_POSIX_IO
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

Result<Journal> Journal::open(const std::string& path) {
  Journal j;
  j.path_ = path;
#if GAP_SERVE_POSIX_IO
  j.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (j.fd_ < 0)
    return Status::error(ErrorCode::kIo,
                         "cannot open journal '" + path +
                             "': " + std::strerror(errno),
                         {}, "serve");
#else
  // No durability guarantee without POSIX fsync; keep the protocol alive
  // by treating the journal as best-effort buffered I/O.
  std::ofstream probe(path, std::ios::app);
  if (!probe)
    return Status::error(ErrorCode::kIo, "cannot open journal '" + path + "'",
                         {}, "serve");
  j.fd_ = 0;  // sentinel: "open" for the portable path
#endif
  return j;
}

Status Journal::append(const std::string& rec_json) {
  GAP_TRACE_SPAN("serve::journal_append");
  if (!is_open())
    return Status::error(ErrorCode::kIo, "journal is not open", {}, "serve");
  const std::string line = journal_line(rec_json) + '\n';
#if GAP_SERVE_POSIX_IO
  std::size_t off = 0;
  while (off < line.size()) {
    const ::ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::error(ErrorCode::kIo,
                           "journal write failed: " +
                               std::string(std::strerror(errno)),
                           {}, "serve");
    }
    off += static_cast<std::size_t>(n);
  }
  {
    GAP_TRACE_SPAN("serve::journal_fsync");
    if (::fsync(fd_) != 0)
      return Status::error(ErrorCode::kIo,
                           "journal fsync failed: " +
                               std::string(std::strerror(errno)),
                           {}, "serve");
  }
#else
  std::ofstream out(path_, std::ios::app);
  out << line << std::flush;
  if (!out)
    return Status::error(ErrorCode::kIo, "journal write failed", {}, "serve");
#endif
  ++appended_;
  bytes_appended_ += line.size();
  return {};
}

}  // namespace gap::serve
