#pragma once
/// \file journal.hpp
/// gapd's write-ahead edit journal. One file per session; one checksummed
/// record per line:
///
///   {"crc":"<16 hex>","rec":<compact JSON>}
///
/// where crc is FNV-1a 64 over the compact serialization of `rec`. The
/// first record is the session header (design/methodology/tech/corner —
/// everything needed to rebuild the flow deterministically); every later
/// record is `{"seq":N,"edit":{...}}` in the gap-serve-v1 edit codec.
///
/// The ordering contract (docs/gapd.md): an edit is appended and fsync'd
/// *before* it is applied to the resident timer, and the append happens
/// only for edits the timer has already validated (IncrementalTimer::
/// check). Replay therefore reconstructs exactly the acknowledged state:
///
///  - a checksum/parse failure on the *last* line is a torn tail — the
///    crash interrupted a write that was never acknowledged, so the line
///    is dropped silently;
///  - a failure on any *earlier* line is real corruption — replay stops
///    at the verified prefix and the session comes back degraded.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"

namespace gap::serve {

/// FNV-1a 64-bit hash of `bytes`, rendered as 16 lowercase hex digits.
[[nodiscard]] std::string fnv1a64_hex(std::string_view bytes);

/// Wrap one compact record in its checksummed journal line (no newline).
/// `rec_json` must be the compact `dump()` form — the checksum at replay
/// is recomputed over the re-dump of the parsed record, which round-trips
/// byte-exactly only for compact output.
[[nodiscard]] std::string journal_line(const std::string& rec_json);

/// How a replay scan ended.
enum class ReplayHalt : std::uint8_t {
  kClean,     ///< every line verified
  kTornTail,  ///< only the final line failed (interrupted append)
  kCorrupt,   ///< an interior line failed — journal damaged after the fact
};

/// The longest verified prefix of a journal file.
struct Replay {
  std::vector<common::json::Value> records;  ///< parsed `rec` payloads
  ReplayHalt halt = ReplayHalt::kClean;
};

/// Scan journal text (as read from disk) into its verified prefix. Never
/// fails: damage is reported through `halt`, and `records` always holds
/// everything up to the first bad line.
[[nodiscard]] Replay replay_journal(const std::string& text);

/// Append-only journal writer. Each append writes one full line and
/// flushes it to stable storage (fsync where the platform has it) before
/// returning, so a record the server acknowledged survives SIGKILL.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open `path` for append, creating it if needed.
  [[nodiscard]] static common::Result<Journal> open(const std::string& path);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Records appended through this writer (not counting replayed ones).
  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  /// Bytes appended through this writer (checksum framing included).
  [[nodiscard]] std::uint64_t bytes_appended() const {
    return bytes_appended_;
  }

  /// Checksum-wrap `rec_json`, append the line, and sync it to disk.
  /// On failure nothing may be assumed durable; the caller must not
  /// apply the edit it was trying to commit.
  [[nodiscard]] common::Status append(const std::string& rec_json);

  void close();

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
};

}  // namespace gap::serve
