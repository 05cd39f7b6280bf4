#pragma once
/// \file diagnostics.hpp
/// DiagnosticEngine: a thread-safe diagnostic sink. Producers (parsers,
/// checks, flow stages — including tasks running on gap::common::ThreadPool
/// lanes) report diagnostics concurrently; consumers read a consistent
/// snapshot and summary counts. Report order is the arrival order, which
/// for parallel producers is not deterministic — callers that need a
/// stable order sort the snapshot themselves.

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gap::common {

class DiagnosticEngine {
 public:
  DiagnosticEngine() = default;
  DiagnosticEngine(const DiagnosticEngine&) = delete;
  DiagnosticEngine& operator=(const DiagnosticEngine&) = delete;

  /// Bound retention: once `capacity` diagnostics are held, further
  /// reports are counted (dropped()) but not stored, so a long-lived
  /// process (gapd) cannot grow a session's diagnostics without bound.
  /// 0 (the default) keeps the historical unbounded behavior. Shrinking
  /// below the current size discards the newest surplus entries.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const;
  /// Diagnostics discarded because the engine was at capacity.
  [[nodiscard]] std::size_t dropped() const;

  void report(Diagnostic d);
  void report(Severity severity, ErrorCode code, std::string message,
              SourceLoc loc = {}, std::string where = {});
  /// Record a failed Status (no-op for an ok Status).
  void report(const Status& status, Severity severity = Severity::kError);

  /// Snapshot of all diagnostics reported so far.
  [[nodiscard]] std::vector<Diagnostic> diagnostics() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t count_at_least(Severity severity) const;
  [[nodiscard]] bool has_errors() const {
    return count_at_least(Severity::kError) > 0;
  }

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Diagnostic> diags_;
  std::size_t capacity_ = 0;  ///< 0 = unbounded
  std::size_t dropped_ = 0;
};

}  // namespace gap::common
