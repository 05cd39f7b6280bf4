#pragma once
/// \file status.hpp
/// Recoverable-error vocabulary: error codes, severity levels, source
/// locations, diagnostics, and the Status / Result<T> carriers used on
/// every untrusted-input and orchestration path (Liberty/Verilog readers,
/// netlist checks, the flow driver). The contract macros in check.hpp
/// remain abort-hard for *internal* invariants; anything a hostile input
/// file or a bad command line can trigger must travel through this layer
/// instead (see docs/diagnostics.md for the boundary).

#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace gap::common {

/// Stable error taxonomy, the one vocabulary of CLI diagnostics and gapd
/// error replies. The CLI maps these to its documented exit codes
/// (core/driver.hpp), so renumbering is an interface change.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kUsage,         ///< malformed command line (unknown flag)
  kMissingValue,  ///< flag present but its required value is not
  kUnknownName,   ///< name not found in a registry / library
  kParse,         ///< malformed input text (syntax)
  kInvalidValue,  ///< parsed but semantically invalid value
  kDuplicate,     ///< name collision where uniqueness is required
  kStructural,    ///< netlist structural violation
  kContract,      ///< captured internal contract violation
  kIo,            ///< file read/write failure
  kInternal,      ///< unexpected internal failure
  kLint,          ///< design static-analysis finding (gap::lint)
  kOverloaded,    ///< gapd backpressure: a resource cap would be exceeded
  kDeadline,      ///< gapd watchdog: the per-request deadline expired
};

[[nodiscard]] const char* to_string(ErrorCode code);

enum class Severity : std::uint8_t { kNote, kWarning, kError, kFatal };

[[nodiscard]] const char* to_string(Severity severity);

/// Position in an input text. Lines and columns are 1-based; line 0 means
/// "no location" (errors not tied to input text).
struct SourceLoc {
  int line = 0;
  int column = 0;
  [[nodiscard]] bool valid() const { return line > 0; }
};

/// One reportable event. `where` names the input stream or subsystem the
/// diagnostic refers to ("liberty", "verilog", a flow stage name, ...).
struct Diagnostic {
  Severity severity = Severity::kError;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  SourceLoc loc;
  std::string where;

  /// One-line rendering: `error[parse] liberty:12:7: expected ';'`.
  [[nodiscard]] std::string format() const;
};

/// Success, or one error with code / message / optional location.
class Status {
 public:
  Status() = default;  ///< ok

  [[nodiscard]] static Status error(ErrorCode code, std::string message,
                                    SourceLoc loc = {},
                                    std::string where = {});

  [[nodiscard]] bool ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  [[nodiscard]] SourceLoc loc() const { return loc_; }
  [[nodiscard]] const std::string& where() const { return where_; }

  [[nodiscard]] Diagnostic to_diagnostic(
      Severity severity = Severity::kError) const;

  /// One-line rendering (same shape as Diagnostic::format); "ok" if ok().
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  SourceLoc loc_;
  std::string where_;
};

/// A value or a Status explaining why there is none. Asking a failed
/// Result for its value is a programming error (contract violation), not
/// a recoverable condition — callers must branch on ok() first.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(implicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    GAP_EXPECTS(!status_.ok());
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() & {
    GAP_EXPECTS(ok());
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    GAP_EXPECTS(ok());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    GAP_EXPECTS(ok());
    return *std::move(value_);
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace gap::common
