#include "common/status.hpp"

namespace gap::common {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kUsage: return "usage";
    case ErrorCode::kMissingValue: return "missing-value";
    case ErrorCode::kUnknownName: return "unknown-name";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kInvalidValue: return "invalid-value";
    case ErrorCode::kDuplicate: return "duplicate";
    case ErrorCode::kStructural: return "structural";
    case ErrorCode::kContract: return "contract";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kLint: return "lint";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadline: return "deadline";
  }
  return "unknown";
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kFatal: return "fatal";
  }
  return "unknown";
}

namespace {

std::string render(Severity severity, ErrorCode code,
                   const std::string& where, SourceLoc loc,
                   const std::string& message) {
  std::string out = to_string(severity);
  out += '[';
  out += to_string(code);
  out += ']';
  if (!where.empty() || loc.valid()) {
    out += ' ';
    out += where;
    if (loc.valid()) {
      out += ':';
      out += std::to_string(loc.line);
      out += ':';
      out += std::to_string(loc.column);
    }
  }
  out += ": ";
  out += message;
  return out;
}

}  // namespace

std::string Diagnostic::format() const {
  return render(severity, code, where, loc, message);
}

Status Status::error(ErrorCode code, std::string message, SourceLoc loc,
                     std::string where) {
  GAP_EXPECTS(code != ErrorCode::kOk);
  Status s;
  s.code_ = code;
  s.message_ = std::move(message);
  s.loc_ = loc;
  s.where_ = std::move(where);
  return s;
}

Diagnostic Status::to_diagnostic(Severity severity) const {
  Diagnostic d;
  d.severity = severity;
  d.code = code_;
  d.message = message_;
  d.loc = loc_;
  d.where = where_;
  return d;
}

std::string Status::to_string() const {
  if (ok()) return "ok";
  return render(Severity::kError, code_, where_, loc_, message_);
}

}  // namespace gap::common
