#include "common/diagnostics.hpp"

namespace gap::common {

void DiagnosticEngine::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  if (capacity_ != 0 && diags_.size() > capacity_) {
    dropped_ += diags_.size() - capacity_;
    diags_.resize(capacity_);
  }
}

std::size_t DiagnosticEngine::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::size_t DiagnosticEngine::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void DiagnosticEngine::report(Diagnostic d) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ != 0 && diags_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  diags_.push_back(std::move(d));
}

void DiagnosticEngine::report(Severity severity, ErrorCode code,
                              std::string message, SourceLoc loc,
                              std::string where) {
  Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.message = std::move(message);
  d.loc = loc;
  d.where = std::move(where);
  report(std::move(d));
}

void DiagnosticEngine::report(const Status& status, Severity severity) {
  if (status.ok()) return;
  report(status.to_diagnostic(severity));
}

std::vector<Diagnostic> DiagnosticEngine::diagnostics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return diags_;
}

std::size_t DiagnosticEngine::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return diags_.size();
}

std::size_t DiagnosticEngine::count_at_least(Severity severity) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Diagnostic& d : diags_)
    if (d.severity >= severity) ++n;
  return n;
}

void DiagnosticEngine::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  diags_.clear();
  dropped_ = 0;
}

}  // namespace gap::common
