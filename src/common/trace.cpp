#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "common/json.hpp"

namespace gap::common {
namespace {

using Clock = std::chrono::steady_clock;

/// One fixed origin per process so timestamps from different threads are
/// directly comparable.
Clock::time_point origin() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  // Touch the origin so it predates every span.
  (void)origin();
  return t;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin())
      .count();
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // The registry owns the buffer (shared_ptr) so events recorded on a
  // transient worker thread survive the thread; the thread_local caches
  // a raw pointer for lock-free lookup. Buffers are never deallocated
  // before process exit (clear() only empties them), so the cached
  // pointer stays valid for the thread's lifetime.
  thread_local ThreadBuffer* cache = nullptr;
  thread_local Tracer* cache_owner = nullptr;
  if (cache == nullptr || cache_owner != this) {
    auto buf = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buf->tid = static_cast<int>(buffers_.size());
    buffers_.push_back(buf);
    cache = buf.get();
    cache_owner = this;
  }
  return *cache;
}

void Tracer::record(TraceEvent ev) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  ev.tid = buf.tid;
  buf.events.push_back(std::move(ev));
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    buf->events.clear();
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> blk(buf->mutex);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a,
                                       const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.ts_us < b.ts_us;
  });
  return out;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

std::string Tracer::chrome_json() const {
  json::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  for (const TraceEvent& e : events()) {
    w.begin_object().member("name", e.name).member("cat", "gap");
    w.member("ph", "X").member("pid", 1).member("tid", e.tid);
    w.member("ts", e.ts_us).member("dur", e.dur_us).end_object();
  }
  w.end_array().member("displayTimeUnit", "ms").end_object();
  return w.take() + '\n';
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << chrome_json();
}

void TraceSpan::arm(const char* name) {
  armed_ = true;
  name_ = name;
  start_us_ = tracer().now_us();
}

void TraceSpan::finish() {
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.ts_us = start_us_;
  ev.dur_us = tracer().now_us() - start_us_;
  tracer().record(std::move(ev));
}

}  // namespace gap::common
