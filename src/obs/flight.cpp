#include "obs/flight.hpp"

#include <bit>
#include <cstring>

#include "common/json.hpp"

namespace gap::obs {

namespace json = gap::common::json;

const char* flight_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kRequestBegin: return "request_begin";
    case FlightEventKind::kRequestEnd: return "request_end";
    case FlightEventKind::kEditRejected: return "edit_rejected";
    case FlightEventKind::kJournalFsync: return "journal_fsync";
    case FlightEventKind::kDegraded: return "degraded";
    case FlightEventKind::kDeadline: return "deadline";
    case FlightEventKind::kOverloaded: return "overloaded";
    case FlightEventKind::kRecovered: return "recovered";
    case FlightEventKind::kDump: return "dump";
  }
  return "unknown";
}

std::string_view FlightEvent::detail_view() const {
  std::size_t len = 0;
  while (len < kDetailBytes && detail[len] != '\0') ++len;
  return {detail, len};
}

namespace {

[[nodiscard]] std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity == 0 ? 1 : capacity);
  mask_ = cap - 1;
  words_ = std::vector<std::atomic<std::uint64_t>>(cap * kWordsPerSlot);
}

void FlightRecorder::record(FlightEventKind kind, std::uint64_t req_id,
                            std::uint32_t code, std::uint64_t value,
                            std::string_view detail, double wall_us) {
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::atomic<std::uint64_t>* w =
      words_.data() + (seq & mask_) * kWordsPerSlot;

  // Seqlock-style slot protocol: invalidate the stamp, fence so the
  // invalidation cannot sink past the body stores, write the body, then
  // publish the new stamp with release. Readers (snapshot) re-check the
  // stamp around their body reads and skip slots caught mid-write.
  w[0].store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  w[1].store(req_id, std::memory_order_relaxed);
  w[2].store(static_cast<std::uint64_t>(code) << 8 |
                 static_cast<std::uint64_t>(kind),
             std::memory_order_relaxed);
  w[3].store(value, std::memory_order_relaxed);
  w[4].store(std::bit_cast<std::uint64_t>(wall_us),
             std::memory_order_relaxed);
  char buf[FlightEvent::kDetailBytes] = {};
  const std::size_t n = detail.size() < sizeof(buf) ? detail.size()
                                                    : sizeof(buf);
  // An empty string_view may carry a null data(); memcpy requires
  // non-null pointers even for a zero length.
  if (n > 0) std::memcpy(buf, detail.data(), n);
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, buf + i * 8, 8);
    w[5 + i].store(word, std::memory_order_relaxed);
  }
  w[0].store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t end = seq_.load(std::memory_order_acquire);
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t begin = end > cap ? end - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t s = begin; s < end; ++s) {
    const std::atomic<std::uint64_t>* w =
        words_.data() + (s & mask_) * kWordsPerSlot;
    if (w[0].load(std::memory_order_acquire) != s + 1) continue;
    FlightEvent ev;
    ev.seq = s;
    ev.req_id = w[1].load(std::memory_order_relaxed);
    const std::uint64_t kc = w[2].load(std::memory_order_relaxed);
    ev.kind = static_cast<FlightEventKind>(kc & 0xff);
    ev.code = static_cast<std::uint32_t>(kc >> 8);
    ev.value = w[3].load(std::memory_order_relaxed);
    ev.wall_us =
        std::bit_cast<double>(w[4].load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < 3; ++i) {
      const std::uint64_t word = w[5 + i].load(std::memory_order_relaxed);
      std::memcpy(ev.detail + i * 8, &word, 8);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (w[0].load(std::memory_order_relaxed) != s + 1) continue;
    out.push_back(ev);
  }
  return out;
}

std::uint64_t FlightRecorder::total() const {
  return seq_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t n = total();
  const std::uint64_t cap = mask_ + 1;
  return n > cap ? n - cap : 0;
}

void FlightRecorder::clear() {
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  seq_.store(0, std::memory_order_relaxed);
}

std::string flight_json(const std::vector<FlightEvent>& events,
                        std::size_t capacity, std::uint64_t total,
                        std::uint64_t dropped) {
  json::Writer w;
  w.begin_object().member("flight", "gap-flight-v1");
  w.member("capacity", capacity).member("total", total);
  w.member("dropped", dropped).key("events").begin_array();
  for (const FlightEvent& ev : events) {
    w.begin_object().member("seq", ev.seq).member("req", ev.req_id);
    w.member("kind", flight_kind_name(ev.kind)).member("code", ev.code);
    w.member("value", ev.value).member("detail", ev.detail_view());
    w.end_object();
  }
  // The wall member holds every non-deterministic byte of the dump and
  // must stay last: flight_deterministic_section() strips it textually.
  w.end_array().key("wall").begin_object().key("us").begin_array();
  for (const FlightEvent& ev : events) w.value(ev.wall_us);
  w.end_array().end_object().end_object();
  return w.take();
}

std::string flight_json(const FlightRecorder& rec) {
  return flight_json(rec.snapshot(), rec.capacity(), rec.total(),
                     rec.dropped());
}

std::string flight_deterministic_section(const std::string& dump) {
  const std::string key = ",\"wall\":{";
  const std::size_t pos = dump.rfind(key);
  if (pos == std::string::npos) return dump;
  return dump.substr(0, pos) + "}";
}

}  // namespace gap::obs
