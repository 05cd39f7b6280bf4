#include "common/metrics.hpp"

#include <bit>
#include <cmath>

#include "common/json.hpp"

namespace gap::common {
namespace {

/// Monotonic CAS update: keep the extreme of `bits` and the stored value
/// under `cmp` on the decoded doubles. Only nonnegative finite doubles
/// are stored, for which raw-bit ordering matches double ordering.
template <typename Cmp>
void update_extreme(std::atomic<std::uint64_t>& slot, double v, Cmp cmp) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cmp(v, std::bit_cast<double>(cur)) &&
         !slot.compare_exchange_weak(cur, bits, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(double v) {
  if (!std::isfinite(v)) return;  // NaN / inf samples are dropped
  if (v < 0.0) {
    v = 0.0;
    clamped_.fetch_add(1, std::memory_order_relaxed);
  }
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
  update_extreme(min_bits_, v, [](double a, double b) { return a < b; });
  update_extreme(max_bits_, v, [](double a, double b) { return a > b; });
}

void Histogram::record_batch(const HistogramData& d) {
  if (d.count == 0 && d.clamped == 0) return;
  for (std::size_t i = 0; i < d.buckets.size(); ++i)
    if (d.buckets[i] != 0)
      buckets_[i].fetch_add(d.buckets[i], std::memory_order_relaxed);
  if (d.clamped != 0) clamped_.fetch_add(d.clamped, std::memory_order_relaxed);
  if (d.count != 0) {
    count_.fetch_add(d.count, std::memory_order_release);
    update_extreme(min_bits_, d.min, [](double a, double b) { return a < b; });
    update_extreme(max_bits_, d.max, [](double a, double b) { return a > b; });
  }
}

void Histogram::drain_batch(HistogramData& d) {
  if (d.count == 0 && d.clamped == 0) return;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (d.buckets[i] == 0) continue;
    buckets_[i].fetch_add(d.buckets[i], std::memory_order_relaxed);
    d.buckets[i] = 0;
  }
  if (d.clamped != 0) clamped_.fetch_add(d.clamped, std::memory_order_relaxed);
  if (d.count != 0) {
    count_.fetch_add(d.count, std::memory_order_release);
    update_extreme(min_bits_, d.min, [](double a, double b) { return a < b; });
    update_extreme(max_bits_, d.max, [](double a, double b) { return a > b; });
  }
  d.count = 0;
  d.clamped = 0;
}

HistogramData Histogram::data() const {
  HistogramData d;
  d.count = count_.load(std::memory_order_acquire);
  d.clamped = clamped_.load(std::memory_order_relaxed);
  if (d.count > 0) {
    d.min = std::bit_cast<double>(min_bits_.load(std::memory_order_acquire));
    d.max = std::bit_cast<double>(max_bits_.load(std::memory_order_acquire));
  }
  d.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i)
    d.buckets[static_cast<std::size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
  return d;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  clamped_.store(0, std::memory_order_relaxed);
  min_bits_.store(kMinInit, std::memory_order_relaxed);
  max_bits_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsSnapshot::counter_deltas_since(const MetricsSnapshot& before) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : counters) {
    std::uint64_t prev = 0;
    if (auto it = before.counters.find(name); it != before.counters.end())
      prev = it->second;
    if (value > prev) out.emplace_back(name, value - prev);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->data();
  return s;
}

bool MetricsRegistry::is_wall_metric(const std::string& name) {
  return name.rfind("wall.", 0) == 0;
}

std::string MetricsRegistry::json() const {
  const MetricsSnapshot s = snapshot();
  json::Writer w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, v] : s.counters)
    if (!is_wall_metric(name)) w.member(name, v);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, v] : s.gauges)
    if (!is_wall_metric(name)) w.member(name, std::isfinite(v) ? v : 0.0);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : s.histograms) {
    if (is_wall_metric(name)) continue;
    w.key(name).begin_object();
    w.member("count", h.count).member("clamped", h.clamped);
    w.member("min", h.min).member("max", h.max).key("buckets").begin_array();
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      if (h.buckets[i] != 0)
        w.begin_array().value(i).value(h.buckets[i]).end_array();
    w.end_array().end_object();
  }
  w.end_object().end_object();
  return w.take() + '\n';
}

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace gap::common
