#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace tarpit {
namespace obs {

namespace {

/// Dense small thread ids: threads stripe counters round-robin instead
/// of hashing std::thread::id (which collides badly for pools spawned
/// back-to-back).
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string SeriesKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('=');
    key.append(v);
  }
  return key;
}

}  // namespace

size_t Counter::ShardIndex() { return ThreadOrdinal() & (kShards - 1); }

// --- Histogram. ----------------------------------------------------------

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (options_.sub_bits < 1) options_.sub_bits = 1;
  if (options_.sub_bits > 14) options_.sub_bits = 14;
  buckets_ = std::vector<std::atomic<uint64_t>>(NumBuckets(options_.sub_bits));
}

size_t Histogram::BucketIndex(int sub_bits, int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  const uint64_t sub_count = uint64_t{1} << sub_bits;
  if (v < sub_count) return static_cast<size_t>(v);  // Exact region.
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - sub_bits;
  const uint64_t sub = (v >> shift) - sub_count;
  return (static_cast<size_t>(msb - sub_bits + 1) << sub_bits) +
         static_cast<size_t>(sub);
}

int64_t Histogram::BucketLowerBound(int sub_bits, size_t index) {
  const uint64_t sub_count = uint64_t{1} << sub_bits;
  if (index < sub_count) return static_cast<int64_t>(index);
  const size_t octave = index >> sub_bits;         // == msb - sub_bits + 1
  const int msb = static_cast<int>(octave) + sub_bits - 1;
  const uint64_t sub = index & (sub_count - 1);
  return static_cast<int64_t>((sub_count + sub) << (msb - sub_bits));
}

int64_t Histogram::BucketUpperBound(int sub_bits, size_t index) {
  const uint64_t sub_count = uint64_t{1} << sub_bits;
  if (index < sub_count) return static_cast<int64_t>(index) + 1;
  const size_t octave = index >> sub_bits;
  const int msb = static_cast<int>(octave) + sub_bits - 1;
  return BucketLowerBound(sub_bits, index) +
         (int64_t{1} << (msb - sub_bits));
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketIndex(options_.sub_bits, value)].fetch_add(
      1, std::memory_order_relaxed);
  Slot& s = slots_[ThreadOrdinal() & (kShards - 1)];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  // Min/max settle quickly; after warmup these CAS loops almost never
  // run (the comparison fails first, costing a load and a branch on a
  // line this thread already owns).
  int64_t cur = s.min.load(std::memory_order_relaxed);
  while (value < cur &&
         !s.min.compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !s.max.compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
  }
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const Slot& s : slots_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::Sum() const {
  int64_t total = 0;
  for (const Slot& s : slots_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::MergeFrom(const Histogram& other) {
  assert(options_.sub_bits == other.options_.sub_bits &&
         "histogram merge requires identical bucket geometry");
  if (options_.sub_bits != other.options_.sub_bits) return;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  // Fold other's striped totals into this thread's slot; its extrema
  // into the same slot's min/max.
  Slot& s = slots_[ThreadOrdinal() & (kShards - 1)];
  s.count.fetch_add(other.Count(), std::memory_order_relaxed);
  s.sum.fetch_add(other.Sum(), std::memory_order_relaxed);
  int64_t omin = INT64_MAX;
  int64_t omax = INT64_MIN;
  for (const Slot& o : other.slots_) {
    omin = std::min(omin, o.min.load(std::memory_order_relaxed));
    omax = std::max(omax, o.max.load(std::memory_order_relaxed));
  }
  int64_t cur = s.min.load(std::memory_order_relaxed);
  while (omin < cur &&
         !s.min.compare_exchange_weak(cur, omin,
                                      std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (omax > cur &&
         !s.max.compare_exchange_weak(cur, omax,
                                      std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.sub_bits = options_.sub_bits;
  s.unit = options_.unit;
  int64_t mn = INT64_MAX;
  int64_t mx = INT64_MIN;
  for (const Slot& slot : slots_) {
    s.count += slot.count.load(std::memory_order_relaxed);
    s.sum += slot.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, slot.min.load(std::memory_order_relaxed));
    mx = std::max(mx, slot.max.load(std::memory_order_relaxed));
  }
  s.min = mn == INT64_MAX ? 0 : mn;
  s.max = mx == INT64_MIN ? 0 : mx;
  s.buckets.resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  // Rank in (0, count]; walk the cumulative distribution.
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t n = buckets[i];
    if (n == 0) continue;
    const double next = cum + static_cast<double>(n);
    if (next >= rank) {
      const double lo =
          static_cast<double>(Histogram::BucketLowerBound(sub_bits, i));
      const double hi =
          static_cast<double>(Histogram::BucketUpperBound(sub_bits, i));
      const double frac = (rank - cum) / static_cast<double>(n);
      const double v = lo + frac * (hi - lo);
      // The true extrema are tracked exactly; never report outside.
      return std::min(std::max(v, static_cast<double>(min)),
                      static_cast<double>(max));
    }
    cum = next;
  }
  return static_cast<double>(max);
}

int64_t NanosFromSeconds(double seconds) {
  if (!(seconds > 0)) return 0;
  const double ns = seconds * 1e9;
  if (ns >= 9.2e18) return INT64_MAX;
  return static_cast<int64_t>(std::llround(ns));
}

// --- Registry. -----------------------------------------------------------

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name,
                                             const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == sorted) return &m;
  }
  return nullptr;
}

int64_t RegistrySnapshot::Total(std::string_view name) const {
  int64_t total = 0;
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) total += m.value;
  }
  return total;
}

MetricRegistry::Entry* MetricRegistry::GetOrCreate(
    std::string_view name, Labels* labels, MetricKind kind,
    const HistogramOptions* hopts) {
  std::sort(labels->begin(), labels->end());
  const std::string key = SeriesKey(name, *labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    assert(it->second->kind == kind &&
           "metric re-registered with a different type");
    if (it->second->kind == kind) return it->second;
    // Release-mode fallback for a type clash: a fresh unindexed entry
    // (still exported; the name collision is visible in the dump).
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = *labels;
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(
          hopts != nullptr ? *hopts : HistogramOptions{});
      break;
  }
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  if (it == by_key_.end()) by_key_.emplace(key, raw);
  return raw;
}

Counter* MetricRegistry::GetCounter(std::string_view name, Labels labels) {
  return GetOrCreate(name, &labels, MetricKind::kCounter, nullptr)->counter
      .get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, Labels labels) {
  return GetOrCreate(name, &labels, MetricKind::kGauge, nullptr)->gauge
      .get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        Labels labels,
                                        HistogramOptions options) {
  return GetOrCreate(name, &labels, MetricKind::kHistogram, &options)
      ->histogram.get();
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.name = e->name;
    m.labels = e->labels;
    m.kind = e->kind;
    switch (e->kind) {
      case MetricKind::kCounter:
        m.value = e->counter->Value();
        break;
      case MetricKind::kGauge:
        m.value = e->gauge->Value();
        break;
      case MetricKind::kHistogram:
        m.histogram = e->histogram->Snapshot();
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

MetricRegistry* MetricRegistry::Global() {
  static MetricRegistry* global = new MetricRegistry();
  return global;
}

}  // namespace obs
}  // namespace tarpit
