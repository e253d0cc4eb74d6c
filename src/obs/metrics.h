#ifndef TARPIT_OBS_METRICS_H_
#define TARPIT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tarpit {
namespace obs {

/// Metric labels, e.g. {{"table", "items"}, {"pool", "heap"}}. Stored
/// sorted by key so {a,b} and {b,a} name the same time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count. Increments are lock-free and
/// striped across cache-line-padded per-thread slots so eight cores
/// hammering the same counter never share a line; Value() sums the
/// stripes (a consistent total once writers quiesce, a monotonic
/// under-estimate while they run).
class Counter {
 public:
  void Increment(int64_t n = 1) {
    slots_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 16;  // Power of two.
  struct alignas(64) Slot {
    std::atomic<int64_t> v{0};
  };
  static size_t ShardIndex();

  std::array<Slot, kShards> slots_{};
};

/// Instantaneous level (parked stalls, queue depth, active sessions).
/// A single relaxed atomic: gauges are written under their owner's
/// lock or from one site, so striping buys nothing.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

struct HistogramOptions {
  /// log2 of sub-buckets per power-of-two octave. Relative bucket
  /// width (worst-case quantile error before interpolation) is
  /// 2^-sub_bits: 7 -> 0.8% (internal latencies), 11 -> 0.05% (the
  /// delay-charged histograms that must reproduce the paper's medians
  /// to 0.1%). Memory is (64 - sub_bits) * 2^sub_bits * 8 bytes:
  /// ~57 KiB at 7, ~850 KiB at 11.
  int sub_bits = 7;
  /// Exposition hint only ("ns", "us", "bytes", "records").
  std::string unit;
};

/// Read-side copy of a histogram; all quantile math happens here so
/// the hot recording path never sorts or locks.
struct HistogramSnapshot {
  int sub_bits = 7;
  std::string unit;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  std::vector<uint64_t> buckets;

  /// q in [0,1]; linear interpolation inside the containing bucket,
  /// clamped to the recorded min/max so tails do not over-report.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-memory log-linear (HDR-style) histogram over non-negative
/// int64 values. Values < 2^sub_bits are recorded exactly; above that
/// each power-of-two octave splits into 2^sub_bits equal sub-buckets,
/// so relative error is bounded by 2^-sub_bits across the full int64
/// range (microseconds to weeks in one fixed allocation). Recording is
/// relaxed fetch_adds: one into the (shared) bucket array plus one
/// count/sum update in a cache-line-padded per-thread slot, so eight
/// cores recording concurrently contend only when their values land in
/// the same bucket. Merging and quantiles work on snapshots. Values
/// are whatever unit the call site chooses -- the histogram is
/// virtual-clock agnostic, it just counts what the injected Clock
/// measured.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void Record(int64_t value);

  /// Bucket-wise accumulate (both sides keep recording safely).
  /// Requires identical sub_bits.
  void MergeFrom(const Histogram& other);

  int64_t Count() const;
  int64_t Sum() const;

  HistogramSnapshot Snapshot() const;

  const HistogramOptions& options() const { return options_; }

  static size_t NumBuckets(int sub_bits) {
    return static_cast<size_t>(64 - sub_bits) << sub_bits;
  }
  static size_t BucketIndex(int sub_bits, int64_t value);
  /// Inclusive lower bound of bucket `index`.
  static int64_t BucketLowerBound(int sub_bits, size_t index);
  /// Exclusive upper bound of bucket `index`.
  static int64_t BucketUpperBound(int sub_bits, size_t index);

 private:
  static constexpr size_t kShards = 16;  // Power of two.
  /// Striped header stats: count/sum are write-hot on every Record and
  /// would otherwise serialize all recording threads on one cache
  /// line. Min/max live here too but are only WRITTEN when a value
  /// extends the slot's range -- after warmup they are read+branch.
  struct alignas(64) Slot {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
  };

  HistogramOptions options_;
  std::array<Slot, kShards> slots_{};
  std::vector<std::atomic<uint64_t>> buckets_;
};

/// Converts a delay in seconds to the nanosecond integer domain used
/// by the delay-charged histograms (rounds to nearest; clamps).
int64_t NanosFromSeconds(double seconds);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's point-in-time value.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;           // Counter / gauge.
  HistogramSnapshot histogram;  // Histogram only.
};

/// Point-in-time view of every registered metric, in registration
/// order. Consistency model: the registry's structure (the set of
/// metrics) is exact; values are relaxed reads, so a snapshot taken
/// while writers run is a causally-unordered but per-metric-monotonic
/// view, and exact once writers have quiesced (joined threads
/// happen-before the snapshot).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* Find(std::string_view name,
                             const Labels& labels = {}) const;
  /// Sum of a counter or gauge over all of its label sets (0 when
  /// `name` is not registered).
  int64_t Total(std::string_view name) const;
};

/// Process-wide metric namespace: name + labels -> one Counter, Gauge
/// or Histogram, created on first request and alive as long as the
/// registry (pointers returned are stable -- hot paths register once
/// and increment forever, never paying the lookup again). Lookups take
/// a mutex (cold path); recording is lock-free.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(std::string_view name, Labels labels = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {});
  /// `options` apply only on first creation of the series.
  Histogram* GetHistogram(std::string_view name, Labels labels = {},
                          HistogramOptions options = {});

  RegistrySnapshot Snapshot() const;

  size_t size() const;

  /// Shared default registry for tools and examples. Library code
  /// never reaches for this implicitly -- instrumentation is wired
  /// through options structs so metrics-off stays the default.
  static MetricRegistry* Global();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetOrCreate(std::string_view name, Labels* labels,
                     MetricKind kind, const HistogramOptions* hopts);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;       // Insertion order.
  std::unordered_map<std::string, Entry*> by_key_;    // name + labels.
};

}  // namespace obs
}  // namespace tarpit

#endif  // TARPIT_OBS_METRICS_H_
