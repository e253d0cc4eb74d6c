#include "stats/concurrent_count_tracker.h"

#include <algorithm>

namespace tarpit {

namespace {
/// splitmix64 finalizer: int64 keys are often sequential, so spread
/// them before striping.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

ConcurrentCountTracker::ConcurrentCountTracker(
    CountTracker* inner, ConcurrentCountTrackerOptions options)
    : inner_(inner), options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.epoch_batch == 0) options_.epoch_batch = 1;
  stripes_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ConcurrentCountTracker::~ConcurrentCountTracker() { FlushAll(); }

size_t ConcurrentCountTracker::StripeFor(int64_t key) const {
  return Mix(static_cast<uint64_t>(key)) % stripes_.size();
}

void ConcurrentCountTracker::Record(int64_t key) {
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t i = StripeFor(key);
  Stripe& s = *stripes_[i];
  bool need_flush = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.pending[key];
    ++s.pending_total;
    need_flush = s.pending_total >= options_.epoch_batch;
  }
  // The stripe mutex is released before the merge takes the spine, so
  // the only spine->stripe nesting in the system is the merge/read
  // direction (no ABBA).
  if (need_flush) FlushStripe(i);
}

PopularityStats ConcurrentCountTracker::RecordAndStats(int64_t key,
                                                       bool need_rank) {
  const uint64_t total =
      total_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  const size_t i = StripeFor(key);
  Stripe& s = *stripes_[i];
  if (need_rank) {
    // Learn, then charge, in the serial tracker's order: this access
    // and every completed one are merged before the rank is read.
    std::unique_lock<std::shared_mutex> spine(spine_mu_);
    {
      std::lock_guard<std::mutex> lock(s.mu);
      ++s.pending[key];
      ++s.pending_total;
    }
    MergeAllLocked();
    PopularityStats stats = inner_->Stats(key);
    stats.total_requests = total;
    return stats;
  }
  bool need_flush = false;
  PopularityStats stats;
  uint64_t pend = 0;
  {
    // Spine shared first, then the stripe: same spine->stripe order as
    // the merge, so while the spine is held shared this key's delta is
    // in exactly one of {stripe, inner}.
    std::shared_lock<std::shared_mutex> spine(spine_mu_);
    {
      std::lock_guard<std::mutex> lock(s.mu);
      uint64_t& p = s.pending[key];
      ++p;
      pend = p;
      ++s.pending_total;
      need_flush = s.pending_total >= options_.epoch_batch;
    }
    stats = inner_->Stats(key, /*need_rank=*/false);
  }
  if (need_flush) FlushStripe(i);
  stats.total_requests = total;
  stats.count += static_cast<double>(pend);
  stats.total_count += static_cast<double>(pend);
  stats.max_count = std::max(stats.max_count, stats.count);
  if (stats.distinct_seen == 0) stats.distinct_seen = 1;
  return stats;
}

void ConcurrentCountTracker::DrainStripeLocked(size_t i, Batch* batch) {
  Stripe& s = *stripes_[i];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.pending_total == 0) return;
  batch->insert(batch->end(), s.pending.begin(), s.pending.end());
  s.pending.clear();
  s.pending_total = 0;
}

void ConcurrentCountTracker::ApplyLocked(Batch* batch) {
  if (batch->empty()) return;  // Another flusher drained it first.
  // Deterministic replay order within the batch (merge *scheduling*
  // across stripes stays nondeterministic, which is the documented
  // epoch-level nondeterminism). A key lives in one stripe, so the
  // batch holds each key once.
  std::sort(batch->begin(), batch->end());
  for (const auto& [key, n] : *batch) inner_->RecordMany(key, n);
  if (flush_hook_) flush_hook_(*batch);
  epoch_flushes_.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentCountTracker::MergeAllLocked() {
  Batch batch;
  for (size_t i = 0; i < stripes_.size(); ++i) DrainStripeLocked(i, &batch);
  ApplyLocked(&batch);
}

void ConcurrentCountTracker::FlushStripe(size_t i) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  Batch batch;
  DrainStripeLocked(i, &batch);
  ApplyLocked(&batch);
}

void ConcurrentCountTracker::FlushAll() {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  MergeAllLocked();
}

PopularityStats ConcurrentCountTracker::Stats(int64_t key) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  MergeAllLocked();
  PopularityStats stats = inner_->Stats(key);
  stats.total_requests = total_requests_.load(std::memory_order_relaxed);
  return stats;
}

double ConcurrentCountTracker::Count(int64_t key) const {
  const Stripe& s = *stripes_[StripeFor(key)];
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  double c = inner_->Count(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.pending.find(key);
  if (it != s.pending.end()) c += static_cast<double>(it->second);
  return c;
}

void ConcurrentCountTracker::set_universe_size(uint64_t n) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  inner_->set_universe_size(n);
}

uint64_t ConcurrentCountTracker::universe_size() const {
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  return inner_->universe_size();
}

uint64_t ConcurrentCountTracker::distinct_seen() const {
  std::shared_lock<std::shared_mutex> spine(spine_mu_);
  return inner_->distinct_seen();
}

uint64_t ConcurrentCountTracker::pending_records() const {
  uint64_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->pending_total;
  }
  return total;
}

void ConcurrentCountTracker::WithExclusive(
    const std::function<void(CountTracker*)>& fn) {
  std::unique_lock<std::shared_mutex> spine(spine_mu_);
  MergeAllLocked();
  fn(inner_);
}

}  // namespace tarpit
