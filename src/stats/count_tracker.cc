#include "stats/count_tracker.h"

namespace tarpit {

namespace {
// Renormalize before raw values approach the limit of double precision.
// At this threshold a unit increment is still representable relative to
// the largest raw count.
constexpr double kRenormalizeThreshold = 1e100;
}  // namespace

CountTracker::CountTracker(uint64_t universe_size,
                           double decay_per_request)
    : universe_size_(universe_size),
      decay_per_request_(decay_per_request) {}

void CountTracker::Record(int64_t key) {
  ++total_requests_;
  // Inflate first so that older counts decay relative to this request:
  // adding delta^t and normalizing by delta^t equals multiplying all
  // previous counts by 1/delta.
  weight_ *= decay_per_request_;
  auto [it, inserted] = counts_.try_emplace(key, 0.0);
  DeferRankUpdate(key, it->second, !inserted);
  it->second += weight_;
  raw_total_ += weight_;
  RenormalizeIfNeeded();
}

void CountTracker::RecordMany(int64_t key, uint64_t n) {
  if (n == 0) return;
  auto [it, inserted] = counts_.try_emplace(key, 0.0);
  DeferRankUpdate(key, it->second, !inserted);
  for (uint64_t i = 0; i < n; ++i) {
    ++total_requests_;
    weight_ *= decay_per_request_;
    it->second += weight_;
    raw_total_ += weight_;
    // Mirror Record()'s per-request renormalization trigger exactly so
    // a batch replay is bit-identical to n sequential Record() calls.
    // (Renormalization rescales the deferred old count too, so the
    // pending reposition stays on the current raw scale.)
    RenormalizeIfNeeded();
  }
}

void CountTracker::Seed(int64_t key, double count) {
  if (count <= 0) return;
  auto [it, inserted] = counts_.try_emplace(key, 0.0);
  DeferRankUpdate(key, it->second, !inserted);
  it->second += count * weight_;
  raw_total_ += count * weight_;
  RenormalizeIfNeeded();
}

void CountTracker::ApplyDecayFactor(double factor) {
  // Uniform decay of all counts == scaling up the future weight.
  weight_ *= factor;
  RenormalizeIfNeeded();
}

void CountTracker::DeferRankUpdate(int64_t key, double old_raw,
                                   bool was_tracked) {
  // Keep the FIRST deferred old state: later Records only advance the
  // live count, and the flush reads the final value from counts_.
  pending_.try_emplace(key, old_raw, was_tracked);
}

void CountTracker::SyncRankIndex() const {
  if (pending_.empty()) return;
  for (const auto& [key, old] : pending_) {
    index_.UpdateCount(key, old.first, old.second, counts_.at(key));
  }
  pending_.clear();
}

void CountTracker::RenormalizeIfNeeded() {
  if (weight_ < kRenormalizeThreshold &&
      raw_total_ < kRenormalizeThreshold) {
    return;
  }
  const double inv = 1.0 / weight_;
  for (auto& [key, raw] : counts_) raw *= inv;
  for (auto& [key, old] : pending_) old.first *= inv;
  raw_total_ *= inv;
  index_.Rescale(inv);
  weight_ = 1.0;
  ++renormalizations_;
}

double CountTracker::Count(int64_t key) const {
  auto it = counts_.find(key);
  if (it == counts_.end()) return 0.0;
  return it->second / weight_;
}

PopularityStats CountTracker::Stats(int64_t key, bool need_rank) const {
  if (need_rank) SyncRankIndex();
  PopularityStats stats;
  stats.total_requests = total_requests_;
  stats.distinct_seen = static_cast<uint64_t>(counts_.size());
  stats.max_count = need_rank ? index_.MaxCount() / weight_ : 0.0;
  stats.total_count = raw_total_ / weight_;
  auto it = counts_.find(key);
  if (it == counts_.end()) {
    stats.count = 0.0;
    // All never-seen keys are tied at the bottom of the universe.
    // (No index involved -- filled regardless of need_rank.)
    stats.rank = universe_size_ > 0 ? universe_size_
                                    : stats.distinct_seen + 1;
    return stats;
  }
  stats.count = it->second / weight_;
  stats.rank = need_rank ? index_.Rank(key, it->second) : 0;
  return stats;
}

}  // namespace tarpit
