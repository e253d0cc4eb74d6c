#ifndef TARPIT_STATS_COUNT_TRACKER_H_
#define TARPIT_STATS_COUNT_TRACKER_H_

#include <cstdint>
#include <unordered_map>

#include "stats/rank_index.h"

namespace tarpit {

/// Snapshot of one tuple's popularity as learned so far.
struct PopularityStats {
  /// Decayed request count (normalized to the current scale). 0 for
  /// never-seen keys.
  double count = 0;
  /// 1-based popularity rank. Never-seen keys all share the bottom
  /// rank, which equals `universe_size` (paper section 2.3: start-up
  /// transients treat all items as equally unpopular with frequency 0).
  uint64_t rank = 0;
  /// Count of the most popular key (f_max), same units as `count`.
  double max_count = 0;
  /// Distinct keys observed at least once.
  uint64_t distinct_seen = 0;
  /// Raw number of Record() calls (no decay).
  uint64_t total_requests = 0;
  /// Sum of all decayed counts (normalized).
  double total_count = 0;
};

/// Learns the popularity distribution from the request stream
/// (paper section 2.3). Each request adds weight to its tuple's count;
/// all counts decay exponentially with age at rate `decay_per_request`
/// (>= 1.0; 1.0 disables decay). Decay is implemented by inflating the
/// increment rather than discounting every counter, with periodic
/// renormalization to avoid overflow -- exactly the scheme the paper
/// describes.
class CountTracker {
 public:
  /// `universe_size`: N, the number of tuples in the protected relation
  /// (used as the rank of never-seen keys).
  /// `decay_per_request`: delta applied at each request.
  CountTracker(uint64_t universe_size, double decay_per_request);

  CountTracker(const CountTracker&) = delete;
  CountTracker& operator=(const CountTracker&) = delete;

  /// Records one request for `key`.
  void Record(int64_t key);

  /// Records `n` back-to-back requests for `key`, with arithmetic
  /// identical to calling Record(key) n times (same inflation
  /// trajectory, same renormalization trigger points) but only O(1)
  /// rank-index updates. This is the replay primitive used by
  /// ConcurrentCountTracker's epoch-batched merge: a shard's pending
  /// multiset collapses to one RecordMany per distinct key.
  void RecordMany(int64_t key, uint64_t n);

  /// Seeds a key's count directly -- used to warm-start the tracker
  /// from counts persisted by a previous run. Seeded mass behaves as if
  /// accrued at seed time (it decays from now on, like any old count).
  /// Seeding an already-seen key adds to its count.
  void Seed(int64_t key, double count);

  /// Applies an extra decay factor to all counts at once (e.g., at
  /// weekly boundaries for the box-office workload). factor >= 1.
  void ApplyDecayFactor(double factor);

  /// Popularity snapshot for `key` (works for never-seen keys too).
  /// With `need_rank == false` the rank index is neither flushed nor
  /// consulted: `rank` (for seen keys) and `max_count` come back 0,
  /// and only the count-derived fields are filled. Callers whose
  /// delay policy ignores rank (beta == 0, update-rate, none) use
  /// this to keep the treap entirely off their read path.
  PopularityStats Stats(int64_t key, bool need_rank = true) const;

  /// Normalized decayed count for `key` (0 if never seen).
  double Count(int64_t key) const;

  uint64_t universe_size() const { return universe_size_; }
  void set_universe_size(uint64_t n) { universe_size_ = n; }
  double decay_per_request() const { return decay_per_request_; }
  uint64_t total_requests() const { return total_requests_; }
  uint64_t distinct_seen() const {
    return static_cast<uint64_t>(counts_.size());
  }
  /// Number of renormalizations performed (observability/tests).
  uint64_t renormalizations() const { return renormalizations_; }

 private:
  /// Folds deferred rank-index repositions in. Record() queues the
  /// reposition instead of paying the O(log n) treap surgery eagerly;
  /// rank-reading accessors (Stats) flush automatically, so write-only
  /// phases -- e.g. the update tracker under an access-popularity
  /// policy, whose ranks nothing ever reads -- skip the index work
  /// entirely. A rank read mutates the index, so a wrapper shared
  /// across threads reads rank only under its exclusive lock.
  void SyncRankIndex() const;

  void RenormalizeIfNeeded();
  void DeferRankUpdate(int64_t key, double old_raw, bool was_tracked);

  uint64_t universe_size_;
  double decay_per_request_;
  // Mutable because rank reads flush deferred repositions into it.
  mutable TreapRankIndex index_;

  // Deferred rank-index work: key -> (raw count when first deferred,
  // whether the index tracked the key then). Values live on the
  // tracker's current raw scale -- renormalization rescales them
  // alongside counts_. Mutable because rank reads flush lazily.
  mutable std::unordered_map<int64_t, std::pair<double, bool>> pending_;

  // Raw (inflated-scale) counts; normalized count = raw / weight_.
  std::unordered_map<int64_t, double> counts_;
  double weight_ = 1.0;      // Current increment weight.
  double raw_total_ = 0.0;   // Sum of raw counts.
  uint64_t total_requests_ = 0;
  uint64_t renormalizations_ = 0;
};

}  // namespace tarpit

#endif  // TARPIT_STATS_COUNT_TRACKER_H_
