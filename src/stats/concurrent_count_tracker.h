#ifndef TARPIT_STATS_CONCURRENT_COUNT_TRACKER_H_
#define TARPIT_STATS_CONCURRENT_COUNT_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats/count_tracker.h"

namespace tarpit {

/// Tuning knobs for the concurrent stats spine.
struct ConcurrentCountTrackerOptions {
  /// Number of pending-delta stripes. Records for a key always land in
  /// the same stripe, so a key's exact count is (inner + its stripe's
  /// pending delta) at all times.
  size_t num_shards = 16;
  /// A stripe is merged into the wrapped tracker once it has
  /// accumulated this many pending requests (the epoch). Counts never
  /// go stale: a read folds its own key's pending delta in, and every
  /// exclusive hold of the spine merges all stripes first. So this
  /// only sets how many requests the rank-free path batches per merge.
  size_t epoch_batch = 64;
};

/// Thread-safe wrapper around a single-threaded CountTracker.
///
/// Design (paper section 2.3 semantics under concurrency):
///  * Record(key) takes only a per-stripe mutex and appends a +1 delta
///    to that stripe's pending map -- the hot path never touches the
///    rank index.
///  * When a stripe's pending mass reaches `epoch_batch`, it is merged
///    into the wrapped tracker under an exclusive lock on the "spine"
///    (a shared_mutex guarding the wrapped CountTracker). The merge
///    replays the pending multiset through CountTracker::RecordMany,
///    so post-quiesce state is exactly a serial replay of the recorded
///    multiset (merge order is the only nondeterminism; with decay
///    delta == 1.0 the result is order-independent and therefore
///    *equal* to any serial replay).
///  * The rule: whoever holds the spine exclusively first merges every
///    stripe's pending accesses, under that same hold. So a rank
///    (Stats, a rank-bearing RecordAndStats) or any work inside
///    WithExclusive sees every access that completed before it, as the
///    serial tracker would.
///  * Rank-free reads (RecordAndStats(key, false), Count) take the
///    spine shared and add the key's own stripe delta, so `count` is
///    exact for every completed access of that key (merges need the
///    spine exclusively, so a delta can never be double-counted or
///    lost mid-read). They never read the rank index, so an epoch
///    merge leaves the index's repositions deferred for the next
///    exclusive rank read to fold.
///
/// Lock order (outermost first): stripe mutex OR spine; when both are
/// held the order is spine -> stripe (merge and consistent reads).
/// Record() releases the stripe mutex before triggering a merge, so
/// there is no reverse nesting.
class ConcurrentCountTracker {
 public:
  /// `inner` is borrowed and must outlive this wrapper. All mutations
  /// of `inner` must go through this wrapper once concurrent use
  /// begins.
  explicit ConcurrentCountTracker(CountTracker* inner,
                                  ConcurrentCountTrackerOptions options = {});
  ~ConcurrentCountTracker();

  ConcurrentCountTracker(const ConcurrentCountTracker&) = delete;
  ConcurrentCountTracker& operator=(const ConcurrentCountTracker&) = delete;

  /// Records one request for `key`. Thread-safe; lock-striped.
  void Record(int64_t key);

  /// Record(key) + Stats(key) fused -- the protected front door's
  /// per-request hot path (learn, then charge from the post-record
  /// snapshot). `need_rank == true` takes the spine exclusively: it
  /// merges every stripe with this access, then reads the serial
  /// tracker's Stats(key). `need_rank == false` stays on the shared
  /// spine and the key's stripe and skips the rank index entirely
  /// (rank and max_count come back 0 for seen keys); doors whose delay
  /// policy ignores rank pass false.
  PopularityStats RecordAndStats(int64_t key, bool need_rank = true);

  /// Popularity snapshot for `key` after merging every stripe (takes
  /// the spine exclusively): equal to the serial tracker's Stats(key)
  /// over every completed Record().
  PopularityStats Stats(int64_t key);

  /// Exact-for-own-thread decayed count (inner + pending delta).
  double Count(int64_t key) const;

  /// Thread-safe passthroughs (exclusive / shared on the spine).
  void set_universe_size(uint64_t n);
  uint64_t universe_size() const;

  /// Exact number of Record() calls observed so far (lock-free).
  uint64_t total_requests() const {
    return total_requests_.load(std::memory_order_relaxed);
  }

  /// Distinct keys in the *merged* view (epoch-stale until FlushAll).
  uint64_t distinct_seen() const;

  /// Requests recorded but not yet merged into the wrapped tracker.
  uint64_t pending_records() const;

  /// Number of epoch merges performed (observability/tests).
  uint64_t epoch_flushes() const {
    return epoch_flushes_.load(std::memory_order_relaxed);
  }

  /// Drains every stripe into the wrapped tracker. After FlushAll (with
  /// no concurrent writers) the wrapped tracker equals a serial replay
  /// of the full recorded multiset.
  void FlushAll();

  /// Called under the exclusive spine lock after each merge with the
  /// (key, multiplicity) pairs just applied -- e.g. to push the same
  /// deltas into a write-behind persistent count cache.
  using FlushHook =
      std::function<void(const std::vector<std::pair<int64_t, uint64_t>>&)>;
  void set_flush_hook(FlushHook hook) { flush_hook_ = std::move(hook); }

  /// Merges every stripe, then runs `fn(inner)` under the same
  /// exclusive hold of the spine. Escape hatch for callers that must
  /// touch the wrapped tracker (or state the wrapped tracker feeds)
  /// while readers may be in flight; `fn` sees every completed access.
  void WithExclusive(const std::function<void(CountTracker*)>& fn);

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<int64_t, uint64_t> pending;
    uint64_t pending_total = 0;
  };

  using Batch = std::vector<std::pair<int64_t, uint64_t>>;

  size_t StripeFor(int64_t key) const;
  /// Merges stripe `i` into the inner tracker (no-op when empty).
  void FlushStripe(size_t i);
  /// Moves stripe `i`'s pending deltas into `batch`. Requires the
  /// spine held exclusively.
  void DrainStripeLocked(size_t i, Batch* batch);
  /// Replays `batch` into the inner tracker and the flush hook (no-op
  /// when empty). Requires the spine held exclusively.
  void ApplyLocked(Batch* batch);
  /// Merges every stripe. Requires the spine held exclusively.
  void MergeAllLocked();

  CountTracker* inner_;
  ConcurrentCountTrackerOptions options_;
  mutable std::shared_mutex spine_mu_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> total_requests_{0};
  std::atomic<uint64_t> epoch_flushes_{0};
  FlushHook flush_hook_;
};

}  // namespace tarpit

#endif  // TARPIT_STATS_CONCURRENT_COUNT_TRACKER_H_
