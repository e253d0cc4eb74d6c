#ifndef TARPIT_OBS_RISK_H_
#define TARPIT_OBS_RISK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hyperloglog.h"
#include "obs/metrics.h"

namespace tarpit {
namespace obs {

struct RiskScorerOptions {
  /// Principals tracked simultaneously; the lowest-risk, least-recently
  /// seen entry is evicted when a new principal arrives at capacity
  /// (an extractor that is actively scoring high cannot be pushed out
  /// by Sybil churn).
  size_t max_principals = 1024;
  /// Protected keyspace size used to normalize coverage breadth. 0
  /// normalizes against the widest principal seen instead (relative
  /// ranking stays meaningful without configuration).
  int64_t keyspace_size = 0;
  /// Half-life of the per-principal activity rate estimate.
  double rate_half_life_seconds = 60;
  /// Half-life of the defense-signal score (denials, escalations).
  double signal_half_life_seconds = 600;
  /// Precision of the per-principal distinct-key sketch (2^p bytes
  /// each; 10 -> 1 KiB per principal, ~3% standard error). Clamped
  /// to [4, 16].
  int hll_precision = 10;
  /// Principals at or above this score count as flagged in
  /// tarpit_risk_flagged_principals.
  double flag_threshold = 50;
  /// Lock stripes for the per-principal state (rounded up to a power
  /// of two). Feeds lock only their principal's stripe, so concurrent
  /// request threads with distinct principals never contend; the
  /// read-side aggregations (Score/TopN/OnScrape) take every stripe.
  size_t stripes = 16;
  /// ObserveQuery key sampling (rounded up to a power of two; 1 =
  /// exact). When > 1, only keys hashing into a fixed 1/N partition of
  /// the keyspace are recorded, with all estimates scaled by N:
  /// distinct-count over a hash partition is an unbiased breadth
  /// estimator for ANY access distribution (every principal is
  /// measured against the same partition), and the activity increment
  /// is weighted by N so rates stay unbiased too. A recorded key costs
  /// the principal's stripe lock and an O(1) sketch update (estimates
  /// are O(1) as well), so even the exact path is cheap; a key outside
  /// the partition is one hash + compare and takes no lock. Sampling
  /// therefore only saves that stripe lock and the entries of
  /// principals no admitted key has touched. It applies only to
  /// ObserveQuery; range-probe and defense-signal feeds are rare and
  /// always exact.
  size_t query_sample_every = 1;
  /// When non-null the scorer publishes tarpit_risk_* gauges/counters
  /// here. Must outlive the scorer.
  MetricRegistry* metrics = nullptr;
};

/// One principal's extraction-risk assessment at a point in time.
/// `score` is 0..100; the four components are each 0..1 and weighted
/// into the score (breadth 0.4, rate 0.2, probe 0.2, signal 0.2).
struct RiskScore {
  uint64_t principal = 0;
  double score = 0;
  /// Estimated distinct keys this principal has received.
  double breadth = 0;
  uint64_t queries = 0;
  double breadth_component = 0;
  double rate_component = 0;
  double probe_component = 0;
  double signal_component = 0;
};

/// Per-principal extraction-risk scoring over the forensic feeds the
/// defense perimeter already produces. Combines the extraction
/// fingerprints the paper's threat model predicts -- coverage breadth
/// (an extractor must eventually touch most of the keyspace), rate
/// anomaly vs. the population, volume-probe shape (wide multi-key
/// range scans), and accumulated defense signals (rate-limit denials,
/// coverage/reputation escalations) -- into one 0..100 score per
/// principal with a ranked top-N view.
///
/// Distinct from ReputationStore on purpose: reputation *acts* (it
/// changes charged delay, so it is conservative by design); the risk
/// scorer only *reports*, so it can weigh soft signals aggressively
/// without ever touching an honest user's latency.
///
/// Thread-safe; feeds are O(1) amortized under a per-principal lock
/// stripe, cheap enough for the concurrent door's per-served-tuple
/// feed as well as the gate's cold decision path.
class RiskScorer {
 public:
  explicit RiskScorer(RiskScorerOptions options = {});

  RiskScorer(const RiskScorer&) = delete;
  RiskScorer& operator=(const RiskScorer&) = delete;

  /// One served tuple: feeds breadth (distinct `key`) and the activity
  /// rate.
  void ObserveQuery(uint64_t principal, int64_t key, double now_seconds);

  /// True when ObserveQuery would record `key` (keys outside the
  /// sampled hash partition are rejected without taking any lock).
  /// Lets a hot caller skip preparing arguments -- typically the clock
  /// read -- for observations that would be dropped anyway.
  bool AdmitsKey(int64_t key) const {
    if (sample_mask_ == 0) return true;
    const uint64_t h =
        static_cast<uint64_t>(key) * 0xFF51AFD7ED558CCDull;
    return ((h >> 32) & sample_mask_) == 0;
  }

  /// One query that touched `keys_touched` tuples at once (range /
  /// volume probe shape).
  void ObserveRangeProbe(uint64_t principal, size_t keys_touched,
                         double now_seconds);

  /// A defense decision against this principal (denial, escalation).
  /// `weight` scales with severity; it decays with
  /// signal_half_life_seconds.
  void ObserveSignal(uint64_t principal, double weight,
                     double now_seconds);

  /// Current score for one principal (0 when untracked).
  double Score(uint64_t principal, double now_seconds) const;

  /// Top `n` principals by score, highest first.
  std::vector<RiskScore> TopN(size_t n, double now_seconds) const;

  /// Publishes tarpit_risk_max_score_permille,
  /// tarpit_risk_tracked_principals and
  /// tarpit_risk_flagged_principals gauges (no-op without metrics).
  void OnScrape(double now_seconds);

  size_t tracked_principals() const;
  uint64_t observations_total() const;
  uint64_t evictions_total() const;

 private:
  struct Entry {
    HyperLogLog sketch;
    uint64_t queries = 0;
    /// Exponentially-decayed event count (the rate proxy).
    double activity = 0;
    double activity_updated = 0;
    uint64_t probe_queries = 0;
    double probe_keys = 0;
    /// Exponentially-decayed defense-signal mass.
    double signal = 0;
    double signal_updated = 0;
    double last_seen = 0;

    explicit Entry(int precision) : sketch(precision) {}
  };

  /// One lock stripe; a principal's entry lives in exactly one stripe
  /// (by hash), so feeds for distinct principals are contention-free.
  /// The capacity bound is enforced per stripe (max_principals /
  /// stripes each), which keeps eviction scans stripe-local.
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
  };

  Stripe& StripeFor(uint64_t principal) const;
  Entry* TouchLocked(Stripe& stripe, uint64_t principal,
                     double now_seconds);
  /// Decays `value` stamped at `*updated` forward to `now`.
  static double Decayed(double value, double* updated, double now,
                        double half_life);
  RiskScore ScoreLocked(uint64_t principal, const Entry& e, double now,
                        double max_breadth,
                        double median_activity) const;
  /// Requires every stripe lock held.
  void PopulationLocked(double now, double* max_breadth,
                        double* median_activity) const;
  /// Takes every stripe lock, in index order.
  std::vector<std::unique_lock<std::mutex>> LockAll() const;

  RiskScorerOptions options_;
  size_t stripe_mask_ = 0;
  uint64_t sample_mask_ = 0;  // query_sample_every - 1.
  size_t per_stripe_cap_ = 1;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> observations_{0};
  std::atomic<uint64_t> evictions_{0};

  Gauge* m_max_score_ = nullptr;
  Gauge* m_tracked_ = nullptr;
  Gauge* m_flagged_ = nullptr;
  Counter* m_observations_ = nullptr;
  Counter* m_evictions_ = nullptr;
};

}  // namespace obs
}  // namespace tarpit

#endif  // TARPIT_OBS_RISK_H_
