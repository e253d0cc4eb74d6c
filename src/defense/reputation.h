#ifndef TARPIT_DEFENSE_REPUTATION_H_
#define TARPIT_DEFENSE_REPUTATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hyperloglog.h"
#include "core/delay_policy.h"
#include "defense/identity.h"
#include "obs/metrics.h"

namespace tarpit {

/// Tuning for reputation-escalating delay (in the spirit of delayer's
/// 1->60s per-IP backoff and mopher's session-accumulating tarpit).
struct ReputationOptions {
  /// Multiplicative bump applied to an identity's penalty factor per
  /// unit-strength signal.
  double growth = 2.0;
  /// Bump applied to the identity's /24 subnet per signal. Weaker than
  /// the identity bump: a subnet is shared with bystanders (NAT), but
  /// it is the state a Sybil fleet cannot shed by churning identities.
  double subnet_growth = 1.5;
  /// Half-life of the penalty's exponential decay toward baseline
  /// (factor 1.0) while a principal behaves benignly.
  double half_life_seconds = 900.0;
  /// Caps on the penalty factors.
  double max_penalty = 64.0;
  double max_subnet_penalty = 64.0;
  /// Log-space snap-to-baseline threshold: once decay brings
  /// log(factor) under this, the penalty is exactly 1.0 again
  /// ("decays fully back to baseline", and the entry stops paying
  /// decay math).
  double baseline_epsilon = 1e-3;

  // -- Self-observed breadth signal (extraction-shaped coverage). ----
  /// Coverage (distinct tuples / N) below which breadth is free;
  /// matches the coverage monitor's notion of a legitimate slice.
  double breadth_free_fraction = 0.01;
  /// One growth signal per additional `stride` of coverage beyond the
  /// free fraction: a principal walking the relation earns a
  /// multiplicative bump every stride * N new distinct tuples, so its
  /// penalty grows geometrically with breadth.
  double breadth_signal_stride = 0.01;
  /// HyperLogLog precision for per-principal distinct counting
  /// (clamped to [4, 16]).
  int hll_precision = 12;

  // -- Self-observed rate anomaly. -----------------------------------
  /// Sliding observation window for the rate signal.
  double rate_window_seconds = 10.0;
  /// Served-tuple rate (per second, sustained over a full window)
  /// above which one rate signal fires per window. 0 disables the
  /// self-observed rate signal (the QueryGate still feeds explicit
  /// rate-anomaly signals on throttle denials).
  double rate_threshold_per_second = 0.0;

  /// Per-shard cap on tracked identities; when a shard fills, the
  /// entry closest to baseline is evicted (bounded memory under
  /// identity churn -- the subnet entries carry the long memory).
  size_t max_identities_per_shard = 4096;
  /// Lock shards for the identity map (power of two).
  size_t shards = 16;

  /// When non-null the store publishes tarpit_reputation_* signal
  /// counters and tracked-principal gauges here. Must outlive the
  /// store.
  obs::MetricRegistry* metrics = nullptr;
};

/// Why a penalty signal fired (metric label + audit context).
enum class ReputationSignal { kBreadth, kRateAnomaly, kExternal };

const char* ReputationSignalName(ReputationSignal signal);

/// Thread-safe per-identity and per-/24-subnet penalty scores.
///
/// The paper's delay is purely popularity/update-driven, so an
/// adversary that spreads load across identities or stays under
/// per-tuple popularity thresholds pays almost nothing per query. This
/// store adds the missing dimension: a penalty factor per principal
/// that grows multiplicatively on extraction-shaped behavior (breadth
/// of coverage, rate anomalies, explicit signals from the QueryGate),
/// decays exponentially while the principal behaves, and -- because it
/// is keyed by identity and subnet, never by session -- survives
/// SessionManager eviction and re-registration. Identity churn sheds
/// the identity score but not the subnet score, which is what defeats
/// Sybil fleets.
///
/// Factors are always >= 1.0: composition can only escalate the base
/// policy, never undercut it.
class ReputationStore : public PrincipalPenalty {
 public:
  explicit ReputationStore(ReputationOptions options = {});

  // -- PrincipalPenalty ----------------------------------------------
  /// max(identity factor, subnet factor) at `now_seconds`; >= 1.0.
  double PenaltyFactor(uint64_t identity, uint32_t subnet24,
                       double now_seconds) const override;
  /// Feeds breadth/rate learning with one served tuple access.
  void ObserveAccess(uint64_t identity, uint32_t subnet24, int64_t key,
                     uint64_t universe_n, double now_seconds) override;

  /// Explicit signal (the QueryGate feeds throttle denials and
  /// coverage-monitor escalations through here). `strength` scales the
  /// bump: factor *= growth^strength.
  void RecordSignal(uint64_t identity, uint32_t subnet24,
                    double now_seconds, ReputationSignal source,
                    double strength = 1.0);

  /// Benign-behavior hint: decay is purely time-based, so this only
  /// advances the lazy decay bookkeeping (kept as an explicit entry
  /// point so callers express intent and future schemes can credit).
  void RecordBenign(uint64_t identity, uint32_t subnet24,
                    double now_seconds);

  /// Individual factors (both >= 1.0), for tests and dashboards.
  double IdentityPenalty(uint64_t identity, double now_seconds) const;
  double SubnetPenalty(uint32_t subnet24, double now_seconds) const;

  /// Drops a principal's penalty AND breadth history. Operator
  /// override only -- nothing in the engine calls this on session
  /// expiry (that persistence is the point).
  void ForgetIdentity(uint64_t identity);
  void ForgetSubnet(uint32_t subnet24);

  size_t tracked_identities() const;
  size_t tracked_subnets() const;
  uint64_t signals_total() const;
  const ReputationOptions& options() const { return options_; }

 private:
  struct Entry {
    /// log(penalty factor); 0 = baseline. Decays exponentially.
    double log_penalty = 0.0;
    /// Timestamp of the last decay application.
    double decay_stamp_seconds = 0.0;
    /// Distinct tuples served to this principal (breadth).
    std::unique_ptr<HyperLogLog> breadth;
    /// Breadth strides already converted into signals.
    uint64_t breadth_signals = 0;
    /// Rate window.
    double window_start_seconds = 0.0;
    uint64_t window_count = 0;
    bool window_signaled = false;
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
  };

  Shard& IdentityShard(uint64_t identity) const;
  /// Applies lazy exponential decay to `entry` as of `now`.
  void Decay(Entry* entry, double now_seconds) const;
  /// Multiplicative bump clamped to `max_log`.
  void Bump(Entry* entry, double log_growth, double strength,
            double max_log, double now_seconds);
  /// Shared breadth/rate observation for one principal's entry.
  /// Returns the number of signals that fired.
  uint64_t ObserveEntry(Entry* entry, int64_t key, uint64_t universe_n,
                        double now_seconds, double log_growth,
                        double max_log);
  /// Evicts the entry closest to baseline when `shard` is over budget.
  void EnforceShardBudget(Shard* shard);
  void CountSignal(ReputationSignal source, uint64_t n = 1);

  ReputationOptions options_;
  double log_growth_ = 0.0;
  double log_subnet_growth_ = 0.0;
  double max_log_penalty_ = 0.0;
  double max_log_subnet_penalty_ = 0.0;
  /// Total entries across identity shards, maintained at insert and
  /// erase so tracked_identities() never needs every shard lock.
  std::atomic<size_t> identity_count_{0};
  std::atomic<uint64_t> signal_count_{0};
  std::vector<std::unique_ptr<Shard>> identity_shards_;
  mutable std::mutex subnet_mu_;
  /// Guarded by subnet_mu_; mutable because const readers apply lazy
  /// decay in place.
  mutable std::unordered_map<uint32_t, Entry> subnets_;

  obs::Counter* m_signals_breadth_ = nullptr;
  obs::Counter* m_signals_rate_ = nullptr;
  obs::Counter* m_signals_external_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Gauge* m_tracked_identities_ = nullptr;
  obs::Gauge* m_tracked_subnets_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_DEFENSE_REPUTATION_H_
