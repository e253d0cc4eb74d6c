#ifndef TARPIT_CORE_RESOURCE_GOVERNOR_H_
#define TARPIT_CORE_RESOURCE_GOVERNOR_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace tarpit {

/// Budgets the overload governor enforces. 0 = unlimited.
struct ResourceGovernorOptions {
  /// Parked (scheduler-held) stalls admitted at once.
  uint64_t max_parked_stalls = 0;
  /// Total bytes attributed to parked stalls. Each stall is charged
  /// its continuation-state estimate at admission (the caller passes
  /// actual result bytes when it knows them, else stall_bytes_estimate).
  uint64_t max_parked_bytes = 0;
  /// Default per-stall byte estimate when the caller passes 0.
  uint64_t stall_bytes_estimate = 4096;
  /// WAL bytes appended but not yet fdatasync'd before writes shed.
  uint64_t max_wal_backlog_bytes = 0;
  /// Live MVCC versions before writes shed.
  uint64_t max_live_versions = 0;
  /// When non-null, the governor publishes
  /// tarpit_governor_{parked_stalls,parked_bytes} gauges and
  /// tarpit_governor_{admitted,shed}_total counters (shed is labelled
  /// by reason). Must outlive the governor.
  obs::MetricRegistry* metrics = nullptr;
};

/// Shed-before-collapse admission control for the tarpit's one real
/// self-DoS surface: the defense *manufactures* latency, so an
/// adversary who opens stalls faster than they expire grows the parked
/// set without bound. The governor caps what the engine will hold —
/// parked stalls (count and bytes), WAL backlog, version-store size —
/// and everything past a budget is refused with Status::Overloaded
/// instead of being queued. Crucially the refusal happens *after* the
/// delay charge is computed and recorded, so a shed extraction-suspect
/// still pays its reputation/accounting penalty (PR 6 semantics); it
/// just doesn't get to occupy memory while doing so.
///
/// Thread-safe; one instance typically fronts one engine and is shared
/// by both front doors (QueryGate and ConcurrentProtectedDatabase).
class ResourceGovernor {
 public:
  explicit ResourceGovernor(ResourceGovernorOptions options = {});

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Admission for one stall about to be parked in the DelayScheduler.
  /// `bytes` estimates the continuation state held while parked (0 =
  /// use options.stall_bytes_estimate). OK admits and reserves;
  /// Overloaded means the caller must complete the request immediately
  /// with that status (charge already on the books) and NOT call
  /// ReleaseStall.
  Status AdmitStall(uint64_t bytes);

  /// Releases a previously admitted stall (callback fired, cancelled,
  /// or shutdown-drained). `bytes` must match the admitted value.
  void ReleaseStall(uint64_t bytes);

  /// Admission for one write given the current WAL backlog and live
  /// version count. Pure check — nothing is reserved; the write path
  /// calls it at submit time and sheds with the returned status.
  Status CheckWrite(uint64_t wal_backlog_bytes, uint64_t live_versions);

  uint64_t parked_stalls() const;
  uint64_t parked_bytes() const;
  /// High-water marks since construction. The self-audit watchdog
  /// reconciles these against the configured budgets: an observed peak
  /// over a nonzero budget means an admission raced past its cap.
  uint64_t peak_parked_stalls() const;
  uint64_t peak_parked_bytes() const;

  const ResourceGovernorOptions& options() const { return options_; }

 private:
  uint64_t EffectiveBytes(uint64_t bytes) const {
    return bytes != 0 ? bytes : options_.stall_bytes_estimate;
  }

  ResourceGovernorOptions options_;

  mutable std::mutex mu_;
  uint64_t parked_stalls_ = 0;
  uint64_t parked_bytes_ = 0;
  uint64_t peak_parked_stalls_ = 0;
  uint64_t peak_parked_bytes_ = 0;

  obs::Gauge* m_parked_stalls_ = nullptr;
  obs::Gauge* m_parked_bytes_ = nullptr;
  obs::Gauge* m_peak_parked_stalls_ = nullptr;
  obs::Counter* m_admitted_ = nullptr;
  // tarpit_governor_shed_total{reason}, one per budget.
  obs::Counter* m_shed_parked_stalls_ = nullptr;
  obs::Counter* m_shed_parked_bytes_ = nullptr;
  obs::Counter* m_shed_wal_backlog_ = nullptr;
  obs::Counter* m_shed_live_versions_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_RESOURCE_GOVERNOR_H_
