#ifndef TARPIT_OBS_EVENT_RING_H_
#define TARPIT_OBS_EVENT_RING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.h"

namespace tarpit {
namespace obs {

/// What happened at the defense perimeter (the QueryGate's decisions)
/// or inside the engine (cancellations, recovery, watchdog
/// violations).
enum class DefenseEventType : uint16_t {
  kRegistered = 0,
  kRegistrationDenied,
  /// A query passed the perimeter and was served (magnitude: the
  /// charged delay, escalations included).
  kQueryAdmitted,
  kRateLimitedUser,
  kRateLimitedSubnet,
  kLifetimeCapHit,
  kCoverageEscalated,
  kReputationEscalated,
  kOverloadShed,
  /// A parked stall was cancelled before expiry (session eviction or
  /// shutdown); the delay stays charged, the tuple is withheld.
  kCancelled,
  /// Crash-recovery work at open: WAL records replayed / bytes
  /// truncated / pages quarantined / indexes rebuilt (arg selects
  /// which, magnitude carries the count).
  kRecovery,
  /// The self-audit watchdog found an invariant violation (arg is the
  /// check's registration index, magnitude the measured drift).
  kWatchdogViolation,
  kNumTypes,
};

inline constexpr size_t kNumDefenseEventTypes =
    static_cast<size_t>(DefenseEventType::kNumTypes);

const char* DefenseEventTypeName(DefenseEventType type);

/// One fixed-size binary forensics record. Plain value type; the ring
/// assigns `seq` (dense from 0) at append.
struct DefenseEvent {
  uint64_t seq = 0;
  int64_t time_micros = 0;
  DefenseEventType type = DefenseEventType::kQueryAdmitted;
  /// Attributed principal: identity id at the gate, stall group /
  /// session at the concurrent door, 0 when unattributed.
  uint64_t principal = 0;
  /// The principal's /24 network (0 when unknown).
  uint32_t subnet24 = 0;
  /// Event-specific magnitude: delay seconds, escalation factor,
  /// retry-after seconds, drift fraction -- see the emitting site.
  double magnitude = 0;
  /// Event-specific extra (tuple key, full IPv4 of a registration,
  /// recovery-stat selector, check index).
  int64_t arg = 0;
};

struct DefenseEventRingOptions {
  /// Record slots (rounded up to a power of two). At 64 bytes per slot
  /// the default retains the last 4096 perimeter decisions in 256 KiB,
  /// regardless of uptime.
  size_t capacity = 4096;
  /// When non-null the ring publishes tarpit_events_appended_total,
  /// tarpit_events_dropped_total and tarpit_events_by_type_total{type}
  /// here. Must outlive the ring.
  MetricRegistry* metrics = nullptr;
};

/// Lock-free bounded multi-producer ring of defense events -- the one
/// forensic event log. Producers claim a slot
/// with one fetch_add and publish with per-slot sequence stamps
/// (seqlock discipline: `start` is stamped before the payload, `end`
/// after, so a reader that observes both stamps equal to the slot's
/// expected sequence has read a consistent record). The ring overwrites
/// oldest-first when full and accounts every overwritten record as a
/// drop -- memory is fixed, accounting is exact.
///
/// Readers never block writers: Snapshot() copies matching records and
/// discards (counting them) any record a concurrent writer lapped
/// mid-copy. All payload fields are relaxed atomics, so racing
/// appenders and readers are data-race-free by construction (TSan
/// clean), and torn interleavings are caught by the stamp protocol.
class DefenseEventRing {
 public:
  explicit DefenseEventRing(DefenseEventRingOptions options = {});

  DefenseEventRing(const DefenseEventRing&) = delete;
  DefenseEventRing& operator=(const DefenseEventRing&) = delete;

  /// Appends one event (lock-free; safe from any thread). The event's
  /// `seq` field is ignored -- the ring assigns it.
  void Append(const DefenseEvent& event);

  /// In-process query over the retained window. Zero / default fields
  /// match everything; `type` filters when >= 0.
  struct Query {
    uint64_t principal = 0;  // 0 = any.
    int type = -1;           // -1 = any; else DefenseEventType value.
    int64_t min_time_micros = std::numeric_limits<int64_t>::min();
    int64_t max_time_micros = std::numeric_limits<int64_t>::max();
    /// Keep only the most recent `limit` matches (still returned
    /// oldest-first).
    size_t limit = std::numeric_limits<size_t>::max();
  };

  /// Matching retained records, oldest-first. Best-effort under racing
  /// writers: records overwritten mid-copy are skipped and counted in
  /// torn_reads_total().
  std::vector<DefenseEvent> Snapshot(const Query& query) const;
  std::vector<DefenseEvent> Snapshot() const { return Snapshot(Query()); }

  /// Events ever appended (monotonic).
  uint64_t appended_total() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by wraparound -- exact: appended - capacity
  /// once the ring has lapped, 0 before.
  uint64_t dropped_total() const {
    const uint64_t n = appended_total();
    return n > capacity_ ? n - capacity_ : 0;
  }
  /// Reader-side discards (concurrent overwrite during a copy).
  uint64_t torn_reads_total() const {
    return torn_reads_.load(std::memory_order_relaxed);
  }
  /// Appends of `type` ever (monotonic; survives overwrite).
  uint64_t CountOfType(DefenseEventType type) const {
    return by_type_[static_cast<size_t>(type)].load(
        std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  /// Records currently retained (<= capacity).
  size_t retained() const {
    const uint64_t n = appended_total();
    return n < capacity_ ? static_cast<size_t>(n) : capacity_;
  }

 private:
  /// One slot: stamp pair + payload, all atomics (relaxed payload,
  /// acquire/release stamps). 64-byte aligned so concurrent appends to
  /// neighboring slots never share a line.
  struct alignas(64) Slot {
    std::atomic<uint64_t> start{0};  // seq + 1 once claimed.
    std::atomic<uint64_t> end{0};    // seq + 1 once published.
    std::atomic<int64_t> time_micros{0};
    std::atomic<uint64_t> type{0};
    std::atomic<uint64_t> principal{0};
    std::atomic<uint64_t> subnet24{0};
    std::atomic<uint64_t> magnitude_bits{0};
    std::atomic<int64_t> arg{0};
  };

  /// Copies slot `seq` into `out`; false when unpublished, overwritten,
  /// or torn (torn copies are counted).
  bool ReadSlot(uint64_t seq, DefenseEvent* out) const;

  size_t capacity_ = 0;
  size_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
  mutable std::atomic<uint64_t> torn_reads_{0};
  std::array<std::atomic<uint64_t>, kNumDefenseEventTypes> by_type_{};
  std::vector<Slot> slots_;

  Counter* m_appended_ = nullptr;
  Counter* m_dropped_ = nullptr;
  std::array<Counter*, kNumDefenseEventTypes> m_by_type_{};
};

}  // namespace obs
}  // namespace tarpit

#endif  // TARPIT_OBS_EVENT_RING_H_
