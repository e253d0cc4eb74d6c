#ifndef TARPIT_CORE_DELAY_SCHEDULER_H_
#define TARPIT_CORE_DELAY_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace tarpit {

/// Opaque handle for a parked stall. 0 is never a valid id.
using TimerId = uint64_t;

/// Groups stalls for bulk cancellation (session eviction). 0 means
/// "ungrouped": such stalls are only cancelled individually or at
/// shutdown.
using StallGroup = uint64_t;

struct DelaySchedulerOptions {
  /// Wheel resolution: the tick decides which slot files an entry, not
  /// when it fires. Every stall fires at its own microsecond deadline,
  /// so the tick bounds neither lateness nor shortness; it sets the
  /// horizon below and how many stalls share a slot.
  int64_t tick_micros = 1000;
  /// log2 of slots per wheel level.
  size_t wheel_bits = 8;
  /// Hierarchy depth. Horizon = tick * 2^(bits*levels); with the
  /// defaults (1 ms * 256^3) that is ~4.66 hours. Stalls beyond the
  /// horizon -- extraction-scale multi-hour/multi-week charges -- wait
  /// in an overflow min-heap and are promoted onto the wheel when they
  /// come within range.
  size_t levels = 3;
  /// When non-null, the scheduler publishes wheel occupancy, cascade,
  /// overflow-promotion and driver wake-up counts, completion-queue
  /// depth, and park / dispatch-lag latency histograms here (names are
  /// listed in docs/INTERNALS.md). Must outlive the scheduler.
  obs::MetricRegistry* metrics = nullptr;
};

/// Hierarchical timer wheel + overflow heap: turns "a stalled request"
/// from a blocked OS thread into a parked wheel entry, so one thread
/// can carry tens of thousands of concurrently-stalled sessions.
///
/// Threads: one driver. It fires expired entries and runs their
/// callbacks itself, in expiry order, OUTSIDE the scheduler lock.
/// Cancelled entries join a FIFO completion queue that the driver also
/// runs, so a parked stall's callback never runs on the thread that
/// cancelled it. A zero delay on a real clock skips the driver: its
/// callback runs on the submitting thread, also outside the lock.
///
/// Callbacks must be short: every other parked stall waits behind one.
/// A callback may Submit, Cancel and CancelGroup, but must not block,
/// must not wait on another stall (e.g. a blocking door call), and must
/// not call Drain() or Shutdown(), which would wait on its own thread.
///
/// Every submitted callback is invoked exactly once, with
/// `cancelled == false` on expiry and `cancelled == true` when the
/// entry was cancelled (Cancel/CancelGroup/shutdown). Shutdown drains:
/// no callback is ever dropped.
class DelayScheduler {
 public:
  /// `cancelled` is true when the stall was cancelled before expiry.
  using Callback = std::function<void(bool cancelled)>;

  enum class ShutdownMode {
    /// Wait for every parked stall to expire naturally, then stop.
    kDrain,
    /// Cancel all parked stalls (callbacks fire with cancelled=true),
    /// run the completion queue dry, then stop.
    kCancelPending,
  };

  /// `clock` must outlive the scheduler. A virtual clock (and only
  /// that) selects instant-fire simulation mode: every submission fires
  /// at once through the completion queue, which the driver runs in
  /// submission order.
  explicit DelayScheduler(Clock* clock, DelaySchedulerOptions options = {});

  /// Shutdown(kCancelPending) if still running.
  ~DelayScheduler();

  DelayScheduler(const DelayScheduler&) = delete;
  DelayScheduler& operator=(const DelayScheduler&) = delete;

  /// Parks `done` for `delay_seconds`, rounded up to whole
  /// microseconds. It fires at the first microsecond reading past
  /// submit + delay, so it waits at least its own length (never short),
  /// and any positive delay completes on the driver. A delay too long
  /// for the clock (including +inf) saturates: it stays parked until
  /// cancelled or shut down. On a real clock a zero or negative delay
  /// runs `done(false)` on the calling thread before Submit returns,
  /// outside the scheduler lock: the callback may re-enter
  /// Submit/Cancel/CancelGroup, but a caller must not hold a lock
  /// across Submit that its callback takes. Under a virtual clock every
  /// submission fires on the driver in submission order. After shutdown
  /// the callback fires inline with cancelled=true and the returned id
  /// is 0.
  TimerId Submit(double delay_seconds, Callback done, StallGroup group = 0);

  /// Cancels one parked stall; its callback fires (cancelled=true) on
  /// the driver, never on the calling thread. False when the id is
  /// unknown or already expired.
  bool Cancel(TimerId id);

  /// Cancels every parked stall in `group` (group 0 is a no-op by
  /// definition); their callbacks fire on the driver, as for Cancel.
  /// Returns the number cancelled.
  size_t CancelGroup(StallGroup group);

  /// Blocks until nothing is parked, queued, or executing.
  void Drain();

  /// Stops the scheduler. Idempotent; joins the driver.
  void Shutdown(ShutdownMode mode = ShutdownMode::kCancelPending);

  // --- Observability (locked snapshots). ---------------------------------
  /// Stalls currently parked on the wheel or overflow heap.
  size_t parked() const;
  /// High-water mark of parked() -- the bench's capacity metric.
  size_t peak_parked() const;
  uint64_t scheduled_total() const;
  uint64_t fired_total() const;
  uint64_t cancelled_total() const;
  /// Level>0 slot drains (entries re-filed toward level 0).
  uint64_t cascades() const;
  /// Overflow-heap entries promoted onto the wheel.
  uint64_t overflow_promotions() const;
  /// Micros covered by the wheel before the overflow heap takes over.
  int64_t horizon_micros() const { return span_ticks_ * tick_micros_; }
  const DelaySchedulerOptions& options() const { return options_; }

 private:
  struct Entry {
    TimerId id = 0;
    StallGroup group = 0;
    int64_t submit_micros = 0;
    /// Fires once NowMicros() >= deadline_micros.
    int64_t deadline_micros = 0;
    /// deadline_micros / tick_micros: where the entry is filed.
    int64_t deadline_tick = 0;
    Callback done;
    // Intrusive wheel-slot list links + location (for O(1) unlink).
    Entry* prev = nullptr;
    Entry* next = nullptr;
    int level = -1;  // -1 => overflow heap.
    size_t slot = 0;
  };
  struct Completion {
    Callback done;
    bool cancelled = false;
  };

  int64_t TickOf(int64_t micros) const { return micros / tick_micros_; }
  size_t CurrentSlot() const {
    return static_cast<size_t>(current_tick_) & slot_mask_;
  }

  // All *Locked methods require mu_.
  void InsertLocked(Entry* e);
  /// Links `e` into the current tick's slot, keeping it in deadline
  /// order.
  void InsertCurrentTickLocked(Entry* e);
  /// Orders the current tick's slot by deadline; once per entered tick.
  void SortCurrentTickLocked();
  void UnlinkLocked(Entry* e);
  void CascadeLocked(size_t level);
  void AdvanceToLocked(int64_t now_micros, std::vector<Entry*>* expired);
  void PromoteOverflowLocked();
  /// Earliest instant (micros) at which anything can expire, cascade
  /// or be promoted, or -1 when nothing is parked.
  int64_t NextEventMicrosLocked() const;
  /// Moves entries to the completion queue (deletes them). Cancel paths
  /// then wake the driver to run them.
  void CompleteLocked(std::vector<Entry*>* entries, bool cancelled);
  /// Callbacks returned: drops executing_ and wakes Drain() waiters
  /// once nothing is parked, queued or executing.
  void EndExecutingLocked();
  void DriverLoop();

  Clock* clock_;
  DelaySchedulerOptions options_;
  bool virtual_ = false;
  int64_t tick_micros_ = 1;
  size_t slots_per_level_ = 0;
  size_t slot_mask_ = 0;
  int64_t span_ticks_ = 0;

  mutable std::mutex mu_;
  // Driver: an earlier deadline, a queued completion, or stop.
  std::condition_variable timer_cv_;
  std::condition_variable drain_cv_;  // Drain()/Shutdown(kDrain).
  bool stop_ = false;
  bool joined_ = false;
  TimerId next_id_ = 1;
  // The tick the driver has entered. Its level-0 slot is kept sorted by
  // deadline, so the driver pops due entries from the head.
  int64_t current_tick_ = 0;
  // wheel_[level][slot]: head of an intrusive doubly-linked list.
  std::vector<std::vector<Entry*>> wheel_;
  // Per level-0 slot (other than the current tick's): a lower bound on
  // its earliest deadline, never below the slot's tick. A cancel may
  // leave it early; that costs one early wake, which enters the tick.
  std::vector<int64_t> level0_earliest_;
  // The instant the driver is sleeping toward; Submit wakes it only
  // for an earlier deadline.
  int64_t driver_wake_micros_ = std::numeric_limits<int64_t>::max();
  std::vector<Entry*> sort_buf_;
  // Min-heap on deadline_micros (std::push_heap with greater-than).
  std::vector<Entry*> overflow_;
  std::unordered_map<TimerId, Entry*> entries_;
  // Completions waiting for the driver, in the order they were queued.
  std::vector<Completion> ready_;
  size_t executing_ = 0;
  size_t peak_parked_ = 0;
  uint64_t scheduled_total_ = 0;
  uint64_t fired_total_ = 0;
  uint64_t cancelled_total_ = 0;
  uint64_t cascades_ = 0;
  uint64_t overflow_promotions_ = 0;

  // Registry-owned instruments; null when options_.metrics is null so
  // the unobserved hot path pays a single pointer test.
  obs::Counter* m_scheduled_ = nullptr;
  obs::Counter* m_fired_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_cascades_ = nullptr;
  obs::Counter* m_overflow_promotions_ = nullptr;
  obs::Counter* m_driver_wakes_ = nullptr;
  obs::Gauge* m_parked_ = nullptr;
  obs::Gauge* m_parked_peak_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Histogram* m_park_micros_ = nullptr;
  obs::Histogram* m_dispatch_lag_micros_ = nullptr;

  std::thread driver_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_DELAY_SCHEDULER_H_
