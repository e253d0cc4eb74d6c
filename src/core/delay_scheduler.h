#ifndef TARPIT_CORE_DELAY_SCHEDULER_H_
#define TARPIT_CORE_DELAY_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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
  /// Completion workers: the threads that run expiry callbacks. This
  /// is the *fixed* thread budget that carries every concurrent stall
  /// -- the whole point of the scheduler is that parked requests cost
  /// a wheel entry, not a thread.
  size_t num_dispatchers = 4;
  /// Wheel resolution. Expiries are rounded UP to the next tick, so a
  /// stall is never served short (the defense invariant); it may run
  /// up to one tick long.
  int64_t tick_micros = 1000;
  /// log2 of slots per wheel level.
  size_t wheel_bits = 8;
  /// Hierarchy depth. Horizon = tick * 2^(bits*levels); with the
  /// defaults (1 ms * 256^3) that is ~4.66 hours. Stalls beyond the
  /// horizon -- extraction-scale multi-hour/multi-week charges -- wait
  /// in an overflow min-heap and are promoted onto the wheel when they
  /// come within range.
  size_t levels = 3;
  /// When non-null, the scheduler publishes wheel occupancy, cascade
  /// and overflow-promotion counts, completion-queue depth, and park /
  /// dispatch-lag latency histograms here (names are listed in
  /// docs/INTERNALS.md). Must outlive the scheduler.
  obs::MetricRegistry* metrics = nullptr;
};

/// Hierarchical timer wheel + overflow heap with a dispatcher pool:
/// turns "a stalled request" from a blocked OS thread into a parked
/// wheel entry, so a fixed thread count can carry tens of thousands of
/// concurrently-stalled sessions.
///
/// Threads: one driver (advances the wheel; absent in virtual mode)
/// plus `num_dispatchers` completion workers. Expired/cancelled
/// entries move to a FIFO completion queue; dispatchers pop and invoke
/// the callback OUTSIDE the scheduler lock, so callbacks may submit,
/// cancel, or block without deadlocking the wheel.
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
  /// at once through the completion queue and no driver thread runs.
  explicit DelayScheduler(Clock* clock, DelaySchedulerOptions options = {});

  /// Shutdown(kCancelPending) if still running.
  ~DelayScheduler();

  DelayScheduler(const DelayScheduler&) = delete;
  DelayScheduler& operator=(const DelayScheduler&) = delete;

  /// Parks `done` for `delay_seconds` (rounded up to a tick). Zero or
  /// negative delays complete through the queue immediately, in
  /// submission order. After shutdown the callback fires inline with
  /// cancelled=true and the returned id is 0.
  TimerId Submit(double delay_seconds, Callback done, StallGroup group = 0);

  /// Cancels one parked stall; its callback fires (cancelled=true) on
  /// a dispatcher. False when the id is unknown or already expired.
  bool Cancel(TimerId id);

  /// Cancels every parked stall in `group` (group 0 is a no-op by
  /// definition). Returns the number cancelled.
  size_t CancelGroup(StallGroup group);

  /// Blocks until nothing is parked, queued, or executing.
  void Drain();

  /// Stops the scheduler. Idempotent; joins all threads.
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
    int64_t deadline_tick = 0;
    int64_t submit_micros = 0;
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

  // All *Locked methods require mu_.
  void InsertLocked(Entry* e, std::vector<Entry*>* expired);
  void UnlinkLocked(Entry* e);
  void CascadeLocked(size_t level, std::vector<Entry*>* expired);
  void AdvanceToLocked(int64_t now_micros, std::vector<Entry*>* expired);
  void PromoteOverflowLocked(std::vector<Entry*>* expired);
  /// Earliest tick at which anything can expire or cascade, or -1.
  int64_t NextEventTickLocked() const;
  /// Moves entries to the completion queue (deletes them) and wakes
  /// dispatchers.
  void CompleteLocked(std::vector<Entry*>* entries, bool cancelled);
  void DriverLoop();
  void DispatcherLoop();

  Clock* clock_;
  DelaySchedulerOptions options_;
  bool virtual_ = false;
  int64_t tick_micros_ = 1;
  size_t slots_per_level_ = 0;
  size_t slot_mask_ = 0;
  int64_t span_ticks_ = 0;

  mutable std::mutex mu_;
  std::condition_variable timer_cv_;  // Driver: new earlier deadline/stop.
  std::condition_variable ready_cv_;  // Dispatchers: completion queue.
  std::condition_variable drain_cv_;  // Drain()/Shutdown(kDrain).
  bool stop_ = false;
  bool joined_ = false;
  TimerId next_id_ = 1;
  int64_t current_tick_ = 0;
  // wheel_[level][slot]: head of an intrusive doubly-linked list.
  std::vector<std::vector<Entry*>> wheel_;
  // Min-heap on deadline_tick (std::push_heap with greater-than).
  std::vector<Entry*> overflow_;
  std::unordered_map<TimerId, Entry*> entries_;
  std::deque<Completion> ready_;
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
  obs::Gauge* m_parked_ = nullptr;
  obs::Gauge* m_parked_peak_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Histogram* m_park_micros_ = nullptr;
  obs::Histogram* m_dispatch_lag_micros_ = nullptr;

  std::thread driver_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_DELAY_SCHEDULER_H_
