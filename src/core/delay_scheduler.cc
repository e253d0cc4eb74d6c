#include "core/delay_scheduler.h"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <utility>

namespace tarpit {

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

/// The driver's longest single sleep. A far deadline (hours away, or a
/// saturated kNever) is slept toward in hour-long waits, so the
/// condition variable's clock arithmetic never overflows.
constexpr int64_t kMaxWaitMicros = int64_t{3'600'000'000};

/// Min-heap on deadline (std::*_heap builds a max-heap, so invert).
struct DeadlineGreater {
  template <typename E>
  bool operator()(const E* a, const E* b) const {
    return a->deadline_micros > b->deadline_micros;
  }
};

}  // namespace

DelayScheduler::DelayScheduler(Clock* clock, DelaySchedulerOptions options)
    : clock_(clock), options_(options) {
  if (options_.tick_micros < 1) options_.tick_micros = 1;
  if (options_.wheel_bits < 1) options_.wheel_bits = 1;
  if (options_.wheel_bits > 16) options_.wheel_bits = 16;
  if (options_.levels < 1) options_.levels = 1;
  // Keep the full span addressable in an int64 shift.
  while (options_.wheel_bits * options_.levels > 32) --options_.levels;

  virtual_ = clock_->IsVirtual();
  tick_micros_ = options_.tick_micros;
  slots_per_level_ = size_t{1} << options_.wheel_bits;
  slot_mask_ = slots_per_level_ - 1;
  span_ticks_ = int64_t{1} << (options_.wheel_bits * options_.levels);
  current_tick_ = TickOf(clock_->NowMicros());

  if (options_.metrics != nullptr) {
    obs::MetricRegistry* m = options_.metrics;
    m_scheduled_ = m->GetCounter("tarpit_scheduler_scheduled_total");
    m_fired_ = m->GetCounter("tarpit_scheduler_fired_total");
    m_cancelled_ = m->GetCounter("tarpit_scheduler_cancelled_total");
    m_cascades_ = m->GetCounter("tarpit_scheduler_cascades_total");
    m_overflow_promotions_ =
        m->GetCounter("tarpit_scheduler_overflow_promotions_total");
    m_driver_wakes_ = m->GetCounter("tarpit_scheduler_driver_wakes_total");
    m_parked_ = m->GetGauge("tarpit_scheduler_parked");
    m_parked_peak_ = m->GetGauge("tarpit_scheduler_parked_peak");
    m_queue_depth_ =
        m->GetGauge("tarpit_scheduler_completion_queue_depth");
    obs::HistogramOptions us;
    us.unit = "us";
    m_park_micros_ =
        m->GetHistogram("tarpit_scheduler_park_micros", {}, us);
    m_dispatch_lag_micros_ =
        m->GetHistogram("tarpit_scheduler_dispatch_lag_micros", {}, us);
  }

  wheel_.assign(options_.levels,
                std::vector<Entry*>(slots_per_level_, nullptr));
  level0_earliest_.assign(slots_per_level_, kNever);
  driver_ = std::thread([this] { DriverLoop(); });
}

DelayScheduler::~DelayScheduler() { Shutdown(ShutdownMode::kCancelPending); }

TimerId DelayScheduler::Submit(double delay_seconds, Callback done,
                               StallGroup group) {
  const int64_t delay_us = Clock::DelayToMicros(delay_seconds);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      if (m_scheduled_ != nullptr) m_scheduled_->Increment();
      const TimerId id = next_id_++;
      if (virtual_ || delay_us == 0) {
        if (m_fired_ != nullptr) m_fired_->Increment();
        if (virtual_) {
          // Instant fire: virtual time charges without waiting. FIFO
          // through the completion queue preserves submission order.
          ready_.push_back(Completion{std::move(done), false});
          if (m_queue_depth_ != nullptr) {
            m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
          }
          timer_cv_.notify_one();
          return id;
        }
        // DelayToMicros rounds up, so 0 means the charge was zero or
        // negative: a deadline <= now has nothing to wait for and
        // cannot be served short. Complete on the calling thread,
        // outside the lock (the callback may re-enter); executing_
        // keeps Drain() and Shutdown() waiting until it returns.
        ++executing_;
        lock.unlock();
        done(/*cancelled=*/false);
        lock.lock();
        EndExecutingLocked();
        return id;
      }
      Entry* e = new Entry;
      e->id = id;
      e->group = group;
      e->done = std::move(done);
      e->submit_micros = clock_->NowMicros();
      // NowMicros truncates, so the submit instant may lie up to 1 us
      // past submit_micros: the +1 keeps the stall from being served
      // short by that fraction. A deadline past the clock's range
      // saturates to kNever, which only a cancel or shutdown completes.
      e->deadline_micros = delay_us < kNever - 1 - e->submit_micros
                               ? e->submit_micros + delay_us + 1
                               : kNever;
      e->deadline_tick = TickOf(e->deadline_micros);
      InsertLocked(e);
      entries_.emplace(id, e);
      peak_parked_ = std::max(peak_parked_, entries_.size());
      if (m_parked_ != nullptr) {
        m_parked_->Set(static_cast<int64_t>(entries_.size()));
        m_parked_peak_->Set(static_cast<int64_t>(peak_parked_));
      }
      if (e->deadline_micros < driver_wake_micros_) {
        driver_wake_micros_ = e->deadline_micros;
        timer_cv_.notify_one();
      }
      return id;
    }
  }
  // Shut down: complete inline as cancelled so no submission is ever
  // silently dropped.
  done(/*cancelled=*/true);
  return 0;
}

bool DelayScheduler::Cancel(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  Entry* e = it->second;
  if (e->level >= 0) {
    UnlinkLocked(e);
  } else {
    auto hit = std::find(overflow_.begin(), overflow_.end(), e);
    assert(hit != overflow_.end());
    overflow_.erase(hit);
    std::make_heap(overflow_.begin(), overflow_.end(), DeadlineGreater{});
  }
  std::vector<Entry*> one{e};
  CompleteLocked(&one, /*cancelled=*/true);
  timer_cv_.notify_one();
  return true;
}

size_t DelayScheduler::CancelGroup(StallGroup group) {
  if (group == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry*> victims;
  for (const auto& [id, e] : entries_) {
    if (e->group == group) victims.push_back(e);
  }
  bool heap_touched = false;
  for (Entry* e : victims) {
    if (e->level >= 0) {
      UnlinkLocked(e);
    } else {
      overflow_.erase(std::find(overflow_.begin(), overflow_.end(), e));
      heap_touched = true;
    }
  }
  if (heap_touched) {
    std::make_heap(overflow_.begin(), overflow_.end(), DeadlineGreater{});
  }
  const size_t n = victims.size();
  CompleteLocked(&victims, /*cancelled=*/true);
  if (n > 0) timer_cv_.notify_one();
  return n;
}

void DelayScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return entries_.empty() && ready_.empty() && executing_ == 0;
  });
}

void DelayScheduler::Shutdown(ShutdownMode mode) {
  bool do_join = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (mode == ShutdownMode::kDrain && !stop_) {
      drain_cv_.wait(lock, [this] {
        return entries_.empty() && ready_.empty() && executing_ == 0;
      });
    }
    if (!stop_) {
      stop_ = true;
      if (mode == ShutdownMode::kCancelPending && !entries_.empty()) {
        std::vector<Entry*> victims;
        victims.reserve(entries_.size());
        for (const auto& [id, e] : entries_) victims.push_back(e);
        for (Entry* e : victims) {
          if (e->level >= 0) UnlinkLocked(e);
        }
        overflow_.clear();
        CompleteLocked(&victims, /*cancelled=*/true);
      }
      timer_cv_.notify_one();
    }
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  if (do_join) {
    if (driver_.joinable()) driver_.join();
    // A zero-delay callback may still be running on a submitting
    // thread; it touches mu_ once more on return, so the scheduler
    // must outlive it.
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] { return executing_ == 0; });
  }
}

// --- Accessors. ----------------------------------------------------------

size_t DelayScheduler::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}
size_t DelayScheduler::peak_parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_parked_;
}
uint64_t DelayScheduler::cascades() const {
  return m_cascades_ != nullptr
             ? static_cast<uint64_t>(m_cascades_->Value())
             : 0;
}

// --- Wheel mechanics (mu_ held). -----------------------------------------

void DelayScheduler::InsertLocked(Entry* e) {
  const int64_t delta = e->deadline_tick - current_tick_;
  if (delta <= 0) {
    // Due now or within the current tick: the driver pops it from the
    // sorted head once NowMicros() reaches its deadline.
    InsertCurrentTickLocked(e);
    return;
  }
  if (delta >= span_ticks_) {
    e->level = -1;
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), DeadlineGreater{});
    return;
  }
  const size_t bits = options_.wheel_bits;
  for (size_t level = 0; level < options_.levels; ++level) {
    if (delta < (int64_t{1} << (bits * (level + 1)))) {
      const size_t slot =
          static_cast<size_t>(e->deadline_tick >> (bits * level)) &
          slot_mask_;
      e->level = static_cast<int>(level);
      e->slot = slot;
      e->prev = nullptr;
      e->next = wheel_[level][slot];
      if (e->next != nullptr) e->next->prev = e;
      wheel_[level][slot] = e;
      if (level == 0) {
        level0_earliest_[slot] =
            std::min(level0_earliest_[slot], e->deadline_micros);
      }
      return;
    }
  }
  assert(false && "delta < span_ticks_ must land in some level");
}

void DelayScheduler::InsertCurrentTickLocked(Entry* e) {
  const size_t slot = CurrentSlot();
  Entry* prev = nullptr;
  Entry* next = wheel_[0][slot];
  while (next != nullptr && next->deadline_micros <= e->deadline_micros) {
    prev = next;
    next = next->next;
  }
  e->level = 0;
  e->slot = slot;
  e->prev = prev;
  e->next = next;
  if (next != nullptr) next->prev = e;
  if (prev != nullptr) {
    prev->next = e;
  } else {
    wheel_[0][slot] = e;
  }
}

void DelayScheduler::SortCurrentTickLocked() {
  const size_t slot = CurrentSlot();
  level0_earliest_[slot] = kNever;  // The sorted head takes over.
  Entry* node = wheel_[0][slot];
  if (node == nullptr || node->next == nullptr) return;
  sort_buf_.clear();
  for (; node != nullptr; node = node->next) sort_buf_.push_back(node);
  std::sort(sort_buf_.begin(), sort_buf_.end(),
            [](const Entry* a, const Entry* b) {
              return a->deadline_micros < b->deadline_micros;
            });
  Entry* prev = nullptr;
  for (Entry* e : sort_buf_) {
    e->prev = prev;
    e->next = nullptr;
    if (prev != nullptr) prev->next = e;
    prev = e;
  }
  wheel_[0][slot] = sort_buf_.front();
}

void DelayScheduler::UnlinkLocked(Entry* e) {
  assert(e->level >= 0);
  if (e->prev != nullptr) {
    e->prev->next = e->next;
  } else {
    wheel_[e->level][e->slot] = e->next;
    if (e->level == 0 && e->next == nullptr) {
      level0_earliest_[e->slot] = kNever;
    }
  }
  if (e->next != nullptr) e->next->prev = e->prev;
  e->prev = nullptr;
  e->next = nullptr;
  e->level = -1;
}

void DelayScheduler::CascadeLocked(size_t level) {
  if (level >= options_.levels) return;
  const size_t idx =
      static_cast<size_t>(current_tick_ >> (options_.wheel_bits * level)) &
      slot_mask_;
  // If this level's cursor also just wrapped, the level above owes us
  // its slot first (its entries re-file into this level's slots,
  // possibly including `idx`).
  if (idx == 0) CascadeLocked(level + 1);
  Entry* node = wheel_[level][idx];
  if (node == nullptr) return;
  wheel_[level][idx] = nullptr;
  if (m_cascades_ != nullptr) m_cascades_->Increment();
  while (node != nullptr) {
    Entry* next = node->next;
    node->prev = nullptr;
    node->next = nullptr;
    node->level = -1;
    InsertLocked(node);
    node = next;
  }
}

void DelayScheduler::PromoteOverflowLocked() {
  while (!overflow_.empty() &&
         overflow_.front()->deadline_tick - current_tick_ < span_ticks_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), DeadlineGreater{});
    Entry* e = overflow_.back();
    overflow_.pop_back();
    if (m_overflow_promotions_ != nullptr) {
      m_overflow_promotions_->Increment();
    }
    InsertLocked(e);
  }
}

void DelayScheduler::AdvanceToLocked(int64_t now_micros,
                                     std::vector<Entry*>* expired) {
  const int64_t target = TickOf(now_micros);
  while (current_tick_ < target) {
    // The tick being left lies wholly in the past: everything still
    // filed in it is due.
    Entry* node = wheel_[0][CurrentSlot()];
    wheel_[0][CurrentSlot()] = nullptr;
    while (node != nullptr) {
      Entry* next = node->next;
      node->prev = nullptr;
      node->next = nullptr;
      node->level = -1;
      expired->push_back(node);
      node = next;
    }
    // Fast-forward across empty space: nothing expires or cascades
    // before the next event, so don't iterate tick-by-tick through an
    // idle hour.
    const int64_t next_event = NextEventMicrosLocked();
    const int64_t next_tick = next_event < 0 ? -1 : TickOf(next_event);
    if (next_tick < 0 || next_tick > target) {
      current_tick_ = target;
      break;
    }
    if (next_tick > current_tick_ + 1) current_tick_ = next_tick - 1;
    ++current_tick_;
    // Enter the tick: order what was filed into it, then add what the
    // cascade and the overflow heap bring in at their sorted places.
    SortCurrentTickLocked();
    if (CurrentSlot() == 0) CascadeLocked(1);
    PromoteOverflowLocked();
  }
  PromoteOverflowLocked();
  // The current tick is sorted: its due entries form the head.
  Entry* head;
  while ((head = wheel_[0][CurrentSlot()]) != nullptr &&
         head->deadline_micros <= now_micros) {
    UnlinkLocked(head);
    expired->push_back(head);
  }
}

int64_t DelayScheduler::NextEventMicrosLocked() const {
  // The current tick's head precedes everything filed in later ticks.
  if (const Entry* head = wheel_[0][CurrentSlot()]) {
    return head->deadline_micros;
  }
  int64_t best = -1;
  auto consider = [&best](int64_t t) {
    if (best < 0 || t < best) best = t;
  };
  // The other level-0 slots hold ticks in (current, current+slots).
  for (size_t off = 1; off < slots_per_level_; ++off) {
    const size_t idx =
        static_cast<size_t>(current_tick_ + static_cast<int64_t>(off)) &
        slot_mask_;
    if (wheel_[0][idx] != nullptr) {
      consider(level0_earliest_[idx]);
      break;
    }
  }
  // Higher levels: the next event is the cascade boundary of the
  // nearest non-empty slot (entries inside expire at or after it).
  const size_t bits = options_.wheel_bits;
  for (size_t level = 1; level < options_.levels; ++level) {
    const int64_t base = current_tick_ >> (bits * level);
    for (size_t off = 1; off <= slots_per_level_; ++off) {
      const size_t idx =
          static_cast<size_t>(base + static_cast<int64_t>(off)) &
          slot_mask_;
      if (wheel_[level][idx] != nullptr) {
        consider(((base + static_cast<int64_t>(off)) << (bits * level)) *
                 tick_micros_);
        break;
      }
    }
  }
  if (!overflow_.empty()) consider(overflow_.front()->deadline_micros);
  return best;
}

void DelayScheduler::CompleteLocked(std::vector<Entry*>* entries,
                                    bool cancelled) {
  if (entries->empty()) return;
  const int64_t now_micros =
      options_.metrics != nullptr ? clock_->NowMicros() : 0;
  for (Entry* e : *entries) {
    entries_.erase(e->id);
    if (obs::Counter* c = cancelled ? m_cancelled_ : m_fired_) {
      c->Increment();
    }
    if (options_.metrics != nullptr) {
      m_park_micros_->Record(
          std::max<int64_t>(0, now_micros - e->submit_micros));
      if (!cancelled) {
        // How late past its exact deadline the stall actually fired:
        // driver wake-up jitter.
        m_dispatch_lag_micros_->Record(
            std::max<int64_t>(0, now_micros - e->deadline_micros));
      }
    }
    ready_.push_back(Completion{std::move(e->done), cancelled});
    delete e;
  }
  if (m_parked_ != nullptr) {
    m_parked_->Set(static_cast<int64_t>(entries_.size()));
  }
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
  }
  entries->clear();
}

// --- Threads. ------------------------------------------------------------

void DelayScheduler::DriverLoop() {
#if defined(__linux__)
  // Timed waits end within ~1 ns of the deadline instead of the
  // default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Entry*> expired;
  std::vector<Completion> running;
  for (;;) {
    // Virtual mode parks nothing: the driver only runs the queue.
    if (!virtual_) {
      AdvanceToLocked(clock_->NowMicros(), &expired);
      CompleteLocked(&expired, /*cancelled=*/false);
    }
    if (!ready_.empty()) {
      // Run the whole queue outside the lock (callbacks may re-enter),
      // in the order it was queued; executing_ keeps Drain() and
      // Shutdown() waiting until the last one returns.
      running.swap(ready_);
      if (m_queue_depth_ != nullptr) m_queue_depth_->Set(0);
      ++executing_;
      lock.unlock();
      for (Completion& c : running) c.done(c.cancelled);
      running.clear();  // Destroy the callbacks outside the lock too.
      lock.lock();
      EndExecutingLocked();
      continue;  // Time passed: re-evaluate before sleeping.
    }
    if (stop_) return;
    const int64_t next = virtual_ ? -1 : NextEventMicrosLocked();
    if (next < 0) {
      driver_wake_micros_ = kNever;
      timer_cv_.wait(lock);
    } else {
      const int64_t wait = next - clock_->NowMicros();
      if (wait <= 0) continue;
      driver_wake_micros_ = next;
      timer_cv_.wait_for(
          lock, std::chrono::microseconds(std::min(wait, kMaxWaitMicros)));
    }
    // Re-evaluate: time passed, or submit/cancel/stop changed things.
    if (m_driver_wakes_ != nullptr) m_driver_wakes_->Increment();
  }
}

void DelayScheduler::EndExecutingLocked() {
  --executing_;
  if (ready_.empty() && entries_.empty() && executing_ == 0) {
    drain_cv_.notify_all();
  }
}

}  // namespace tarpit
