#include "core/delay_scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

namespace tarpit {

namespace {

/// Min-heap on deadline (std::*_heap builds a max-heap, so invert).
struct DeadlineGreater {
  template <typename E>
  bool operator()(const E* a, const E* b) const {
    return a->deadline_tick > b->deadline_tick;
  }
};

}  // namespace

DelayScheduler::DelayScheduler(Clock* clock, DelaySchedulerOptions options)
    : clock_(clock), options_(options) {
  if (options_.num_dispatchers == 0) options_.num_dispatchers = 1;
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
  dispatchers_.reserve(options_.num_dispatchers);
  for (size_t i = 0; i < options_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
  if (!virtual_) {
    driver_ = std::thread([this] { DriverLoop(); });
  }
}

DelayScheduler::~DelayScheduler() { Shutdown(ShutdownMode::kCancelPending); }

TimerId DelayScheduler::Submit(double delay_seconds, Callback done,
                               StallGroup group) {
  const int64_t delay_us = Clock::DelayToMicros(delay_seconds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      ++scheduled_total_;
      if (m_scheduled_ != nullptr) m_scheduled_->Increment();
      const TimerId id = next_id_++;
      if (virtual_ || delay_us == 0) {
        // Instant fire: virtual time charges without waiting, and a
        // zero delay has nothing to wait for. FIFO through the
        // completion queue preserves submission order.
        ++fired_total_;
        ready_.push_back(Completion{std::move(done), false});
        if (m_fired_ != nullptr) m_fired_->Increment();
        if (m_queue_depth_ != nullptr) {
          m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
        }
        ready_cv_.notify_one();
        return id;
      }
      Entry* e = new Entry;
      e->id = id;
      e->group = group;
      e->done = std::move(done);
      e->submit_micros = clock_->NowMicros();
      // Round the expiry UP to the next tick so a stall is never
      // served short.
      e->deadline_tick =
          (e->submit_micros + delay_us + tick_micros_ - 1) /
          tick_micros_;
      std::vector<Entry*> expired;
      InsertLocked(e, &expired);
      if (expired.empty()) {
        entries_.emplace(id, e);
        peak_parked_ = std::max(peak_parked_, entries_.size());
        if (m_parked_ != nullptr) {
          m_parked_->Set(static_cast<int64_t>(entries_.size()));
          m_parked_peak_->Set(static_cast<int64_t>(peak_parked_));
        }
        // Wake the driver in case this deadline is earlier than what
        // it is sleeping toward.
        timer_cv_.notify_one();
      } else {
        CompleteLocked(&expired, /*cancelled=*/false);
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
      timer_cv_.notify_all();
      ready_cv_.notify_all();
    }
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  if (do_join) {
    if (driver_.joinable()) driver_.join();
    for (auto& d : dispatchers_) {
      if (d.joinable()) d.join();
    }
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
uint64_t DelayScheduler::scheduled_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scheduled_total_;
}
uint64_t DelayScheduler::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_total_;
}
uint64_t DelayScheduler::cancelled_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_total_;
}
uint64_t DelayScheduler::cascades() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cascades_;
}
uint64_t DelayScheduler::overflow_promotions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflow_promotions_;
}

// --- Wheel mechanics (mu_ held). -----------------------------------------

void DelayScheduler::InsertLocked(Entry* e, std::vector<Entry*>* expired) {
  const int64_t delta = e->deadline_tick - current_tick_;
  if (delta <= 0) {
    e->level = -1;
    expired->push_back(e);
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
      return;
    }
  }
  assert(false && "delta < span_ticks_ must land in some level");
}

void DelayScheduler::UnlinkLocked(Entry* e) {
  assert(e->level >= 0);
  if (e->prev != nullptr) {
    e->prev->next = e->next;
  } else {
    wheel_[e->level][e->slot] = e->next;
  }
  if (e->next != nullptr) e->next->prev = e->prev;
  e->prev = nullptr;
  e->next = nullptr;
  e->level = -1;
}

void DelayScheduler::CascadeLocked(size_t level,
                                   std::vector<Entry*>* expired) {
  if (level >= options_.levels) return;
  const size_t idx =
      static_cast<size_t>(current_tick_ >> (options_.wheel_bits * level)) &
      slot_mask_;
  // If this level's cursor also just wrapped, the level above owes us
  // its slot first (its entries re-file into this level's slots,
  // possibly including `idx`).
  if (idx == 0) CascadeLocked(level + 1, expired);
  Entry* node = wheel_[level][idx];
  if (node == nullptr) return;
  wheel_[level][idx] = nullptr;
  ++cascades_;
  if (m_cascades_ != nullptr) m_cascades_->Increment();
  while (node != nullptr) {
    Entry* next = node->next;
    node->prev = nullptr;
    node->next = nullptr;
    node->level = -1;
    InsertLocked(node, expired);
    node = next;
  }
}

void DelayScheduler::PromoteOverflowLocked(std::vector<Entry*>* expired) {
  while (!overflow_.empty() &&
         overflow_.front()->deadline_tick - current_tick_ < span_ticks_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), DeadlineGreater{});
    Entry* e = overflow_.back();
    overflow_.pop_back();
    ++overflow_promotions_;
    if (m_overflow_promotions_ != nullptr) {
      m_overflow_promotions_->Increment();
    }
    InsertLocked(e, expired);
  }
}

void DelayScheduler::AdvanceToLocked(int64_t now_micros,
                                     std::vector<Entry*>* expired) {
  const int64_t target = TickOf(now_micros);
  while (current_tick_ < target) {
    // Fast-forward across empty space: nothing expires or cascades
    // before the next event tick, so don't iterate tick-by-tick
    // through an idle hour.
    const int64_t next_event = NextEventTickLocked();
    if (next_event < 0 || next_event > target) {
      current_tick_ = target;
      break;
    }
    if (next_event > current_tick_ + 1) current_tick_ = next_event - 1;
    ++current_tick_;
    const size_t idx0 = static_cast<size_t>(current_tick_) & slot_mask_;
    if (idx0 == 0) CascadeLocked(1, expired);
    // Everything in the level-0 slot for this tick expires now.
    Entry* node = wheel_[0][idx0];
    wheel_[0][idx0] = nullptr;
    while (node != nullptr) {
      Entry* next = node->next;
      node->prev = nullptr;
      node->next = nullptr;
      node->level = -1;
      expired->push_back(node);
      node = next;
    }
    PromoteOverflowLocked(expired);
  }
  PromoteOverflowLocked(expired);
}

int64_t DelayScheduler::NextEventTickLocked() const {
  int64_t best = -1;
  auto consider = [&best](int64_t t) {
    if (best < 0 || t < best) best = t;
  };
  // Level 0 slots hold exact expiry ticks in (current, current+slots].
  for (size_t off = 1; off <= slots_per_level_; ++off) {
    const size_t idx =
        static_cast<size_t>(current_tick_ + static_cast<int64_t>(off)) &
        slot_mask_;
    if (wheel_[0][idx] != nullptr) {
      consider(current_tick_ + static_cast<int64_t>(off));
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
        consider((base + static_cast<int64_t>(off))
                 << (bits * level));
        break;
      }
    }
  }
  if (!overflow_.empty()) consider(overflow_.front()->deadline_tick);
  return best;
}

void DelayScheduler::CompleteLocked(std::vector<Entry*>* entries,
                                    bool cancelled) {
  if (entries->empty()) return;
  const int64_t now_micros =
      options_.metrics != nullptr ? clock_->NowMicros() : 0;
  for (Entry* e : *entries) {
    entries_.erase(e->id);
    if (cancelled) {
      ++cancelled_total_;
      if (m_cancelled_ != nullptr) m_cancelled_->Increment();
    } else {
      ++fired_total_;
      if (m_fired_ != nullptr) m_fired_->Increment();
    }
    if (options_.metrics != nullptr) {
      m_park_micros_->Record(
          std::max<int64_t>(0, now_micros - e->submit_micros));
      if (!cancelled) {
        // How late past its rounded-up deadline the stall actually
        // fired: driver wakeup jitter plus cascade batching.
        m_dispatch_lag_micros_->Record(std::max<int64_t>(
            0, now_micros - e->deadline_tick * tick_micros_));
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
  if (entries->size() == 1) {
    ready_cv_.notify_one();
  } else {
    ready_cv_.notify_all();
  }
  entries->clear();
}

// --- Threads. ------------------------------------------------------------

void DelayScheduler::DriverLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const int64_t next_tick = NextEventTickLocked();
    if (next_tick < 0) {
      timer_cv_.wait(lock);
      continue;
    }
    const int64_t now = clock_->NowMicros();
    const int64_t due = next_tick * tick_micros_;
    if (now < due) {
      timer_cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;  // Re-evaluate: submit/cancel/stop may have changed things.
    }
    std::vector<Entry*> expired;
    AdvanceToLocked(now, &expired);
    CompleteLocked(&expired, /*cancelled=*/false);
  }
}

void DelayScheduler::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ready_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stop_) return;
      continue;
    }
    Completion c = std::move(ready_.front());
    ready_.pop_front();
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(ready_.size()));
    }
    ++executing_;
    lock.unlock();
    c.done(c.cancelled);  // Outside the lock: callbacks may re-enter.
    lock.lock();
    --executing_;
    if (ready_.empty() && entries_.empty() && executing_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

}  // namespace tarpit
