// Edge-case tests for the DelayScheduler timer wheel: zero-delay
// immediate fire, overflow-heap promotion (the "multi-hour stall"
// path, exercised through a deliberately tiny wheel geometry),
// cancellation racing the cascade, virtual-clock instant-fire
// ordering, group cancellation, and the drain/shutdown protocol.
//
// Labeled "concurrency" in tests/CMakeLists.txt: the cancellation and
// drain cases are multi-threaded and are primary TSan targets.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/delay_scheduler.h"

namespace tarpit {
namespace {

int StressIters(int default_iters) {
  const char* env = std::getenv("TARPIT_STRESS_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

/// Spin-waits (with sleeps) until `pred` holds, failing after ~10s.
template <typename Pred>
void WaitFor(Pred pred) {
  for (int i = 0; i < 10'000; ++i) {
    if (pred()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "condition not reached within 10s";
}

TEST(DelaySchedulerTest, ZeroDelayFiresImmediatelyInOrder) {
  RealClock clock;
  DelaySchedulerOptions opts;
  opts.num_dispatchers = 1;  // Single dispatcher => FIFO completions.
  DelayScheduler sched(&clock, opts);

  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sched.Submit(0.0, [&, i](bool cancelled) {
      EXPECT_FALSE(cancelled);
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  sched.Drain();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sched.fired_total(), 16u);
  EXPECT_EQ(sched.cancelled_total(), 0u);
  EXPECT_EQ(sched.parked(), 0u);
}

TEST(DelaySchedulerTest, NegativeDelayBehavesLikeZero) {
  RealClock clock;
  DelayScheduler sched(&clock);
  std::atomic<int> fired{0};
  sched.Submit(-1.5, [&](bool cancelled) {
    EXPECT_FALSE(cancelled);
    ++fired;
  });
  sched.Drain();
  EXPECT_EQ(fired.load(), 1);
}

TEST(DelaySchedulerTest, StallIsNeverServedShort) {
  RealClock clock;
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  DelayScheduler sched(&clock, opts);

  const double delay = 0.020;  // 20 ms.
  const int64_t start = clock.NowMicros();
  std::atomic<int64_t> fired_at{0};
  sched.Submit(delay, [&](bool cancelled) {
    EXPECT_FALSE(cancelled);
    fired_at = clock.NowMicros();
  });
  sched.Drain();
  ASSERT_GT(fired_at.load(), 0);
  // Rounded UP to a tick: the defense invariant is "never early".
  EXPECT_GE(fired_at.load() - start, static_cast<int64_t>(delay * 1e6));
}

TEST(DelaySchedulerTest, BeyondHorizonGoesToOverflowAndPromotes) {
  RealClock clock;
  // Tiny geometry: 1 ms tick, 4 slots/level, 2 levels => 16 ms horizon.
  // A 60 ms stall is the scaled analogue of a multi-hour stall on the
  // production wheel (1 ms * 256^3 ~ 4.66 h): it must wait in the
  // overflow heap and be promoted onto the wheel as it comes in range.
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  opts.wheel_bits = 2;
  opts.levels = 2;
  DelayScheduler sched(&clock, opts);
  EXPECT_EQ(sched.horizon_micros(), 16'000);

  const int64_t start = clock.NowMicros();
  std::atomic<int64_t> fired_at{0};
  sched.Submit(0.060, [&](bool cancelled) {
    EXPECT_FALSE(cancelled);
    fired_at = clock.NowMicros();
  });
  EXPECT_EQ(sched.parked(), 1u);
  sched.Drain();
  ASSERT_GT(fired_at.load(), 0);
  EXPECT_GE(fired_at.load() - start, 60'000);
  EXPECT_GE(sched.overflow_promotions(), 1u);
  EXPECT_EQ(sched.fired_total(), 1u);
}

TEST(DelaySchedulerTest, CancelBeforeExpiryFiresCancelledExactlyOnce) {
  RealClock clock;
  DelayScheduler sched(&clock);
  std::atomic<int> calls{0};
  std::atomic<bool> was_cancelled{false};
  TimerId id = sched.Submit(30.0, [&](bool cancelled) {
    ++calls;
    was_cancelled = cancelled;
  });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));  // Second cancel: already gone.
  sched.Drain();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(was_cancelled.load());
  EXPECT_EQ(sched.cancelled_total(), 1u);
  EXPECT_EQ(sched.fired_total(), 0u);
}

TEST(DelaySchedulerTest, CancellationRacesCascadeExactlyOnce) {
  RealClock clock;
  // Geometry chosen so entries live on levels 0-2 and in the overflow
  // heap, and the driver cascades constantly while cancels race it.
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  opts.wheel_bits = 2;
  opts.levels = 3;  // 64 ms horizon.
  opts.num_dispatchers = 4;
  DelayScheduler sched(&clock, opts);

  const int n = StressIters(400);
  std::vector<std::unique_ptr<std::atomic<int>>> calls;
  calls.reserve(n);
  for (int i = 0; i < n; ++i) {
    calls.push_back(std::make_unique<std::atomic<int>>(0));
  }
  std::vector<TimerId> ids(n);
  for (int i = 0; i < n; ++i) {
    // Delays 1..100 ms: every wheel level plus the overflow heap.
    const double delay = 0.001 * (1 + i % 100);
    ids[i] = sched.Submit(delay, [&, i](bool) { ++*calls[i]; });
  }
  // Two threads cancel every other entry while the wheel cascades and
  // fires the rest underneath them.
  std::atomic<size_t> cancel_hits{0};
  std::thread cancellers[2];
  for (int t = 0; t < 2; ++t) {
    cancellers[t] = std::thread([&, t] {
      for (int i = t; i < n; i += 4) {  // Each thread: every 4th entry.
        if (sched.Cancel(ids[i])) ++cancel_hits;
      }
    });
  }
  for (auto& th : cancellers) th.join();
  sched.Drain();

  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(calls[i]->load(), 1) << "entry " << i;
  }
  EXPECT_EQ(sched.fired_total() + sched.cancelled_total(),
            static_cast<uint64_t>(n));
  EXPECT_EQ(sched.cancelled_total(), cancel_hits.load());
  EXPECT_GT(sched.cascades(), 0u);
}

TEST(DelaySchedulerTest, VirtualClockFiresInstantlyInSubmissionOrder) {
  VirtualClock clock;
  DelaySchedulerOptions opts;
  opts.num_dispatchers = 1;  // FIFO through the completion queue.
  DelayScheduler sched(&clock, opts);

  std::mutex mu;
  std::vector<int> order;
  // Deliberately decreasing delays: on a real wheel #3 (shortest)
  // would fire first; in virtual instant-fire mode completion order is
  // submission order, so the simulation timeline stays deterministic.
  const double delays[] = {3600.0, 60.0, 1.0, 0.001};
  for (int i = 0; i < 4; ++i) {
    sched.Submit(delays[i], [&, i](bool cancelled) {
      EXPECT_FALSE(cancelled);
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  sched.Drain();
  ASSERT_EQ(order.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sched.parked(), 0u);  // Nothing ever parks.
}

TEST(DelaySchedulerTest, CancelGroupSweepsOnlyThatGroup) {
  RealClock clock;
  DelayScheduler sched(&clock);
  std::atomic<int> cancelled_count{0};
  std::atomic<int> fired_count{0};
  auto cb = [&](bool cancelled) {
    if (cancelled) {
      ++cancelled_count;
    } else {
      ++fired_count;
    }
  };
  for (int i = 0; i < 10; ++i) sched.Submit(30.0, cb, /*group=*/7);
  for (int i = 0; i < 5; ++i) sched.Submit(0.005, cb, /*group=*/9);
  EXPECT_EQ(sched.CancelGroup(7), 10u);
  EXPECT_EQ(sched.CancelGroup(7), 0u);   // Idempotent.
  EXPECT_EQ(sched.CancelGroup(0), 0u);   // Group 0 is "ungrouped".
  sched.Drain();  // Group 9's short stalls expire naturally.
  EXPECT_EQ(cancelled_count.load(), 10);
  EXPECT_EQ(fired_count.load(), 5);
}

TEST(DelaySchedulerTest, ShutdownCancelPendingDropsNoCallback) {
  RealClock clock;
  auto sched = std::make_unique<DelayScheduler>(&clock);
  const int n = 64;
  std::atomic<int> called{0};
  std::atomic<int> cancelled{0};
  for (int i = 0; i < n; ++i) {
    // Hours-long stalls: only cancellation can complete them promptly.
    sched->Submit(3600.0 * (i + 1), [&](bool c) {
      ++called;
      if (c) ++cancelled;
    });
  }
  EXPECT_EQ(sched->parked(), static_cast<size_t>(n));
  sched->Shutdown(DelayScheduler::ShutdownMode::kCancelPending);
  EXPECT_EQ(called.load(), n);
  EXPECT_EQ(cancelled.load(), n);

  // Post-shutdown submissions complete inline, cancelled, id 0.
  std::atomic<bool> late_cancelled{false};
  TimerId late = sched->Submit(1.0, [&](bool c) { late_cancelled = c; });
  EXPECT_EQ(late, 0u);
  EXPECT_TRUE(late_cancelled.load());
}

TEST(DelaySchedulerTest, ShutdownDrainWaitsForNaturalExpiry) {
  RealClock clock;
  DelayScheduler sched(&clock);
  std::atomic<int> fired{0};
  for (int i = 0; i < 8; ++i) {
    sched.Submit(0.005 * (i + 1), [&](bool cancelled) {
      EXPECT_FALSE(cancelled);
      ++fired;
    });
  }
  sched.Shutdown(DelayScheduler::ShutdownMode::kDrain);
  EXPECT_EQ(fired.load(), 8);
  EXPECT_EQ(sched.cancelled_total(), 0u);
}

TEST(DelaySchedulerTest, CallbacksMayResubmit) {
  // Completion callbacks run outside the scheduler lock, so a chain of
  // resubmissions from inside callbacks must not deadlock.
  RealClock clock;
  DelayScheduler sched(&clock);
  std::atomic<int> hops{0};
  std::function<void(bool)> hop = [&](bool cancelled) {
    if (cancelled) return;
    if (++hops < 5) sched.Submit(0.001, hop);
  };
  sched.Submit(0.001, hop);
  WaitFor([&] { return hops.load() >= 5; });
  sched.Drain();
  EXPECT_EQ(hops.load(), 5);
}

TEST(DelaySchedulerTest, PeakParkedTracksHighWaterMark) {
  RealClock clock;
  DelayScheduler sched(&clock);
  for (int i = 0; i < 100; ++i) sched.Submit(3600.0, [](bool) {});
  EXPECT_EQ(sched.parked(), 100u);
  EXPECT_EQ(sched.peak_parked(), 100u);
  sched.Shutdown(DelayScheduler::ShutdownMode::kCancelPending);
  EXPECT_EQ(sched.parked(), 0u);
  EXPECT_EQ(sched.peak_parked(), 100u);  // High-water mark survives.
}

}  // namespace
}  // namespace tarpit
