// Edge-case tests for the DelayScheduler timer wheel: zero-delay
// immediate fire (inline on the submitting thread, re-entrant, covered
// by Drain), firing at each stall's own microsecond deadline (never
// short, not rounded to the next tick, and without waking the driver
// for later deadlines), overflow-heap promotion (the "multi-hour
// stall" path, exercised through a deliberately tiny wheel geometry),
// huge and infinite delays that saturate instead of wrapping,
// cancellation racing the cascade and a same-tick crowd, virtual-clock
// instant-fire ordering, group cancellation, the drain/shutdown
// protocol, and the one-thread contract: every parked stall completes
// on the driver, never on the thread that cancelled it.
//
// Labeled "concurrency" in tests/CMakeLists.txt: the cancellation and
// drain cases are multi-threaded and are primary TSan targets.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/delay_scheduler.h"
#include "obs/metrics.h"
#include "registry_series.h"

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

constexpr const char* kScheduled = "tarpit_scheduler_scheduled_total";
constexpr const char* kFired = "tarpit_scheduler_fired_total";
constexpr const char* kCancelled = "tarpit_scheduler_cancelled_total";
constexpr const char* kPromotions =
    "tarpit_scheduler_overflow_promotions_total";

/// `opts` with the scheduler's event counts landing in `registry`.
DelaySchedulerOptions CountedIn(obs::MetricRegistry* registry,
                                DelaySchedulerOptions opts = {}) {
  opts.metrics = registry;
  return opts;
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

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Submits one stall per entry of `delays_ns`, then from `cancel_from_ns`
/// (steady_clock) on cancels every other one from two threads while the
/// driver cascades and fires the rest underneath them. Every callback
/// must fire exactly once, and no stall that fired uncancelled may have
/// been short.
void RaceCancellation(DelayScheduler* sched,
                      const obs::MetricRegistry& registry,
                      const std::vector<int64_t>& delays_ns,
                      int64_t cancel_from_ns) {
  const int n = static_cast<int>(delays_ns.size());
  struct Stall {
    std::atomic<int> calls{0};
    std::atomic<bool> cancelled{false};
    std::atomic<int64_t> elapsed_ns{0};
    int64_t submit_ns = 0;
  };
  std::vector<Stall> stalls(n);
  std::vector<TimerId> ids(n);
  for (int i = 0; i < n; ++i) {
    stalls[i].submit_ns = NowNanos();
    ids[i] = sched->Submit(delays_ns[i] / 1e9, [&, i](bool cancelled) {
      stalls[i].elapsed_ns = NowNanos() - stalls[i].submit_ns;
      stalls[i].cancelled = cancelled;
      ++stalls[i].calls;
    });
  }
  std::atomic<size_t> cancel_hits{0};
  std::thread cancellers[2];
  for (int t = 0; t < 2; ++t) {
    cancellers[t] = std::thread([&, t] {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(cancel_from_ns)));
      for (int i = t; i < n; i += 4) {  // Each thread: every 4th entry.
        if (sched->Cancel(ids[i])) ++cancel_hits;
      }
    });
  }
  for (auto& th : cancellers) th.join();
  sched->Drain();

  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(stalls[i].calls.load(), 1) << "entry " << i;
    if (!stalls[i].cancelled) {
      EXPECT_GE(stalls[i].elapsed_ns.load(), delays_ns[i]) << "entry " << i;
    }
  }
  EXPECT_EQ(SeriesValue(registry, kFired) + SeriesValue(registry, kCancelled),
            n);
  EXPECT_EQ(SeriesValue(registry, kCancelled),
            static_cast<int64_t>(cancel_hits.load()));
}

TEST(DelaySchedulerTest, ZeroDelayFiresImmediatelyInOrder) {
  RealClock clock;
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry));

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
  EXPECT_EQ(SeriesValue(registry, kFired), 16);
  EXPECT_EQ(SeriesValue(registry, kCancelled), 0);
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

// The defense invariant, at nanosecond resolution and with no
// tolerance, for delays that end mid-tick and mid-microsecond.
TEST(DelaySchedulerTest, StallIsNeverServedShort) {
  RealClock clock;
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  DelayScheduler sched(&clock, opts);

  const int64_t delays_ns[] = {1'000, 999'000, 1'000'500, 20'000'500,
                               20'999'900};
  constexpr int kN = sizeof(delays_ns) / sizeof(delays_ns[0]);
  std::atomic<int64_t> elapsed_ns[kN];
  for (int i = 0; i < kN; ++i) {
    elapsed_ns[i] = 0;
    const int64_t submit_ns = NowNanos();
    sched.Submit(delays_ns[i] / 1e9, [&, i, submit_ns](bool cancelled) {
      EXPECT_FALSE(cancelled);
      elapsed_ns[i] = NowNanos() - submit_ns;
    });
  }
  sched.Drain();
  for (int i = 0; i < kN; ++i) {
    EXPECT_GE(elapsed_ns[i].load(), delays_ns[i]) << "delay " << delays_ns[i];
  }
}

// A stall fires at its own deadline, not at the tick boundary after it.
// Each 20.5 ms stall is submitted at a tick boundary, so its deadline
// lies half a tick before the next boundary: a scheduler that rounds
// deadlines up to the tick serves every one of them ~500 us late.
//
// A host that deschedules the process for milliseconds makes every
// stall due meanwhile late, and can push a round's median over the bar
// (about one run in 200 on a shared 4-vCPU VM). Such noise only ever
// adds lateness, so the test takes the best of up to three rounds: a
// scheduler that rounds up to the tick fails every round.
TEST(DelaySchedulerTest, StallFiresAtItsDeadlineNotTheNextTick) {
  RealClock clock;
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  DelayScheduler sched(&clock, opts);

  constexpr int kStalls = 21;
  constexpr int64_t kDelayNs = 20'500'000;
  constexpr int64_t kMaxMedianNs = 400'000;
  std::string rounds;
  int64_t best_median = std::numeric_limits<int64_t>::max();
  for (int round = 0; round < 3 && best_median >= kMaxMedianNs; ++round) {
    std::vector<std::atomic<int64_t>> late_ns(kStalls);
    for (int i = 0; i < kStalls; ++i) {
      const int64_t boundary_us =
          (clock.NowMicros() / opts.tick_micros + 1) * opts.tick_micros;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::microseconds(boundary_us)));
      const int64_t submit_ns = NowNanos();
      sched.Submit(kDelayNs / 1e9, [&, i, submit_ns](bool cancelled) {
        EXPECT_FALSE(cancelled);
        late_ns[i] = NowNanos() - submit_ns - kDelayNs;
      });
    }
    sched.Drain();
    std::vector<int64_t> late;
    for (const auto& l : late_ns) {
      EXPECT_GE(l.load(), 0);  // Never short.
      late.push_back(l.load());
    }
    rounds += "\n  " + ::testing::PrintToString(late);
    std::nth_element(late.begin(), late.begin() + kStalls / 2, late.end());
    best_median = std::min(best_median, late[kStalls / 2]);
  }
  EXPECT_LT(best_median, kMaxMedianNs)
      << "best median lateness (ns); each round's, in submit order:"
      << rounds;
}

// Submit wakes the driver only for a deadline earlier than the one it
// sleeps toward: 100 later stalls leave it asleep until the first
// expiry.
TEST(DelaySchedulerTest, LaterDeadlineDoesNotWakeTheDriver) {
  RealClock clock;
  obs::MetricRegistry registry;
  DelaySchedulerOptions opts;
  opts.metrics = &registry;
  DelayScheduler sched(&clock, opts);
  obs::Counter* wakes =
      registry.GetCounter("tarpit_scheduler_driver_wakes_total");

  std::promise<int64_t> wakes_at_expiry;
  sched.Submit(0.200, [&](bool cancelled) {
    EXPECT_FALSE(cancelled);
    wakes_at_expiry.set_value(wakes->Value());
  });
  // Let the driver take the 200 ms deadline and go back to sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int64_t before = wakes->Value();
  for (int i = 0; i < 100; ++i) {
    sched.Submit(0.300 + 0.001 * i, [](bool) {});
    // Spaced out, so a driver woken by every submit would count each.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_LE(wakes_at_expiry.get_future().get() - before, 2);
  sched.Shutdown(DelayScheduler::ShutdownMode::kCancelPending);
  EXPECT_EQ(SeriesValue(registry, kFired), 1);
  EXPECT_EQ(SeriesValue(registry, kCancelled), 100);
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
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry, opts));
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
  EXPECT_GE(SeriesValue(registry, kPromotions), 1);
  EXPECT_EQ(SeriesValue(registry, kFired), 1);
}

TEST(DelaySchedulerTest, CancelBeforeExpiryFiresCancelledExactlyOnce) {
  RealClock clock;
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry));
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
  EXPECT_EQ(SeriesValue(registry, kCancelled), 1);
  EXPECT_EQ(SeriesValue(registry, kFired), 0);
}

TEST(DelaySchedulerTest, CancellationRacesCascadeExactlyOnce) {
  RealClock clock;
  // Geometry chosen so entries live on levels 0-2 and in the overflow
  // heap, and the driver cascades constantly while cancels race it.
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  opts.wheel_bits = 2;
  opts.levels = 3;  // 64 ms horizon.
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry, opts));

  const int n = StressIters(400);
  std::vector<int64_t> delays_ns(n);
  for (int i = 0; i < n; ++i) {
    // Delays 1..100 ms: every wheel level plus the overflow heap.
    delays_ns[i] = 1'000'000 * (1 + i % 100);
  }
  RaceCancellation(&sched, registry, delays_ns, /*cancel_from_ns=*/0);
  EXPECT_GT(sched.cascades(), 0u);
}

// The same race against a crowd of distinct microsecond deadlines inside
// one tick: the driver orders the tick once when it enters it and pops
// due stalls from the head while cancels unlink others around them.
TEST(DelaySchedulerTest, CancellationRacesSameTickCrowdExactlyOnce) {
  RealClock clock;
  DelaySchedulerOptions opts;
  opts.tick_micros = 200'000;
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry, opts));

  const int n = std::max(StressIters(5000), 2);
  // The crowd's deadlines start 40 ms into the tick after next, one
  // microsecond apart; submission time only spreads them further. The
  // cancels start 2 ms into the crowd, at the driver's firing frontier.
  const int64_t now_us = clock.NowMicros();
  const int64_t first_us =
      (now_us / opts.tick_micros + 2) * opts.tick_micros + 40'000;
  std::vector<int64_t> delays_ns(n);
  for (int i = 0; i < n; ++i) delays_ns[i] = (first_us + i - now_us) * 1000;
  RaceCancellation(&sched, registry, delays_ns,
                   /*cancel_from_ns=*/(first_us + 2'000) * 1000);
  EXPECT_GT(SeriesValue(registry, kFired), 0);
}

TEST(DelaySchedulerTest, VirtualClockFiresInstantlyInSubmissionOrder) {
  VirtualClock clock;
  DelayScheduler sched(&clock);

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
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry));
  std::atomic<int> fired{0};
  for (int i = 0; i < 8; ++i) {
    sched.Submit(0.005 * (i + 1), [&](bool cancelled) {
      EXPECT_FALSE(cancelled);
      ++fired;
    });
  }
  sched.Shutdown(DelayScheduler::ShutdownMode::kDrain);
  EXPECT_EQ(fired.load(), 8);
  EXPECT_EQ(SeriesValue(registry, kCancelled), 0);
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

// A zero charge has nothing to wait for: the callback runs on the
// submitting thread before Submit returns, and is still counted as
// scheduled and fired.
TEST(DelaySchedulerTest, ZeroDelayCompletesOnCallerBeforeSubmitReturns) {
  RealClock clock;
  obs::MetricRegistry registry;
  DelaySchedulerOptions opts;
  opts.metrics = &registry;
  DelayScheduler sched(&clock, opts);

  bool fired = false;
  std::thread::id fired_on;
  const TimerId id = sched.Submit(0.0, [&](bool cancelled) {
    EXPECT_FALSE(cancelled);
    fired = true;
    fired_on = std::this_thread::get_id();
  });
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(fired);  // Plain bool: no other thread touched it.
  EXPECT_EQ(fired_on, std::this_thread::get_id());
  EXPECT_EQ(SeriesValue(registry, kScheduled), 1);
  EXPECT_EQ(SeriesValue(registry, kFired), 1);
  EXPECT_EQ(sched.parked(), 0u);
}

// The inline callback runs outside the scheduler lock, so it may
// submit (inline or parked) and cancel without deadlocking.
TEST(DelaySchedulerTest, InlineCallbackMayReenterSubmitAndCancelGroup) {
  RealClock clock;
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry));
  constexpr StallGroup kGroup = 5;

  bool nested_inline = false;
  std::atomic<bool> parked_cancelled{false};
  size_t cancelled_in_callback = 0;
  sched.Submit(0.0, [&](bool) {
    sched.Submit(
        3600.0, [&](bool cancelled) { parked_cancelled = cancelled; },
        kGroup);
    sched.Submit(-1.0, [&](bool) { nested_inline = true; });
    cancelled_in_callback = sched.CancelGroup(kGroup);
  });
  EXPECT_TRUE(nested_inline);
  EXPECT_EQ(cancelled_in_callback, 1u);
  sched.Drain();
  EXPECT_TRUE(parked_cancelled.load());
  EXPECT_EQ(SeriesValue(registry, kScheduled), 3);
  EXPECT_EQ(SeriesValue(registry, kFired), 2);
  EXPECT_EQ(SeriesValue(registry, kCancelled), 1);
}

// Drain() counts an inline callback running on another thread as
// executing: it does not return until that callback has.
TEST(DelaySchedulerTest, DrainWaitsForInlineCallbackOnAnotherThread) {
  RealClock clock;
  DelayScheduler sched(&clock);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread submitter([&] {
    sched.Submit(0.0, [&](bool) {
      entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    sched.Drain();
    drained = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());
  release.set_value();
  drainer.join();
  submitter.join();
  EXPECT_TRUE(drained.load());
}

// Any positive delay, however small, parks: it completes on the
// driver, never on the caller, and no sooner than 1 us later.
TEST(DelaySchedulerTest, TinyPositiveDelayParksOnTheDriver) {
  RealClock clock;
  DelaySchedulerOptions opts;
  opts.tick_micros = 1000;
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry, opts));

  std::promise<std::pair<std::thread::id, int64_t>> fired;
  const int64_t start = clock.NowMicros();
  sched.Submit(1e-9, [&](bool cancelled) {
    EXPECT_FALSE(cancelled);
    fired.set_value({std::this_thread::get_id(), clock.NowMicros()});
  });
  const auto [fired_on, fired_at] = fired.get_future().get();
  EXPECT_NE(fired_on, std::this_thread::get_id());
  EXPECT_GE(fired_at - start, 1);  // 1e-9 s rounds up to 1 us.
  sched.Drain();
  EXPECT_EQ(SeriesValue(registry, kFired), 1);
}

// One thread completes every parked stall: an expiry, a Cancel, a
// CancelGroup and a Shutdown(kCancelPending) all run their callbacks on
// the driver, never on the thread that cancelled.
TEST(DelaySchedulerTest, EveryParkedCallbackRunsOnTheDriver) {
  RealClock clock;
  DelayScheduler sched(&clock);
  constexpr StallGroup kGroup = 3;

  std::promise<std::thread::id> expired, cancelled, group_cancelled,
      shut_down;
  auto record = [](std::promise<std::thread::id>* p, bool want_cancelled) {
    return [p, want_cancelled](bool c) {
      EXPECT_EQ(c, want_cancelled);
      p->set_value(std::this_thread::get_id());
    };
  };
  sched.Submit(0.001, record(&expired, false));
  const TimerId one = sched.Submit(3600.0, record(&cancelled, true));
  sched.Submit(3600.0, record(&group_cancelled, true), kGroup);
  sched.Submit(3600.0, record(&shut_down, true));

  const std::thread::id expired_on = expired.get_future().get();
  EXPECT_TRUE(sched.Cancel(one));
  EXPECT_EQ(sched.CancelGroup(kGroup), 1u);
  sched.Shutdown(DelayScheduler::ShutdownMode::kCancelPending);

  const std::thread::id self = std::this_thread::get_id();
  EXPECT_NE(expired_on, self);
  EXPECT_EQ(cancelled.get_future().get(), expired_on);
  EXPECT_EQ(group_cancelled.get_future().get(), expired_on);
  EXPECT_EQ(shut_down.get_future().get(), expired_on);
}

// A delay too long for the clock saturates its deadline instead of
// wrapping to one in the past: the stall stays parked (never served
// short) until a cancel completes it.
TEST(DelaySchedulerTest, HugeOrInfiniteDelayParksUntilCancelled) {
  RealClock clock;
  obs::MetricRegistry registry;
  DelayScheduler sched(&clock, CountedIn(&registry));

  const double delays[] = {std::numeric_limits<double>::infinity(), 1e13,
                           9.3e12, 1e12};
  constexpr int kN = sizeof(delays) / sizeof(delays[0]);
  std::atomic<int> calls[kN];
  std::atomic<bool> was_cancelled[kN];
  TimerId ids[kN];
  for (int i = 0; i < kN; ++i) {
    calls[i] = 0;
    was_cancelled[i] = false;
    ids[i] = sched.Submit(delays[i], [&, i](bool cancelled) {
      was_cancelled[i] = cancelled;
      ++calls[i];
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sched.parked(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    SCOPED_TRACE(delays[i]);
    EXPECT_EQ(calls[i].load(), 0);
    EXPECT_TRUE(sched.Cancel(ids[i]));
  }
  sched.Drain();
  for (int i = 0; i < kN; ++i) {
    SCOPED_TRACE(delays[i]);
    EXPECT_EQ(calls[i].load(), 1);
    EXPECT_TRUE(was_cancelled[i].load());
  }
  EXPECT_EQ(SeriesValue(registry, kFired), 0);
  EXPECT_EQ(SeriesValue(registry, kCancelled), kN);
}

}  // namespace
}  // namespace tarpit
