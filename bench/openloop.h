#ifndef TARPIT_BENCH_OPENLOOP_H_
#define TARPIT_BENCH_OPENLOOP_H_

// Shared open-loop load harness for the CI benches: requests fire on a
// FIXED arrival schedule (deterministic per-thread exponential
// interarrivals) and each latency is measured from the INTENDED send
// time, not the actual one, so a stalled server keeps accumulating
// blame instead of silently pausing the load -- the standard fix for
// coordinated omission. Every CI-gated bench reports its tail through
// this harness so the openloop_* fields in the BENCH_*.json artifacts
// mean the same thing everywhere.
//
// The harness measures its own floor and reports it next to every
// openloop_* field. Workers set a 1 ns timer slack, sleep until
// kSpinMicros before each intended send time, then spin, so a request
// leaves within a microsecond or two of its due time instead of the
// ~56 us that a plain sleep under the default 50 us slack costs. Before
// the measured schedule each worker runs kFloorOps empty ops through
// the same wait at the load's pacing; their intended-time latencies
// are the floor, and a bench fails itself when the floor's p50 exceeds
// kMaxFloorP50Us.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace tarpit {
namespace bench {

struct OpenLoopStats {
  double p50_us = 0, p99_us = 0, p999_us = 0;
  double achieved_qps = 0;
  size_t ops = 0;
  /// The harness floor: empty ops through the same wait path.
  double floor_p50_us = 0, floor_p99_us = 0;
};

/// Each wait sleeps until this long before the due time, then spins.
constexpr int64_t kSpinMicros = 50;
/// Empty ops per worker in the floor calibration.
constexpr int kFloorOps = 1000;
/// A harness whose empty op costs more than this cannot time the
/// system under test.
constexpr double kMaxFloorP50Us = 5.0;

struct OpenLoopOptions {
  int threads = 4;
  int ops_per_thread = 1000;
  /// Mean of the exponential interarrival distribution, per thread.
  double mean_interarrival_us = 150.0;
  /// Schedule seed (the schedule is fixed before the run starts).
  uint64_t seed = 0xAB5E9;
  /// Start offset so every worker lines up on the same epoch.
  int64_t lineup_micros = 10'000;
};

/// Percentile over an already-sorted latency vector (in its unit).
inline double PercentileUs(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1)));
  return static_cast<double>(sorted[idx]);
}

inline int64_t OpenLoopNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t OpenLoopNowMicros() { return OpenLoopNowNanos() / 1000; }

/// Per thread: wake from sleeps within ~1 ns of the requested time
/// instead of the default 50 us slack.
inline void UseFineTimerSlack() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

/// Waits until `due_ns` (OpenLoopNowNanos time base): sleeps until
/// kSpinMicros before it, then spins.
inline void WaitUntilNanos(int64_t due_ns) {
  const int64_t wake_ns = due_ns - kSpinMicros * 1000;
  int64_t now = OpenLoopNowNanos();
  while (now < wake_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake_ns - now));
    now = OpenLoopNowNanos();
  }
  while (now < due_ns) now = OpenLoopNowNanos();
}

/// Measures the harness floor: `threads` workers at once (the load's
/// own concurrency) each run kFloorOps empty ops, spaced by the load's
/// mean interarrival and staggered across it as independent schedules
/// are, each timed from its due time. Stores the percentiles in
/// `stats`.
inline void MeasureHarnessFloor(int threads, double period_us,
                                OpenLoopStats* stats) {
  const int64_t period_ns = static_cast<int64_t>(period_us * 1000.0);
  std::vector<std::vector<int64_t>> per(threads);
  const int64_t start = OpenLoopNowNanos() + 1'000'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      UseFineTimerSlack();
      per[t].reserve(kFloorOps);
      const int64_t first = start + t * period_ns / threads;
      for (int i = 0; i < kFloorOps; ++i) {
        const int64_t due = first + i * period_ns;
        WaitUntilNanos(due);
        per[t].push_back(OpenLoopNowNanos() - due);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<int64_t> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  stats->floor_p50_us = PercentileUs(all, 0.50) / 1000.0;
  stats->floor_p99_us = PercentileUs(all, 0.99) / 1000.0;
}

/// Measures the harness floor, then runs `op(thread, index)` (one
/// synchronous request) on the fixed schedule and returns
/// intended-time percentiles.
inline OpenLoopStats RunOpenLoop(const OpenLoopOptions& options,
                                 const std::function<void(int, int)>& op) {
  // Deterministic schedule, generated before any request fires.
  std::vector<std::vector<int64_t>> schedule(options.threads);
  for (int t = 0; t < options.threads; ++t) {
    Rng rng(options.seed + 97u * static_cast<uint64_t>(t));
    double at = 0;
    schedule[t].reserve(options.ops_per_thread);
    for (int i = 0; i < options.ops_per_thread; ++i) {
      at += rng.Exponential(1.0 / options.mean_interarrival_us);
      schedule[t].push_back(static_cast<int64_t>(at));
    }
  }
  OpenLoopStats out;
  MeasureHarnessFloor(options.threads, options.mean_interarrival_us, &out);
  std::vector<std::vector<int64_t>> lat(options.threads);
  const int64_t start = OpenLoopNowMicros() + options.lineup_micros;
  std::vector<std::thread> workers;
  for (int t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      UseFineTimerSlack();
      lat[t].reserve(options.ops_per_thread);
      for (int i = 0; i < options.ops_per_thread; ++i) {
        const int64_t intended = start + schedule[t][i];
        WaitUntilNanos(intended * 1000);
        op(t, i);
        // Latency from the INTENDED send time, not the actual one.
        lat[t].push_back(OpenLoopNowMicros() - intended);
      }
    });
  }
  for (auto& w : workers) w.join();
  const int64_t wall = OpenLoopNowMicros() - start;

  std::vector<int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.ops = all.size();
  out.p50_us = PercentileUs(all, 0.50);
  out.p99_us = PercentileUs(all, 0.99);
  out.p999_us = PercentileUs(all, 0.999);
  out.achieved_qps = wall <= 0 ? 0.0
                               : static_cast<double>(all.size()) /
                                     (static_cast<double>(wall) / 1e6);
  return out;
}

/// The shared JSON spelling of the open-loop fields and the harness
/// floor they were measured over (comma-terminated; splice into a
/// BENCH_*.json object body).
inline std::string OpenLoopJsonFields(const OpenLoopStats& s) {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "  \"openloop_p50_us\": %.1f,\n"
                "  \"openloop_p99_us\": %.1f,\n"
                "  \"openloop_p999_us\": %.1f,\n"
                "  \"openloop_achieved_qps\": %.1f,\n"
                "  \"harness_floor_p50_us\": %.2f,\n"
                "  \"harness_floor_p99_us\": %.2f,\n",
                s.p50_us, s.p99_us, s.p999_us, s.achieved_qps,
                s.floor_p50_us, s.floor_p99_us);
  return buf;
}

/// Prints the floor verdict (an "open-loop" line, like every line
/// measured on the real clock) and returns whether the harness is fine
/// enough to time the system: floor p50 <= kMaxFloorP50Us.
inline bool HarnessFloorOk(const OpenLoopStats& s) {
  const bool ok = s.floor_p50_us <= kMaxFloorP50Us;
  std::printf("open-loop harness floor: p50 %.2fus p99 %.2fus "
              "(target p50 <= %.1fus) %s\n",
              s.floor_p50_us, s.floor_p99_us, kMaxFloorP50Us,
              ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace bench
}  // namespace tarpit

#endif  // TARPIT_BENCH_OPENLOOP_H_
