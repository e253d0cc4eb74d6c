// Stall capacity: how many concurrently-stalled sessions a fixed
// thread budget can carry, blocking vs async stall scheduling.
//
// The paper's defense works by making every query wait; under the seed
// implementation each waiting query *holds an OS thread* for its whole
// stall, so the server's concurrent-stall capacity equals its thread
// count. The DelayScheduler (hierarchical timer wheel + one driver
// thread) turns a stalled request into a parked wheel entry instead, so
// a single scheduler thread carries tens of thousands of
// simultaneous stalls -- the section 2.4 parallel-attack regime where
// many registered identities extract (and stall) at once.
//
// Two runs against identical kGlobalLock databases (so the only
// variable is stall scheduling, not the sharded compute path):
//   * blocking: kThreads workers call GetByKey and sleep through their
//     own stalls. Peak concurrent stalls is structurally <= kThreads.
//   * async: ONE submitter calls GetByKeyAsync; stalls park on the
//     wheel and complete on the scheduler's driver thread. Peak
//     concurrent stalls is the scheduler's parked() high-water mark.
//
// Acceptance targets (ISSUE 2):
//   * async peak concurrent stalls >= 50x the blocking path's
//     kThreads workers (the async path uses fewer threads: a
//     submitter and the driver);
//   * async total accounted delay matches a serial CountTracker oracle
//     replaying the identical submission order within 0.01% (the wheel
//     changes WHERE a stall waits, never HOW MUCH is charged).
//
// Defense invariant: in the open-loop async run, no stall may complete
// sooner after its submit than its charge ("served short: 0").
//
// Telemetry acceptance (ISSUE 4): the async run publishes into a
// MetricRegistry; the tarpit_scheduler_parked gauge must be > 0 in a
// mid-run snapshot, and the tarpit_delay_charged_ns{policy} histogram
// median must match the oracle's exact median within 0.1%. The full
// registry snapshot is embedded in the JSON output.
//
// Env: TARPIT_BENCH_TINY=1 shrinks the workload for CI smoke runs;
// TARPIT_BENCH_JSON=<path> additionally emits machine-readable JSON.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/popularity_delay.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "openloop.h"
#include "stats/count_tracker.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

constexpr int kRows = 1024;
constexpr int kThreads = 8;  // Blocking workers.
constexpr double kZipfAlpha = 1.1;

// Delay shape: scale/count clamped to [20ms, 80ms] -- every request
// stalls a humanly-short but schedulable time, so the blocking run
// finishes quickly while the async run still parks thousands at once.
ProtectedDatabaseOptions MakeDbOptions() {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 0.05;
  opts.popularity.bounds = {0.02, 0.08};
  opts.decay_per_request = 1.0;
  return opts;
}

ConcurrentDatabaseOptions MakeConcurrentOptions(bool async_stalls) {
  ConcurrentDatabaseOptions copts;
  copts.mode = ConcurrencyMode::kGlobalLock;  // Exact serial accounting.
  copts.serve_delays = true;                  // Stalls are real here.
  copts.async_stalls = async_stalls;
  return copts;
}

std::vector<int64_t> MakeSequence(int ops, uint64_t seed) {
  Rng rng(seed);
  ZipfKeyGenerator gen(kRows, kZipfAlpha);
  std::vector<int64_t> seq;
  seq.reserve(ops);
  for (int i = 0; i < ops; ++i) seq.push_back(gen.Next(&rng));
  return seq;
}

std::unique_ptr<ConcurrentProtectedDatabase> OpenDb(
    const fs::path& dir, Clock* clock, bool async_stalls,
    obs::MetricRegistry* metrics) {
  fs::create_directories(dir);
  ConcurrentDatabaseOptions copts = MakeConcurrentOptions(async_stalls);
  copts.metrics = metrics;
  auto opened = ConcurrentProtectedDatabase::Open(
      dir.string(), "items", clock, MakeDbOptions(), copts);
  if (!opened.ok()) std::abort();
  auto db = std::move(*opened);
  if (!db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
           .ok()) {
    std::abort();
  }
  for (int i = 1; i <= kRows; ++i) {
    if (!db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::abort();
    }
  }
  if (!db->Checkpoint().ok()) std::abort();
  return db;
}

struct PathResult {
  double elapsed_seconds = 0;
  double qps = 0;           // Completions per wall second, under stall.
  double total_delay = 0;   // Seconds charged across the measured ops.
  size_t peak_stalled = 0;  // Max requests stalling simultaneously.
  // Registry's view of the wheel mid-run (async only): the
  // tarpit_scheduler_parked gauge read while stalls were in flight.
  int64_t parked_gauge_midrun = 0;
};

/// Blocking path: kThreads workers, each thread sleeps through its own
/// stalls, so at most kThreads requests stall at any instant.
PathResult RunBlocking(const fs::path& dir,
                       const std::vector<int64_t>& seq) {
  RealClock clock;
  auto db = OpenDb(dir, &clock, /*async_stalls=*/false, nullptr);

  std::atomic<size_t> in_call{0};
  std::atomic<size_t> peak{0};
  std::vector<double> delays(kThreads, 0.0);
  const int64_t start = clock.NowMicros();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      double sum = 0.0;
      // Static round-robin split of the shared sequence.
      for (size_t i = t; i < seq.size(); i += kThreads) {
        size_t now = in_call.fetch_add(1, std::memory_order_relaxed) + 1;
        size_t p = peak.load(std::memory_order_relaxed);
        while (now > p &&
               !peak.compare_exchange_weak(p, now,
                                           std::memory_order_relaxed)) {
        }
        auto r = db->GetByKey(seq[i]);
        in_call.fetch_sub(1, std::memory_order_relaxed);
        if (!r.ok()) std::abort();
        sum += r->delay_seconds;
      }
      delays[t] = sum;
    });
  }
  for (auto& w : workers) w.join();
  PathResult res;
  res.elapsed_seconds = (clock.NowMicros() - start) / 1e6;
  res.qps = static_cast<double>(seq.size()) / res.elapsed_seconds;
  for (double d : delays) res.total_delay += d;
  res.peak_stalled = peak.load();
  db.reset();
  fs::remove_all(dir);
  return res;
}

/// Async path: one submitter; stalls park on the wheel; the driver
/// runs completions. Capacity = the wheel's high-water mark.
PathResult RunAsync(const fs::path& dir, const std::vector<int64_t>& seq,
                    obs::MetricRegistry* metrics) {
  RealClock clock;
  auto db = OpenDb(dir, &clock, /*async_stalls=*/true, metrics);

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  double total_delay = 0.0;
  const int64_t start = clock.NowMicros();
  for (int64_t key : seq) {
    db->GetByKeyAsync(key, [&](Result<ProtectedResult> r) {
      if (!r.ok()) std::abort();
      std::lock_guard<std::mutex> lock(mu);
      total_delay += r->delay_seconds;
      if (++completed == seq.size()) cv.notify_all();
    });
  }
  // Mid-run registry read: every op is submitted, most are still
  // parked (each stalls 20-80ms; submission outruns expiry). The
  // parked gauge must see the stalled population.
  int64_t parked_gauge = 0;
  if (const obs::MetricSnapshot* parked =
          metrics->Snapshot().Find("tarpit_scheduler_parked")) {
    parked_gauge = parked->value;
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == seq.size(); });
  }
  PathResult res;
  res.elapsed_seconds = (clock.NowMicros() - start) / 1e6;
  res.qps = static_cast<double>(seq.size()) / res.elapsed_seconds;
  res.total_delay = total_delay;
  res.peak_stalled = db->delay_scheduler()->peak_parked();
  res.parked_gauge_midrun = parked_gauge;
  db.reset();
  fs::remove_all(dir);
  return res;
}

struct OpenLoopStallResult {
  bench::OpenLoopStats stats;
  /// Callbacks that completed sooner after their submit than their
  /// charge: the defense invariant says 0.
  size_t served_short = 0;
  /// Completion minus submit minus charge, per request.
  double late_p50_us = 0, late_p99_us = 0;
};

/// Open-loop (coordinated-omission-free) stall fidelity: one submitter
/// fires GetByKeyAsync on a fixed exponential schedule and each
/// request's latency is completion time minus the INTENDED send time.
/// With stalls served for real, p50 ~ the charged stall; the tail
/// exposes driver wake-up and completion queueing, and any submit-side
/// stall the closed-loop runs above would silently absorb. Each submit
/// is also stamped in nanoseconds, so every stall's lateness past its
/// charge is measured and a stall served short is counted.
OpenLoopStallResult RunOpenLoopAsync(const fs::path& dir, int ops,
                                     double mean_interarrival_us) {
  OpenLoopStallResult out;
  bench::OpenLoopStats& stats = out.stats;
  bench::MeasureHarnessFloor(/*threads=*/1, mean_interarrival_us, &stats);
  RealClock clock;
  auto db = OpenDb(dir, &clock, /*async_stalls=*/true, nullptr);
  const auto seq = MakeSequence(ops, 0x01CE0Fu);

  Rng rng(0xAB5E9u);
  std::vector<int64_t> intended(seq.size());
  {
    int64_t at = bench::OpenLoopNowMicros() + 10'000;
    for (size_t i = 0; i < seq.size(); ++i) {
      at += static_cast<int64_t>(
          rng.Exponential(1.0 / mean_interarrival_us));
      intended[i] = at;
    }
  }

  std::vector<int64_t> lat(seq.size(), 0);
  std::vector<int64_t> submit_ns(seq.size(), 0);
  std::vector<int64_t> late_ns(seq.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  bench::UseFineTimerSlack();
  const int64_t t0 = bench::OpenLoopNowMicros();
  for (size_t i = 0; i < seq.size(); ++i) {
    bench::WaitUntilNanos(intended[i] * 1000);
    submit_ns[i] = bench::OpenLoopNowNanos();
    db->GetByKeyAsync(seq[i], [&, i](Result<ProtectedResult> r) {
      if (!r.ok()) std::abort();
      const int64_t done_ns = bench::OpenLoopNowNanos();
      const int64_t elapsed_ns = done_ns - submit_ns[i];
      const double charge_ns = r->delay_seconds * 1e9;
      std::lock_guard<std::mutex> lock(mu);
      lat[i] = done_ns / 1000 - intended[i];
      late_ns[i] = elapsed_ns - static_cast<int64_t>(std::ceil(charge_ns));
      if (static_cast<double>(elapsed_ns) < charge_ns) ++out.served_short;
      if (++completed == seq.size()) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == seq.size(); });
  }
  const int64_t t1 = bench::OpenLoopNowMicros();
  db.reset();
  fs::remove_all(dir);

  std::sort(lat.begin(), lat.end());
  stats.ops = lat.size();
  stats.p50_us = bench::PercentileUs(lat, 0.50);
  stats.p99_us = bench::PercentileUs(lat, 0.99);
  stats.p999_us = bench::PercentileUs(lat, 0.999);
  stats.achieved_qps =
      t1 > t0 ? static_cast<double>(lat.size()) / ((t1 - t0) / 1e6) : 0;
  std::sort(late_ns.begin(), late_ns.end());
  out.late_p50_us = bench::PercentileUs(late_ns, 0.50) / 1000.0;
  out.late_p99_us = bench::PercentileUs(late_ns, 0.99) / 1000.0;
  return out;
}

/// Serial oracle: one CountTracker replaying the async submission order
/// (single submitter => the global order is exactly `seq`), charging
/// through the same snapshot math as the database. Returns every
/// per-request delay so callers can check totals AND quantiles.
std::vector<double> SerialOracleDelays(const std::vector<int64_t>& seq) {
  const ProtectedDatabaseOptions opts = MakeDbOptions();
  CountTracker tracker(kRows, opts.decay_per_request);
  std::vector<double> delays;
  delays.reserve(seq.size());
  for (int64_t key : seq) {
    tracker.Record(key);
    delays.push_back(PopularityDelayPolicy::DelayFromStats(
        tracker.Stats(key), opts.popularity));
  }
  return delays;
}

/// Exact median by the same rank convention as
/// HistogramSnapshot::Quantile (the ceil(n/2)-th order statistic).
double ExactMedian(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t k = (values.size() + 1) / 2 - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

}  // namespace

int main() {
  const bool tiny = TinyConfig();
  const int blocking_ops = tiny ? 80 : 800;
  const int async_ops = tiny ? 2000 : 20000;

  const fs::path base =
      fs::temp_directory_path() / "tarpit_bench_stall_capacity";
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# Stall capacity: blocking threads vs timer-wheel parking\n");
  std::printf("# rows=%d blocking_threads=%d delay in [20,80]ms "
              "blocking_ops=%d async_ops=%d%s\n\n",
              kRows, kThreads, blocking_ops, async_ops,
              tiny ? " (tiny)" : "");

  // Distinct seeds: the two paths run independent workloads (each
  // path's accounting is compared to its own oracle replay).
  const auto blocking_seq = MakeSequence(blocking_ops, 0xB10Cu);
  const auto async_seq = MakeSequence(async_ops, 0xA51Cu);

  const PathResult blocking = RunBlocking(base / "blocking", blocking_seq);
  // The async run publishes into a registry; the post-run snapshot is
  // exact (its writers quiesced when the db was torn down).
  obs::MetricRegistry async_registry;
  const PathResult async_r =
      RunAsync(base / "async", async_seq, &async_registry);
  const obs::RegistrySnapshot registry_snap = async_registry.Snapshot();

  std::printf("%-9s %-10s %-12s %-14s %-14s\n", "path", "ops",
              "elapsed(s)", "qps-under-stall", "peak-stalled");
  std::printf("%-9s %-10zu %-12.3f %-14.0f %-14zu\n", "blocking",
              blocking_seq.size(), blocking.elapsed_seconds, blocking.qps,
              blocking.peak_stalled);
  std::printf("%-9s %-10zu %-12.3f %-14.0f %-14zu\n", "async",
              async_seq.size(), async_r.elapsed_seconds, async_r.qps,
              async_r.peak_stalled);

  // Capacity ratio: peak concurrent stalls, async vs kThreads blocking
  // workers.
  // The blocking path's peak can never exceed kThreads; use kThreads as
  // its capacity even if the measured peak briefly sampled lower.
  const size_t blocking_capacity =
      std::max(blocking.peak_stalled, static_cast<size_t>(1));
  const double ratio = static_cast<double>(async_r.peak_stalled) /
                       static_cast<double>(blocking_capacity);

  const std::vector<double> oracle_delays = SerialOracleDelays(async_seq);
  double oracle = 0.0;
  for (double d : oracle_delays) oracle += d;
  const double drift =
      oracle <= 0 ? 0.0
                  : std::fabs(async_r.total_delay - oracle) / oracle;

  // Registry acceptance (ISSUE 4): the per-policy delay-charged
  // histogram must reproduce the serial oracle's MEDIAN within 0.1%
  // (the nanosecond-domain sub_bits=11 geometry bounds bucket width at
  // 0.049%, so a correct pipeline has margin), and the parked gauge
  // must have seen the mid-run stalled population.
  const double oracle_median_ns = ExactMedian(oracle_delays) * 1e9;
  double hist_median_ns = 0.0;
  int64_t hist_count = 0;
  if (const obs::MetricSnapshot* m = registry_snap.Find(
          "tarpit_delay_charged_ns",
          {{"policy", "access-popularity"}})) {
    hist_median_ns = m->histogram.Median();
    hist_count = m->histogram.count;
  }
  const double median_drift =
      oracle_median_ns <= 0
          ? 1.0
          : std::fabs(hist_median_ns - oracle_median_ns) / oracle_median_ns;

  // Tiny CI configs shrink the parked population along with the ops
  // count; hold them to a reduced but still order-of-magnitude bar.
  const double ratio_target = tiny ? 10.0 : 50.0;
  const bool ratio_pass = ratio >= ratio_target;
  const bool drift_pass = drift <= 1e-4;
  // >= not ==: setup statements (CREATE TABLE) also record a
  // (zero-delay) charge into the policy histogram.
  const bool median_pass =
      hist_count >= static_cast<int64_t>(async_seq.size()) &&
      median_drift <= 1e-3;
  const bool gauge_pass = async_r.parked_gauge_midrun > 0;

  std::printf("\n# Acceptance\n");
  std::printf("stall capacity: async peak %zu vs blocking peak %zu -> "
              "%.1fx (target >= %.0fx) %s\n",
              async_r.peak_stalled, blocking_capacity, ratio,
              ratio_target, ratio_pass ? "PASS" : "FAIL");
  std::printf("accounting: async charged %.6fs vs serial oracle %.6fs "
              "-> drift %.5f%% (target <= 0.01%%) %s\n",
              async_r.total_delay, oracle, 100.0 * drift,
              drift_pass ? "PASS" : "FAIL");
  std::printf("histogram: tarpit_delay_charged_ns{policy=access-"
              "popularity} median %.0fns (n=%lld) vs oracle median "
              "%.0fns -> drift %.4f%% (target <= 0.1%%) %s\n",
              hist_median_ns, static_cast<long long>(hist_count),
              oracle_median_ns, 100.0 * median_drift,
              median_pass ? "PASS" : "FAIL");
  std::printf("gauge: tarpit_scheduler_parked mid-run %lld (> 0) %s\n",
              static_cast<long long>(async_r.parked_gauge_midrun),
              gauge_pass ? "PASS" : "FAIL");

  // Open-loop stall fidelity (CO-free, informational): latency from
  // the intended exponential send time through real served stalls.
  const OpenLoopStallResult olr = RunOpenLoopAsync(
      base / "openloop", tiny ? 400 : 2000, tiny ? 1000.0 : 500.0);
  const bench::OpenLoopStats& ol = olr.stats;
  std::printf("open-loop async stalls: p50 %.0fus p99 %.0fus p999 "
              "%.0fus, achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);
  const bool floor_pass = bench::HarnessFloorOk(ol);
  // The defense invariant, in the production async path: no stall
  // completes sooner after its submit than its charge.
  const bool short_pass = olr.served_short == 0;
  std::printf("served short: %zu (target 0) %s; lateness past the "
              "charge p50 %.1fus p99 %.1fus\n",
              olr.served_short, short_pass ? "PASS" : "FAIL",
              olr.late_p50_us, olr.late_p99_us);

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"stall_capacity\",\n"
            "  \"tiny\": %s,\n"
            "  \"threads\": %d,\n"
            "  \"blocking\": {\"ops\": %zu, \"elapsed_s\": %.6f, "
            "\"qps\": %.1f, \"peak_stalled\": %zu},\n"
            "  \"async\": {\"ops\": %zu, \"elapsed_s\": %.6f, "
            "\"qps\": %.1f, \"peak_stalled\": %zu},\n"
            "  \"capacity_ratio\": %.2f,\n"
            "  \"capacity_target\": %.1f,\n"
            "  \"capacity_pass\": %s,\n"
            "  \"oracle_delay_s\": %.9f,\n"
            "  \"measured_delay_s\": %.9f,\n"
            "  \"drift\": %.9f,\n"
            "  \"drift_pass\": %s,\n"
            "  \"oracle_median_ns\": %.1f,\n"
            "  \"histogram_median_ns\": %.1f,\n"
            "  \"median_drift\": %.9f,\n"
            "  \"median_pass\": %s,\n"
            "  \"parked_gauge_midrun\": %lld,\n"
            "  \"gauge_pass\": %s,\n"
            "  \"served_short\": %zu,\n"
            "  \"served_short_pass\": %s,\n"
            "  \"stall_late_p50_us\": %.1f,\n"
            "  \"stall_late_p99_us\": %.1f,\n"
            "%s"
            "  \"registry\": %s\n"
            "}\n",
            tiny ? "true" : "false", kThreads, blocking_seq.size(),
            blocking.elapsed_seconds, blocking.qps, blocking.peak_stalled,
            async_seq.size(), async_r.elapsed_seconds, async_r.qps,
            async_r.peak_stalled, ratio, ratio_target,
            ratio_pass ? "true" : "false", oracle, async_r.total_delay,
            drift, drift_pass ? "true" : "false", oracle_median_ns,
            hist_median_ns, median_drift,
            median_pass ? "true" : "false",
            static_cast<long long>(async_r.parked_gauge_midrun),
            gauge_pass ? "true" : "false", olr.served_short,
            short_pass ? "true" : "false", olr.late_p50_us,
            olr.late_p99_us, bench::OpenLoopJsonFields(ol).c_str(),
            obs::ToJson(registry_snap).c_str());
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return (ratio_pass && drift_pass && median_pass && gauge_pass &&
          floor_pass && short_pass)
             ? 0
             : 1;
}
