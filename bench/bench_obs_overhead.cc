// Telemetry overhead: the metrics registry and trace sink must be
// close to free on the extraction-critical read path.
//
// The instrumentation contract (ISSUE 4) is "one null-pointer test per
// site when metrics are off; sharded counters and a lock-free
// histogram when on". This bench holds the implementation to it:
// two identical sharded databases, 8 threads of uniform GetByKey reads
// (delays computed but not slept -- serve_delays=false -- so the
// measurement is pure engine work, not stalling), one run with no
// registry attached and one with a registry AND a trace sink
// publishing every request. Uniform keys maximize per-request
// instrument traffic relative to cache effects; best-of-N repetitions
// on each side squeeze out scheduler noise.
//
// A third configuration holds the forensics layer (ISSUE 9) to the
// same contract: event ring attached to the door, risk scorer fed per
// principal-attributed served tuple, and a live scrape driver
// snapshotting the registry + running the self-audit watchdog + risk
// scrape concurrently with the hot path. Acceptance: the forensics
// *layer* -- everything it adds on top of the already-gated telemetry
// -- costs <= 3% vs the metrics-on baseline; the absolute
// off->forensics ratio is reported alongside for trend tracking.
//
// Acceptance (ISSUE 4): metrics-on throughput within 3% of metrics-off
// on the standard config. TARPIT_BENCH_TINY runs a smaller workload
// for CI smoke where a single-digit-millisecond run cannot resolve 3%;
// the tiny bar is 15% (the check still catches pathological
// regressions like a lock on the hot path).
//
// Env: TARPIT_BENCH_TINY=1 shrinks the workload;
// TARPIT_BENCH_JSON=<path> emits machine-readable JSON (the CI
// quick-bench job uploads it as BENCH_obs.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/self_audit.h"
#include "obs/event_ring.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/risk.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "openloop.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Worker count scaled to the machine: on a box with fewer cores than
/// workers an overhead ratio measures timeslicing, not
/// instrumentation, so never run more threads than hardware (floor 2
/// to keep the sharded structures contended at all).
const int kThreads = static_cast<int>(std::max(
    2u, std::min(8u, std::thread::hardware_concurrency())));
constexpr int kRows = 4096;

std::unique_ptr<ConcurrentProtectedDatabase> OpenDb(
    const fs::path& dir, Clock* clock, obs::MetricRegistry* metrics,
    obs::TraceSink* sink, obs::DefenseEventRing* events = nullptr,
    obs::RiskScorer* risk = nullptr) {
  fs::create_directories(dir);
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Measure engine work, not stalling.
  copts.metrics = metrics;
  copts.trace_sink = sink;
  copts.event_ring = events;
  copts.risk = risk;
  auto opened = ConcurrentProtectedDatabase::Open(
      dir.string(), "items", clock, opts, copts);
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

/// One timed pass: kThreads workers, `ops_per_thread` uniform
/// principal-attributed reads each (every config uses the attributed
/// entry point, so the forensics pass measures the risk feed against
/// an identical call path, not a cheaper one). Returns queries per
/// second.
double TimedPass(ConcurrentProtectedDatabase* db, Clock* clock,
                 int ops_per_thread, uint64_t seed) {
  std::vector<std::thread> workers;
  const int64_t start = clock->NowMicros();
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([db, ops_per_thread, seed, t] {
      Rng rng(seed + static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ull);
      UniformKeyGenerator gen(kRows);
      const RequestPrincipal who{static_cast<uint64_t>(t) + 1,
                                 0x0A000000u + static_cast<uint32_t>(t)};
      for (int i = 0; i < ops_per_thread; ++i) {
        auto r = db->GetByKey(gen.Next(&rng), who);
        if (!r.ok()) std::abort();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = (clock->NowMicros() - start) / 1e6;
  return static_cast<double>(ops_per_thread) * kThreads / elapsed;
}

}  // namespace

int main() {
  const bool tiny = TinyConfig();
  // Total per-pass work is constant regardless of the worker count, so
  // a 2-core host times the same number of requests as an 8-core one.
  const int ops_per_thread = (tiny ? 16'000 : 320'000) / kThreads;
  const int reps = tiny ? 3 : 5;
  // See header comment: tiny runs are too short to resolve 3%.
  const double bar = tiny ? 0.15 : 0.03;

  const fs::path base =
      fs::temp_directory_path() / "tarpit_bench_obs_overhead";
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# Telemetry overhead: sharded uniform reads, %d threads, "
              "%d ops/thread, best of %d%s\n\n",
              kThreads, ops_per_thread, reps, tiny ? " (tiny)" : "");

  RealClock clock;

  // All three configs are opened up front and the timed passes are
  // INTERLEAVED round-robin (off, on, forensics, off, on, ...): on a
  // shared or single-core host, slow minutes otherwise land entirely
  // on whichever config happens to run then, and the overhead ratio
  // measures run order instead of instrumentation. Interleaving makes
  // host noise symmetric across configs; best-of-N then discards it.
  auto db_off = OpenDb(base / "off", &clock, nullptr, nullptr);

  obs::MetricRegistry registry;
  obs::TraceSink sink;
  auto db_on = OpenDb(base / "on", &clock, &registry, &sink);

  // Forensics config (ISSUE 9): registry + trace sink + event ring +
  // per-request risk feed, with a live scraper thread snapshotting the
  // registry into time-series rings and running the self-audit
  // watchdog + risk scrape every 20ms -- the full production
  // forensics posture, measured against the everything-off baseline.
  obs::MetricRegistry fregistry;
  obs::TraceSink fsink;
  obs::DefenseEventRingOptions ring_opts;
  ring_opts.metrics = &fregistry;
  obs::DefenseEventRing events(ring_opts);
  obs::RiskScorerOptions risk_opts;
  risk_opts.keyspace_size = kRows;
  risk_opts.metrics = &fregistry;
  // Production posture for a per-served-tuple feed: 1-in-16 hash
  // partition of the keyspace, estimates scaled back up (unbiased).
  risk_opts.query_sample_every = 16;
  obs::RiskScorer risk(risk_opts);
  double qps_off = 0.0, qps_on = 0.0, qps_forensics = 0.0;
  uint64_t requests_seen = 0;
  bool watchdog_healthy = false;
  uint64_t watchdog_passes = 0;
  uint64_t risk_observations = 0;
  bench::OpenLoopStats ol;
  {
    auto db = OpenDb(base / "forensics", &clock, &fregistry, &fsink,
                     &events, &risk);
    obs::SelfAuditWatchdogOptions wd_opts;
    wd_opts.metrics = &fregistry;
    wd_opts.events = &events;
    obs::SelfAuditWatchdog watchdog(wd_opts);
    SelfAuditTargets targets;
    targets.db = db.get();
    targets.metrics = &fregistry;
    InstallStandardChecks(&watchdog, targets);
    obs::MetricTimeSeries timeseries(&fregistry);
    obs::ScrapeDriverOptions drv_opts;
    drv_opts.interval_seconds = tiny ? 0.05 : 0.02;
    obs::ScrapeDriver driver(
        [&] {
          const double now = clock.NowSeconds();
          timeseries.ScrapeOnce(now);
          risk.OnScrape(now);
          watchdog.RunOnce(clock.NowMicros());
        },
        drv_opts);

    // Warmup (faults the row caches in), then interleaved timed
    // rounds.
    TimedPass(db_off.get(), &clock, ops_per_thread, 0xAAAA);
    TimedPass(db_on.get(), &clock, ops_per_thread, 0xAAAA);
    TimedPass(db.get(), &clock, ops_per_thread, 0xAAAA);
    for (int rep = 0; rep < reps; ++rep) {
      const uint64_t seed = 0xBEEF + static_cast<uint64_t>(rep);
      qps_off = std::max(
          qps_off, TimedPass(db_off.get(), &clock, ops_per_thread, seed));
      qps_on = std::max(
          qps_on, TimedPass(db_on.get(), &clock, ops_per_thread, seed));
      qps_forensics = std::max(
          qps_forensics, TimedPass(db.get(), &clock, ops_per_thread, seed));
    }
    db_off.reset();
    if (const obs::MetricSnapshot* m =
            registry.Snapshot().Find("tarpit_db_requests_total")) {
      requests_seen = static_cast<uint64_t>(m->value);
    }
    db_on.reset();

    // Open-loop tail (coordinated-omission-free) on the same fully
    // instrumented door.
    bench::OpenLoopOptions olopts;
    olopts.threads = 4;
    olopts.ops_per_thread = tiny ? 400 : 4000;
    olopts.mean_interarrival_us = tiny ? 400.0 : 100.0;
    Rng olrng(0x0B5);
    UniformKeyGenerator olgen(kRows);
    std::vector<int64_t> olkeys;
    olkeys.reserve(static_cast<size_t>(olopts.threads) *
                   olopts.ops_per_thread);
    for (size_t i = 0; i < olkeys.capacity(); ++i) {
      olkeys.push_back(olgen.Next(&olrng));
    }
    ol = bench::RunOpenLoop(olopts, [&](int t, int i) {
      const RequestPrincipal who{static_cast<uint64_t>(t) + 1,
                                 0x0A000000u + static_cast<uint32_t>(t)};
      const size_t idx = static_cast<size_t>(t) * olopts.ops_per_thread +
                         static_cast<size_t>(i);
      if (!db->GetByKey(olkeys[idx], who).ok()) std::abort();
    });

    driver.Stop();
    // Quiesced final pass: with no writer moving, the ledger check
    // must reconcile exactly -- a violation here is a real accounting
    // bug, not noise (the zero-false-positive half of the watchdog
    // acceptance).
    watchdog.RunOnce(clock.NowMicros());
    watchdog_healthy = watchdog.healthy();
    watchdog_passes = watchdog.passes_total();
    risk_observations = static_cast<uint64_t>(
        fregistry.Snapshot().Total("tarpit_risk_observations_total"));
    db.reset();
  }

  // Sanity: the registry must have actually been on the path.
  // (1 + reps) passes of kThreads * ops_per_thread reads, plus the
  // CREATE TABLE statement.
  const uint64_t expected_min =
      static_cast<uint64_t>(1 + reps) * kThreads * ops_per_thread;
  const bool counted = requests_seen >= expected_min;

  const double overhead =
      qps_off <= 0 ? 1.0 : (qps_off - qps_on) / qps_off;
  const bool overhead_pass = overhead <= bar;
  // The forensics bar is the *layer's* increment over the already-gated
  // metrics-on baseline: the event ring + risk feed + scraper are what
  // this bench newly admits, and measuring against metrics-on keeps the
  // gate attributable to them (the metrics-off gap is already charged
  // to the telemetry gate above). The absolute off->forensics ratio is
  // still reported and exported for trend tracking.
  const double forensics_overhead =
      qps_on <= 0 ? 1.0 : (qps_on - qps_forensics) / qps_on;
  const double forensics_total_overhead =
      qps_off <= 0 ? 1.0 : (qps_off - qps_forensics) / qps_off;
  const bool forensics_pass = forensics_overhead <= bar;

  std::printf("%-14s %-14s\n", "config", "qps(best)");
  std::printf("%-14s %-14.0f\n", "metrics-off", qps_off);
  std::printf("%-14s %-14.0f\n", "metrics-on", qps_on);
  std::printf("%-14s %-14.0f\n", "forensics-on", qps_forensics);

  std::printf("\n# Acceptance\n");
  std::printf("overhead: %.2f%% (bar <= %.0f%%) %s\n", 100.0 * overhead,
              100.0 * bar, overhead_pass ? "PASS" : "FAIL");
  std::printf("forensics layer overhead vs metrics-on: %.2f%% "
              "(bar <= %.0f%%) %s\n",
              100.0 * forensics_overhead, 100.0 * bar,
              forensics_pass ? "PASS" : "FAIL");
  std::printf("forensics total overhead vs metrics-off: %.2f%% "
              "(reported, not gated)\n",
              100.0 * forensics_total_overhead);
  std::printf("watchdog: %s after %llu passes (zero false positives "
              "required) %s\n",
              watchdog_healthy ? "healthy" : "VIOLATION",
              static_cast<unsigned long long>(watchdog_passes),
              watchdog_healthy ? "PASS" : "FAIL");
  std::printf("open-loop (forensics-on): p50 %.0fus p99 %.0fus p999 "
              "%.0fus, achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);
  const bool floor_pass = bench::HarnessFloorOk(ol);
  std::printf("risk observations: %llu, events appended: %llu\n",
              static_cast<unsigned long long>(risk_observations),
              static_cast<unsigned long long>(events.appended_total()));
  std::printf("instrumented: requests_total=%llu (>= %llu) %s\n",
              static_cast<unsigned long long>(requests_seen),
              static_cast<unsigned long long>(expected_min),
              counted ? "PASS" : "FAIL");

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"obs_overhead\",\n"
                     "  \"tiny\": %s,\n"
                     "  \"threads\": %d,\n"
                     "  \"ops_per_thread\": %d,\n"
                     "  \"reps\": %d,\n"
                     "  \"qps_metrics_off\": %.1f,\n"
                     "  \"qps_metrics_on\": %.1f,\n"
                     "  \"qps_forensics_on\": %.1f,\n"
                     "  \"overhead\": %.6f,\n"
                     "  \"forensics_overhead\": %.6f,\n"
                     "  \"forensics_total_overhead\": %.6f,\n"
                     "  \"overhead_bar\": %.6f,\n"
                     "  \"overhead_pass\": %s,\n"
                     "  \"forensics_pass\": %s,\n"
                     "  \"watchdog_healthy\": %s,\n"
                     "  \"watchdog_passes\": %llu,\n"
                     "  \"risk_observations\": %llu,\n"
                     "  \"events_appended\": %llu,\n"
                     "%s"
                     "  \"requests_total\": %llu,\n"
                     "  \"registry\": %s\n"
                     "}\n",
                     tiny ? "true" : "false", kThreads, ops_per_thread,
                     reps, qps_off, qps_on, qps_forensics, overhead,
                     forensics_overhead, forensics_total_overhead, bar,
                     overhead_pass ? "true" : "false",
                     forensics_pass ? "true" : "false",
                     watchdog_healthy ? "true" : "false",
                     static_cast<unsigned long long>(watchdog_passes),
                     static_cast<unsigned long long>(risk_observations),
                     static_cast<unsigned long long>(
                         events.appended_total()),
                     bench::OpenLoopJsonFields(ol).c_str(),
                     static_cast<unsigned long long>(requests_seen),
                     obs::ToJson(registry.Snapshot()).c_str());
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return (overhead_pass && forensics_pass && watchdog_healthy && counted &&
          floor_pass)
             ? 0
             : 1;
}
