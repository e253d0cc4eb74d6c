// Concurrent read path acceptance bench (ISSUE 5): measures the three
// tentpole wins and emits BENCH_read.json for the CI quick-bench gate.
//
//   1. 8-thread point-read throughput, sharded front door (thread-safe
//      sharded buffer pool + shared storage lock + striped row cache)
//      vs the exclusive-lock baseline (ConcurrencyMode::kGlobalLock).
//      Target: >= 2x (CI gates at >= 1.5x to absorb runner noise).
//   2. Plan-cache p50: repeated point-lookup SELECT latency with the
//      statement cache on vs off (lexer -> parser -> planner skipped on
//      hits). Target: >= 30% p50 improvement.
//   3. Charged-delay fidelity: the sharded path replaying a Zipf key
//      sequence single-threaded with epoch_batch=1 must charge within
//      0.01% of a serial CountTracker oracle -- the refactored read
//      path may not change the delay math at all. (Single-threaded
//      because drift here measures ACCOUNTING fidelity; ordering
//      nondeterminism under concurrency is measured, with a looser
//      bar, by bench_concurrent_scaling.)
//
// Also reports batched range-scan throughput with LIMIT pushdown
// (leaf-at-a-time decode), informational.

#include <algorithm>
#include <chrono>
#include <cmath>
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
#include "core/popularity_delay.h"
#include "core/protected_db.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "openloop.h"
#include "stats/count_tracker.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

constexpr int kRows = 4096;
constexpr double kZipfAlpha = 1.1;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}
const int kOpsPerThread = TinyConfig() ? 500 : 20'000;
const int kSqlRounds = TinyConfig() ? 40 : 400;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProtectedDatabaseOptions MakeDelayOptions() {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  opts.decay_per_request = 1.0;
  // Tiny pools: point lookups exercise the real storage path (the
  // regime where the exclusive-lock baseline serializes everything).
  opts.table_options.heap_pool_pages = 8;
  opts.table_options.index_pool_pages = 8;
  return opts;
}

std::unique_ptr<ConcurrentProtectedDatabase> OpenConcurrent(
    const fs::path& dir, ConcurrencyMode mode, size_t epoch_batch,
    Clock* clock, obs::MetricRegistry* metrics) {
  fs::create_directories(dir);
  ConcurrentDatabaseOptions copts;
  copts.mode = mode;
  copts.num_shards = 64;
  copts.epoch_batch = epoch_batch;
  copts.serve_delays = false;  // Measure the charge, skip the sleep.
  copts.metrics = metrics;
  auto opened = ConcurrentProtectedDatabase::Open(
      dir.string(), "items", clock, MakeDelayOptions(), copts);
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

std::vector<std::vector<int64_t>> MakeSequences(bool zipf, int threads) {
  std::vector<std::vector<int64_t>> seqs(threads);
  for (int t = 0; t < threads; ++t) {
    Rng rng(0xBEEFCAFEu + 917u * static_cast<uint64_t>(t) +
            (zipf ? 3u : 0u));
    std::unique_ptr<KeyGenerator> gen;
    if (zipf) {
      gen = std::make_unique<ZipfKeyGenerator>(kRows, kZipfAlpha);
    } else {
      gen = std::make_unique<UniformKeyGenerator>(kRows);
    }
    seqs[t].reserve(kOpsPerThread);
    for (int i = 0; i < kOpsPerThread; ++i) {
      seqs[t].push_back(gen->Next(&rng));
    }
  }
  return seqs;
}

/// Part 1: 8-thread GetByKey throughput for one mode.
double RunThroughput(const fs::path& base, ConcurrencyMode mode,
                     const std::vector<std::vector<int64_t>>& seqs) {
  static int run_id = 0;
  const fs::path dir = base / ("tp_" + std::to_string(run_id++));
  RealClock clock;
  auto db = OpenConcurrent(dir, mode, /*epoch_batch=*/256, &clock,
                           nullptr);
  for (int i = 1; i <= kRows; ++i) {  // Warm pools / row cache.
    if (!db->GetByKey(i).ok()) std::abort();
  }
  const int64_t start = clock.NowMicros();
  std::vector<std::thread> workers;
  for (const auto& seq : seqs) {
    workers.emplace_back([&db, &seq] {
      for (int64_t key : seq) {
        if (!db->GetByKey(key).ok()) std::abort();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = (clock.NowMicros() - start) / 1e6;
  db.reset();
  fs::remove_all(dir);
  return static_cast<double>(seqs.size()) * kOpsPerThread / elapsed;
}

/// Part 2: p50 of repeated point-lookup SELECT latency through the
/// serial front door, with / without the plan cache.
double RunSqlP50Nanos(const fs::path& dir, size_t plan_cache_capacity) {
  fs::create_directories(dir);
  RealClock clock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kNone;
  opts.plan_cache_capacity = plan_cache_capacity;
  // Default (large) pools: rows stay resident, so the measured delta
  // is compilation cost, not disk traffic.
  auto opened = ProtectedDatabase::Open(dir.string(), "items", &clock,
                                        opts);
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
  constexpr int kDistinct = 64;
  std::vector<std::string> statements;
  statements.reserve(kDistinct);
  for (int i = 0; i < kDistinct; ++i) {
    statements.push_back("SELECT * FROM items WHERE id = " +
                         std::to_string(1 + i * (kRows / kDistinct)));
  }
  for (const std::string& sql : statements) {  // Warm cache + pools.
    if (!db->ExecuteSql(sql).ok()) std::abort();
  }
  std::vector<int64_t> lat;
  lat.reserve(static_cast<size_t>(kSqlRounds) * kDistinct);
  for (int round = 0; round < kSqlRounds; ++round) {
    for (const std::string& sql : statements) {
      const int64_t t0 = NowNanos();
      if (!db->ExecuteSql(sql).ok()) std::abort();
      lat.push_back(NowNanos() - t0);
    }
  }
  db.reset();
  fs::remove_all(dir);
  std::nth_element(lat.begin(), lat.begin() + lat.size() / 2, lat.end());
  return static_cast<double>(lat[lat.size() / 2]);
}

/// Part 3: charged-delay fidelity of the sharded read path against a
/// serial CountTracker oracle (same sequence, same order).
double RunDrift(const fs::path& base,
                const std::vector<int64_t>& sequence) {
  const fs::path dir = base / "drift";
  RealClock clock;
  // epoch_batch=1: every access merges into the rank index before the
  // next, so execution order equals oracle order exactly.
  auto db = OpenConcurrent(dir, ConcurrencyMode::kSharded,
                           /*epoch_batch=*/1, &clock, nullptr);
  for (int i = 1; i <= kRows; ++i) {
    if (!db->GetByKey(i).ok()) std::abort();
  }
  double measured = 0.0;
  for (int64_t key : sequence) {
    auto r = db->GetByKey(key);
    if (!r.ok()) std::abort();
    measured += r->delay_seconds;
  }
  db.reset();
  fs::remove_all(dir);

  const ProtectedDatabaseOptions opts = MakeDelayOptions();
  CountTracker tracker(kRows, opts.decay_per_request);
  double oracle = 0.0;
  auto charge = [&](int64_t key) {
    tracker.Record(key);
    return PopularityDelayPolicy::DelayFromStats(tracker.Stats(key),
                                                 opts.popularity);
  };
  for (int i = 1; i <= kRows; ++i) charge(i);  // Warmup, not summed.
  for (int64_t key : sequence) oracle += charge(key);
  return oracle <= 0 ? 0.0 : std::fabs(measured - oracle) / oracle;
}

/// Open-loop (coordinated-omission-free) latency of the sharded door:
/// requests fire on a fixed exponential schedule and latency is
/// measured from the INTENDED send time, so a slow request also
/// charges the requests queued behind it.
bench::OpenLoopStats RunOpenLoopReads(const fs::path& base) {
  const fs::path dir = base / "openloop";
  RealClock clock;
  auto db = OpenConcurrent(dir, ConcurrencyMode::kSharded,
                           /*epoch_batch=*/256, &clock, nullptr);
  for (int i = 1; i <= kRows; ++i) {
    if (!db->GetByKey(i).ok()) std::abort();
  }
  std::vector<std::vector<int64_t>> keys =
      MakeSequences(/*zipf=*/false, /*threads=*/4);
  bench::OpenLoopOptions olopts;
  olopts.threads = 4;
  olopts.ops_per_thread = TinyConfig() ? 400 : 4000;
  olopts.mean_interarrival_us = TinyConfig() ? 400.0 : 100.0;
  const bench::OpenLoopStats stats =
      bench::RunOpenLoop(olopts, [&](int t, int i) {
        if (!db->GetByKey(keys[static_cast<size_t>(t)]
                              [static_cast<size_t>(i) % keys[0].size()])
                 .ok()) {
          std::abort();
        }
      });
  db.reset();
  fs::remove_all(dir);
  return stats;
}

struct ScanStats {
  double full_rows_per_sec = 0;
  double limit10_micros = 0;
};

/// Informational: batched range scans + LIMIT pushdown through the SQL
/// layer, publishing tarpit_scan_batch_rows into `metrics`.
ScanStats RunScans(const fs::path& dir, obs::MetricRegistry* metrics) {
  fs::create_directories(dir);
  RealClock clock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kNone;
  opts.metrics = metrics;
  auto opened = ProtectedDatabase::Open(dir.string(), "items", &clock,
                                        opts);
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
  ScanStats out;
  const int scan_rounds = TinyConfig() ? 5 : 50;
  uint64_t rows_seen = 0;
  const int64_t t0 = clock.NowMicros();
  for (int i = 0; i < scan_rounds; ++i) {
    auto r = db->ExecuteSql(
        "SELECT * FROM items WHERE id >= 1 AND id <= " +
        std::to_string(kRows));
    if (!r.ok()) std::abort();
    rows_seen += r->result.rows.size();
  }
  const double full_secs = (clock.NowMicros() - t0) / 1e6;
  out.full_rows_per_sec = static_cast<double>(rows_seen) / full_secs;

  // LIMIT pushdown: stopping after 10 of 4096 candidates must cost
  // microseconds, not a full-range decode.
  const int64_t t1 = clock.NowMicros();
  const int limit_rounds = TinyConfig() ? 50 : 500;
  for (int i = 0; i < limit_rounds; ++i) {
    auto r = db->ExecuteSql(
        "SELECT * FROM items WHERE id >= 1 AND id <= " +
        std::to_string(kRows) + " LIMIT 10");
    if (!r.ok() || r->result.rows.size() != 10) std::abort();
  }
  out.limit10_micros =
      static_cast<double>(clock.NowMicros() - t1) / limit_rounds;
  db.reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace

int main() {
  const fs::path base = fs::temp_directory_path() / "tarpit_bench_read";
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# Concurrent read path: sharded buffer pool + plan "
              "cache + batched scans\n");
  std::printf("# rows=%d ops/thread=%d sql_rounds=%d tiny=%d\n\n",
              kRows, kOpsPerThread, kSqlRounds, TinyConfig() ? 1 : 0);

  // 1. 8-thread read throughput, sharded vs exclusive-lock baseline.
  const auto seqs = MakeSequences(/*zipf=*/false, /*threads=*/8);
  const double qps_global =
      RunThroughput(base, ConcurrencyMode::kGlobalLock, seqs);
  const double qps_sharded =
      RunThroughput(base, ConcurrencyMode::kSharded, seqs);
  const double speedup = qps_global <= 0 ? 0.0 : qps_sharded / qps_global;
  std::printf("read@8t: sharded %.0f qps vs exclusive-lock %.0f qps -> "
              "%.2fx (target >= 2.0x) %s\n",
              qps_sharded, qps_global, speedup,
              speedup >= 2.0 ? "PASS" : "FAIL");

  // 2. Plan-cache p50.
  const double p50_off = RunSqlP50Nanos(base / "sql_off", 0);
  const double p50_on = RunSqlP50Nanos(base / "sql_on", 256);
  const double p50_improvement =
      p50_off <= 0 ? 0.0 : (p50_off - p50_on) / p50_off;
  std::printf("plan cache p50: off %.0fns on %.0fns -> %.1f%% "
              "improvement (target >= 30%%) %s\n",
              p50_off, p50_on, 100.0 * p50_improvement,
              p50_improvement >= 0.30 ? "PASS" : "FAIL");

  // 3. Charged-delay fidelity.
  Rng rng(0xD15EA5Eu);
  ZipfKeyGenerator zipf(kRows, kZipfAlpha);
  std::vector<int64_t> drift_seq;
  drift_seq.reserve(kOpsPerThread);
  for (int i = 0; i < kOpsPerThread; ++i) {
    drift_seq.push_back(zipf.Next(&rng));
  }
  const double drift = RunDrift(base, drift_seq);
  std::printf("charged-delay drift vs serial oracle: %.6f%% "
              "(target <= 0.01%%) %s\n",
              100.0 * drift, drift <= 1e-4 ? "PASS" : "FAIL");

  // 4. Batched scans (informational).
  obs::MetricRegistry scan_reg;
  const ScanStats scans = RunScans(base / "scans", &scan_reg);
  std::printf("range scan: %.0f rows/s full-range; LIMIT 10 over %d "
              "candidates: %.1fus/query\n",
              scans.full_rows_per_sec, kRows, scans.limit10_micros);

  // 5. Open-loop tail latency (CO-free, informational).
  const bench::OpenLoopStats ol = RunOpenLoopReads(base);
  std::printf("open-loop reads: p50 %.0fus p99 %.0fus p999 %.0fus, "
              "achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);
  const bool floor_pass = bench::HarnessFloorOk(ol);

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"read_path\",\n"
            "  \"tiny\": %s,\n"
            "  \"rows\": %d,\n"
            "  \"ops_per_thread\": %d,\n"
            "  \"qps_sharded_8t\": %.1f,\n"
            "  \"qps_exclusive_8t\": %.1f,\n"
            "  \"read_speedup_8t\": %.3f,\n"
            "  \"speedup_pass\": %s,\n"
            "  \"plan_cache_p50_off_ns\": %.0f,\n"
            "  \"plan_cache_p50_on_ns\": %.0f,\n"
            "  \"plan_cache_p50_improvement\": %.4f,\n"
            "  \"p50_pass\": %s,\n"
            "  \"delay_drift\": %.9f,\n"
            "  \"drift_pass\": %s,\n"
            "  \"scan_rows_per_sec\": %.0f,\n"
            "  \"scan_limit10_micros\": %.2f,\n"
            "%s"
            "  \"registry_scans\": %s\n"
            "}\n",
            TinyConfig() ? "true" : "false", kRows, kOpsPerThread,
            qps_sharded, qps_global, speedup,
            speedup >= 2.0 ? "true" : "false", p50_off, p50_on,
            p50_improvement, p50_improvement >= 0.30 ? "true" : "false",
            drift, drift <= 1e-4 ? "true" : "false",
            scans.full_rows_per_sec, scans.limit10_micros,
            bench::OpenLoopJsonFields(ol).c_str(),
            obs::ToJson(scan_reg.Snapshot()).c_str());
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return floor_pass ? 0 : 1;
}
