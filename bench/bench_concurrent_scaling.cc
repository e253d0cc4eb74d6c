// Concurrent scaling of the protected front door: sweeps 1/2/4/8
// threads over uniform and Zipf workloads against (a) the seed
// global-mutex wrapper (ConcurrencyMode::kGlobalLock) and (b) the
// sharded concurrent path (ConcurrencyMode::kSharded), and reports
// per-thread + aggregate GetByKey throughput and the delay-accuracy
// drift of the epoch-batched concurrent stats spine against a serial
// tracker oracle.
//
// This is the end-to-end executable form of the paper's section 2.4
// parallel-attack model: k registered identities extracting disjoint
// or overlapping partitions stall in parallel, and the server itself
// no longer serializes their computation.
//
// Acceptance targets (ISSUE 1):
//   * sharded aggregate throughput at 8 threads >= 3x the global-mutex
//     wrapper at 8 threads on the uniform workload;
//   * total charged delay under the concurrent tracker within 5% of
//     the serial oracle on the Zipf workload.
//
// Storage is configured with small buffer pools (as in the Table 5
// overhead bench) so point lookups exercise the real disk path -- the
// regime where a single-threaded storage engine behind one mutex is
// the front-door bottleneck.

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

/// TARPIT_BENCH_TINY=1 shrinks per-thread work for CI smoke runs (the
/// acceptance thresholds are only meaningful at the full size).
bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}
const int kOpsPerThread = TinyConfig() ? 500 : 20'000;

struct RunResult {
  double qps = 0;
  double per_thread_qps = 0;
  double total_delay = 0;   // Seconds charged (not slept).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t epoch_flushes = 0;
};

ProtectedDatabaseOptions MakeDbOptions() {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  opts.decay_per_request = 1.0;
  // Tiny pools: random point lookups through the (single-threaded)
  // storage engine nearly always miss the buffer pool, as in the
  // Table 5 overhead experiment's disk regime. Both modes share this
  // configuration; the sharded path escapes it through its lock-striped
  // read-through row cache, the global-mutex wrapper cannot.
  opts.table_options.heap_pool_pages = 8;
  opts.table_options.index_pool_pages = 8;
  return opts;
}

ConcurrentDatabaseOptions MakeConcurrentOptions(ConcurrencyMode mode) {
  ConcurrentDatabaseOptions copts;
  copts.mode = mode;
  copts.num_shards = 64;
  copts.epoch_batch = 256;
  copts.serve_delays = false;  // Measure the charge, skip the sleep.
  return copts;
}

/// Deterministic per-thread key sequences so the serial oracle can
/// replay exactly what the threads executed.
std::vector<std::vector<int64_t>> MakeSequences(bool zipf, int threads) {
  std::vector<std::vector<int64_t>> seqs(threads);
  for (int t = 0; t < threads; ++t) {
    Rng rng(0xC0FFEEu + 1013u * static_cast<uint64_t>(t) +
            (zipf ? 7u : 0u));
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

RunResult RunConfig(const fs::path& base, ConcurrencyMode mode,
                    const std::vector<std::vector<int64_t>>& seqs,
                    obs::MetricRegistry* metrics) {
  static int run_id = 0;
  const fs::path dir = base / ("run_" + std::to_string(run_id++));
  fs::create_directories(dir);

  RealClock clock;
  // The row-cache counts are registry series: every run counts them,
  // into the caller's registry or a run-local one.
  obs::MetricRegistry run_metrics;
  if (metrics == nullptr) metrics = &run_metrics;
  ConcurrentDatabaseOptions copts = MakeConcurrentOptions(mode);
  copts.metrics = metrics;
  auto opened = ConcurrentProtectedDatabase::Open(
      dir.string(), "items", &clock, MakeDbOptions(), copts);
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

  // Warmup: touch every key once (fills buffer pools / row cache) --
  // the oracle replays this phase too.
  for (int i = 1; i <= kRows; ++i) {
    if (!db->GetByKey(i).ok()) std::abort();
  }

  const int threads = static_cast<int>(seqs.size());
  std::vector<double> delays(threads, 0.0);
  RealClock wall;
  const int64_t start = wall.NowMicros();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      double sum = 0.0;
      for (int64_t key : seqs[t]) {
        auto r = db->GetByKey(key);
        if (!r.ok()) std::abort();
        sum += r->delay_seconds;
      }
      delays[t] = sum;
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = (wall.NowMicros() - start) / 1e6;

  RunResult res;
  const double total_ops = static_cast<double>(threads) * kOpsPerThread;
  res.qps = total_ops / elapsed;
  res.per_thread_qps = res.qps / threads;
  for (double d : delays) res.total_delay += d;
  const obs::RegistrySnapshot snap = metrics->Snapshot();
  res.cache_hits =
      static_cast<uint64_t>(snap.Total("tarpit_row_cache_hits_total"));
  res.cache_misses =
      static_cast<uint64_t>(snap.Total("tarpit_row_cache_misses_total"));
  res.epoch_flushes = db->stats_epoch_flushes();
  db.reset();
  fs::remove_all(dir);
  return res;
}

/// Serial oracle: one CountTracker replaying warmup + the per-thread
/// sequences round-robin, charging through the same snapshot math.
double SerialOracleDelay(const std::vector<std::vector<int64_t>>& seqs) {
  const ProtectedDatabaseOptions opts = MakeDbOptions();
  CountTracker tracker(kRows, opts.decay_per_request);
  double total = 0.0;
  auto charge = [&](int64_t key) {
    tracker.Record(key);
    total += PopularityDelayPolicy::DelayFromStats(tracker.Stats(key),
                                                   opts.popularity);
  };
  for (int i = 1; i <= kRows; ++i) charge(i);
  const double warmup = total;
  for (int i = 0; i < kOpsPerThread; ++i) {
    for (const auto& seq : seqs) charge(seq[i]);
  }
  return total - warmup;
}

/// Measured-phase delay (excludes warmup, which RunConfig folds into
/// the db's accounting but not into the per-thread sums it returns).
double MeasuredDelay(const RunResult& r) { return r.total_delay; }

/// Open-loop (coordinated-omission-free) tail of the sharded door:
/// uniform point reads on a fixed exponential schedule, latency from
/// the INTENDED send time -- the closed-loop sweep above self-paces,
/// so only this section can show a stall's queueing backlash.
bench::OpenLoopStats RunOpenLoopSharded(const fs::path& base) {
  const fs::path dir = base / "openloop";
  fs::create_directories(dir);
  RealClock clock;
  auto opened = ConcurrentProtectedDatabase::Open(
      dir.string(), "items", &clock, MakeDbOptions(),
      MakeConcurrentOptions(ConcurrencyMode::kSharded));
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
  for (int i = 1; i <= kRows; ++i) {
    if (!db->GetByKey(i).ok()) std::abort();
  }
  const auto keys = MakeSequences(/*zipf=*/false, /*threads=*/4);
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

}  // namespace

int main() {
  const fs::path base =
      fs::temp_directory_path() / "tarpit_bench_concurrent_scaling";
  fs::remove_all(base);
  fs::create_directories(base);

  const int thread_counts[] = {1, 2, 4, 8};
  std::printf("# Concurrent scaling: GetByKey front-door throughput\n");
  std::printf("# rows=%d ops/thread=%d zipf_alpha=%.2f "
              "(delays computed+accounted, not slept)\n\n",
              kRows, kOpsPerThread, kZipfAlpha);
  std::printf("%-9s %-8s %-8s %-12s %-14s %-12s %-10s\n", "workload",
              "mode", "threads", "agg qps", "qps/thread", "cache hit%",
              "flushes");

  double global8_uniform = 0, sharded8_uniform = 0;
  double sharded8_zipf_drift = 0;
  // Sharded 8-thread runs publish into registries whose snapshots go
  // into the JSON dump (buffer-pool / row-cache hit rates, count-cache
  // traffic) so a regression in cache behavior is visible in CI
  // artifacts, not just in aggregate qps.
  obs::MetricRegistry reg_uniform8;
  obs::MetricRegistry reg_zipf8;
  std::string json_rows;
  char row_buf[512];

  for (bool zipf : {false, true}) {
    for (ConcurrencyMode mode :
         {ConcurrencyMode::kGlobalLock, ConcurrencyMode::kSharded}) {
      for (int threads : thread_counts) {
        const auto seqs = MakeSequences(zipf, threads);
        obs::MetricRegistry* reg = nullptr;
        if (threads == 8 && mode == ConcurrencyMode::kSharded) {
          reg = zipf ? &reg_zipf8 : &reg_uniform8;
        }
        const RunResult r = RunConfig(base, mode, seqs, reg);
        const double hit_pct =
            r.cache_hits + r.cache_misses == 0
                ? 0.0
                : 100.0 * static_cast<double>(r.cache_hits) /
                      static_cast<double>(r.cache_hits + r.cache_misses);
        std::printf("%-9s %-8s %-8d %-12.0f %-14.0f %-12.1f %-10llu\n",
                    zipf ? "zipf" : "uniform",
                    mode == ConcurrencyMode::kGlobalLock ? "global"
                                                         : "sharded",
                    threads, r.qps, r.per_thread_qps, hit_pct,
                    static_cast<unsigned long long>(r.epoch_flushes));

        std::snprintf(
            row_buf, sizeof(row_buf),
            "%s    {\"workload\": \"%s\", \"mode\": \"%s\", "
            "\"threads\": %d, \"qps\": %.1f, \"qps_per_thread\": %.1f, "
            "\"row_cache_hits\": %llu, \"row_cache_misses\": %llu, "
            "\"epoch_flushes\": %llu}",
            json_rows.empty() ? "" : ",\n", zipf ? "zipf" : "uniform",
            mode == ConcurrencyMode::kGlobalLock ? "global" : "sharded",
            threads, r.qps, r.per_thread_qps,
            static_cast<unsigned long long>(r.cache_hits),
            static_cast<unsigned long long>(r.cache_misses),
            static_cast<unsigned long long>(r.epoch_flushes));
        json_rows.append(row_buf);

        if (!zipf && threads == 8) {
          if (mode == ConcurrencyMode::kGlobalLock) {
            global8_uniform = r.qps;
          } else {
            sharded8_uniform = r.qps;
          }
        }
        if (mode == ConcurrencyMode::kSharded) {
          const double oracle = SerialOracleDelay(seqs);
          const double drift =
              oracle <= 0 ? 0.0
                          : std::fabs(MeasuredDelay(r) - oracle) / oracle;
          if (zipf && threads == 8) sharded8_zipf_drift = drift;
          std::printf("%-9s %-8s %-8d oracle_delay=%.4fs "
                      "measured=%.4fs drift=%.3f%%\n",
                      zipf ? "zipf" : "uniform", "sharded", threads,
                      oracle, MeasuredDelay(r), 100.0 * drift);
        }
      }
    }
  }

  const double speedup =
      global8_uniform <= 0 ? 0.0 : sharded8_uniform / global8_uniform;
  std::printf("\n# Acceptance\n");
  std::printf("uniform@8: sharded %.0f qps vs global %.0f qps -> "
              "%.2fx (target >= 3.0x) %s\n",
              sharded8_uniform, global8_uniform, speedup,
              speedup >= 3.0 ? "PASS" : "FAIL");
  std::printf("zipf@8 delay-accuracy drift vs serial tracker: %.3f%% "
              "(target <= 5%%) %s\n",
              100.0 * sharded8_zipf_drift,
              sharded8_zipf_drift <= 0.05 ? "PASS" : "FAIL");

  const bench::OpenLoopStats ol = RunOpenLoopSharded(base);
  std::printf("open-loop sharded reads: p50 %.0fus p99 %.0fus p999 "
              "%.0fus, achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);
  const bool floor_pass = bench::HarnessFloorOk(ol);

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"concurrent_scaling\",\n"
            "  \"tiny\": %s,\n"
            "  \"rows\": %d,\n"
            "  \"ops_per_thread\": %d,\n"
            "  \"configs\": [\n%s\n  ],\n"
            "  \"speedup_uniform8\": %.3f,\n"
            "  \"speedup_pass\": %s,\n"
            "  \"zipf8_drift\": %.6f,\n"
            "  \"drift_pass\": %s,\n"
            "%s"
            "  \"registry_sharded8_uniform\": %s,\n"
            "  \"registry_sharded8_zipf\": %s\n"
            "}\n",
            TinyConfig() ? "true" : "false", kRows, kOpsPerThread,
            json_rows.c_str(), speedup,
            speedup >= 3.0 ? "true" : "false", sharded8_zipf_drift,
            sharded8_zipf_drift <= 0.05 ? "true" : "false",
            bench::OpenLoopJsonFields(ol).c_str(),
            obs::ToJson(reg_uniform8.Snapshot()).c_str(),
            obs::ToJson(reg_zipf8.Snapshot()).c_str());
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return floor_pass ? 0 : 1;
}
