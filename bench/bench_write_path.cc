// Concurrent write path acceptance bench (ISSUE 7): measures the MVCC
// tentpole wins and emits BENCH_write.json for the CI quick-bench gate.
//
//   1. Closed-loop mixed 80/20 read/write throughput at 8 threads:
//      MVCC write path (snapshot reads + group-committed version-store
//      writes) vs the exclusive-lock baseline
//      (ConcurrencyMode::kGlobalLock). Target: >= 2x (the CI gate).
//   2. Open-loop latency, free of coordinated omission: requests fire
//      on a FIXED arrival schedule (deterministic exponential
//      interarrivals) and each latency is measured from the INTENDED
//      send time, so a stalled server keeps accumulating blame instead
//      of silently pausing the load. Reports p50/p99/p999.
//   3. Charged-delay fidelity of the write path: an interleaved
//      read/update sequence replayed single-threaded on a shared
//      VirtualClock through the MVCC door and a serial
//      ProtectedDatabase oracle (update-rate mode, epoch_batch=1) must
//      charge within 0.01% -- the group-commit refactor may not change
//      the paper's Eq. 9 update-delay math at all.

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
#include "core/protected_db.h"
#include "openloop.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

constexpr int kRows = 4096;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}
// Tiny still runs enough mixed ops that the measured phase dominates
// warmup: at ~500k qps the 8x1500 ops take ~25ms, which keeps the
// CI speedup gate out of scheduler-noise territory.
const int kOpsPerThread = TinyConfig() ? 1'500 : 12'000;
const int kOpenLoopOps = TinyConfig() ? 300 : 4'000;
const int kDriftOps = TinyConfig() ? 400 : 4'000;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
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
  opts.table_options.heap_pool_pages = 8;
  opts.table_options.index_pool_pages = 8;
  // Large enough that the bounded statement set below stays resident:
  // statement reuse through the plan cache is this engine's
  // prepared-statement analog, and both doors share the capacity, so
  // the comparison measures execution, not parsing.
  opts.plan_cache_capacity = 8192;
  return opts;
}

std::unique_ptr<ConcurrentProtectedDatabase> OpenConcurrent(
    const fs::path& dir, ConcurrencyMode mode, size_t epoch_batch,
    Clock* clock,
    ProtectedDatabaseOptions opts = MakeDelayOptions()) {
  fs::create_directories(dir);
  ConcurrentDatabaseOptions copts;
  copts.mode = mode;
  copts.num_shards = 64;
  copts.stats_shards = 64;
  copts.epoch_batch = epoch_batch;
  copts.serve_delays = false;  // Measure the charge, skip the sleep.
  // Fold in larger batches: reclaim applies run in sorted key order,
  // so a bigger pass revisits each B+tree leaf consecutively and the
  // per-commit amortized fold cost drops with the batch size.
  copts.mvcc_reclaim_every_commits = 512;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  clock, opts, copts);
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

/// One pre-generated mixed operation (formatting cost stays out of the
/// measured loop and is identical across configs either way).
struct MixedOp {
  int64_t key = 0;
  bool is_write = false;
  std::string sql;  // Only for writes.
};

std::vector<std::vector<MixedOp>> MakeMixedOps(int threads, int ops) {
  std::vector<std::vector<MixedOp>> all(threads);
  for (int t = 0; t < threads; ++t) {
    Rng rng(0xFEEDFACEu + 271u * static_cast<uint64_t>(t));
    all[t].reserve(ops);
    for (int i = 0; i < ops; ++i) {
      MixedOp op;
      op.key = 1 + static_cast<int64_t>(rng.Uniform(kRows));
      op.is_write = rng.Uniform(100) >= 80;  // 20% updates.
      if (op.is_write) {
        // Key-derived literal: the statement set is bounded by the key
        // space, so repeats hit the plan cache (the engine's
        // prepared-statement analog) in every door alike.
        op.sql = "UPDATE items SET v = " + std::to_string(op.key % 97) +
                 ".25 WHERE id = " + std::to_string(op.key);
      }
      all[t].push_back(std::move(op));
    }
  }
  return all;
}

/// Part 1: closed-loop 8-thread 80/20 throughput for one config.
double RunMixedThroughput(const fs::path& base, ConcurrencyMode mode,
                          const std::vector<std::vector<MixedOp>>& ops) {
  static int run_id = 0;
  const fs::path dir = base / ("mixed_" + std::to_string(run_id++));
  RealClock clock;
  auto db = OpenConcurrent(dir, mode, /*epoch_batch=*/256, &clock);
  for (int i = 1; i <= kRows; ++i) {  // Warm pools / row cache.
    if (!db->GetByKey(i).ok()) std::abort();
  }
  const int64_t start = NowMicros();
  std::vector<std::thread> workers;
  for (const auto& seq : ops) {
    workers.emplace_back([&db, &seq] {
      for (const MixedOp& op : seq) {
        if (op.is_write) {
          if (!db->ExecuteSql(op.sql).ok()) std::abort();
        } else {
          if (!db->GetByKey(op.key).ok()) std::abort();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = (NowMicros() - start) / 1e6;
  db.reset();
  fs::remove_all(dir);
  return static_cast<double>(ops.size()) * ops[0].size() / elapsed;
}

/// Part 2: open-loop latency on the MVCC config, through the shared
/// coordinated-omission-free harness (bench/openloop.h).
bench::OpenLoopStats RunOpenLoopMixed(const fs::path& base) {
  const fs::path dir = base / "openloop";
  RealClock clock;
  auto db = OpenConcurrent(dir, ConcurrencyMode::kSharded,
                           /*epoch_batch=*/256, &clock);
  for (int i = 1; i <= kRows; ++i) {
    if (!db->GetByKey(i).ok()) std::abort();
  }
  bench::OpenLoopOptions olopts;
  olopts.threads = 4;
  olopts.ops_per_thread = kOpenLoopOps;
  olopts.mean_interarrival_us = TinyConfig() ? 500.0 : 150.0;
  auto mixed = MakeMixedOps(olopts.threads, kOpenLoopOps);
  const bench::OpenLoopStats out =
      bench::RunOpenLoop(olopts, [&](int t, int i) {
        const MixedOp& op = mixed[t][i];
        if (op.is_write) {
          if (!db->ExecuteSql(op.sql).ok()) std::abort();
        } else {
          if (!db->GetByKey(op.key).ok()) std::abort();
        }
      });
  db.reset();
  fs::remove_all(dir);
  return out;
}

/// Part 3: charged-delay fidelity of the MVCC write path vs a serial
/// ProtectedDatabase oracle. Update-rate mode: the delay charged to a
/// read is Eq. 9's inverse learned update rate, so the comparison
/// covers exactly the bookkeeping the write path reimplements.
double RunDrift(const fs::path& base) {
  VirtualClock vclock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kUpdateRate;
  opts.update.c = 1.0;
  opts.update.bounds = {0.0, 10.0};
  opts.table_options.heap_pool_pages = 8;
  opts.table_options.index_pool_pages = 8;

  const fs::path cdir = base / "drift_mvcc";
  // epoch_batch=1: access-side stats merge in submission order, so the
  // two doors see identical tracker states at every step.
  auto cdb = OpenConcurrent(cdir, ConcurrencyMode::kSharded,
                            /*epoch_batch=*/1, &vclock, opts);

  const fs::path sdir = base / "drift_serial";
  fs::create_directories(sdir);
  ProtectedDatabaseOptions sopts = opts;
  sopts.defer_delay_sleep = true;  // Charge without advancing the
                                   // shared virtual clock.
  auto sopen = ProtectedDatabase::Open(sdir.string(), "items", &vclock,
                                       sopts);
  if (!sopen.ok()) std::abort();
  auto sdb = std::move(*sopen);
  if (!sdb->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
           .ok()) {
    std::abort();
  }
  for (int i = 1; i <= kRows; ++i) {
    if (!sdb->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::abort();
    }
  }

  Rng rng(0xD00DAD5u);
  double measured = 0.0, oracle = 0.0;
  int64_t next_insert_key = kRows + 1;
  for (int i = 0; i < kDriftOps; ++i) {
    vclock.SleepForMicros(1'000);  // Both doors share the timeline.
    const uint64_t dice = rng.Uniform(100);
    if (dice < 70) {  // Read an always-present key; sum the charge.
      const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(kRows));
      auto a = cdb->GetByKey(key);
      auto b = sdb->GetByKey(key);
      if (!a.ok() || !b.ok()) std::abort();
      measured += a->delay_seconds;
      oracle += b->delay_seconds;
    } else if (dice < 95) {  // pk-equality UPDATE (lowered to MVCC).
      const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(kRows));
      const std::string sql = "UPDATE items SET v = " +
                              std::to_string(i % 89) + ".5 WHERE id = " +
                              std::to_string(key);
      if (!cdb->ExecuteSql(sql).ok()) std::abort();
      if (!sdb->ExecuteSql(sql).ok()) std::abort();
    } else {  // INSERT: universe-size bookkeeping must track too.
      const std::string sql = "INSERT INTO items VALUES (" +
                              std::to_string(next_insert_key++) +
                              ", 1.0)";
      if (!cdb->ExecuteSql(sql).ok()) std::abort();
      if (!sdb->ExecuteSql(sql).ok()) std::abort();
    }
  }
  cdb.reset();
  sdb.reset();
  fs::remove_all(cdir);
  fs::remove_all(sdir);
  return oracle <= 0 ? 0.0 : std::fabs(measured - oracle) / oracle;
}

}  // namespace

int main() {
  const fs::path base = fs::temp_directory_path() / "tarpit_bench_write";
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# Concurrent write path: MVCC snapshot reads + group-"
              "committed write batches\n");
  std::printf("# rows=%d ops/thread=%d openloop_ops=%d drift_ops=%d "
              "tiny=%d\n\n",
              kRows, kOpsPerThread, kOpenLoopOps, kDriftOps,
              TinyConfig() ? 1 : 0);

  // 1. Closed-loop 8-thread mixed 80/20 throughput. Best of 3 passes
  // per config: on a timesliced host a single pass can lose 2-3x to a
  // scheduler hiccup, and the quantity under test is each door's
  // capacity, not the host's worst moment.
  const auto ops = MakeMixedOps(/*threads=*/8, kOpsPerThread);
  const auto best_mixed = [&](ConcurrencyMode mode) {
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      best = std::max(best, RunMixedThroughput(base, mode, ops));
    }
    return best;
  };
  const double qps_exclusive = best_mixed(ConcurrencyMode::kGlobalLock);
  const double qps_mvcc = best_mixed(ConcurrencyMode::kSharded);
  const double speedup =
      qps_exclusive <= 0 ? 0.0 : qps_mvcc / qps_exclusive;
  std::printf("mixed 80/20 @8t: mvcc %.0f qps | exclusive-lock %.0f qps "
              "-> %.2fx (target >= 2.0x) %s\n",
              qps_mvcc, qps_exclusive, speedup,
              speedup >= 2.0 ? "PASS" : "FAIL");

  // 2. Open-loop (coordinated-omission-free) latency on the MVCC door.
  const bench::OpenLoopStats ol = RunOpenLoopMixed(base);
  std::printf("open-loop mixed @4t (intended-time latency): p50 %.0fus "
              "p99 %.0fus p999 %.0fus, achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);

  // 3. Charged-delay fidelity vs the serial oracle.
  const double drift = RunDrift(base);
  std::printf("update-delay drift vs serial oracle: %.6f%% (target <= "
              "0.01%%) %s\n",
              100.0 * drift, drift <= 1e-4 ? "PASS" : "FAIL");

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"write_path\",\n"
            "  \"tiny\": %s,\n"
            "  \"rows\": %d,\n"
            "  \"ops_per_thread\": %d,\n"
            "  \"qps_mvcc_8t\": %.1f,\n"
            "  \"qps_exclusive_8t\": %.1f,\n"
            "  \"write_speedup_8t\": %.3f,\n"
            "  \"speedup_pass\": %s,\n"
            "  \"openloop_p50_us\": %.1f,\n"
            "  \"openloop_p99_us\": %.1f,\n"
            "  \"openloop_p999_us\": %.1f,\n"
            "  \"openloop_achieved_qps\": %.1f,\n"
            "  \"delay_drift\": %.9f,\n"
            "  \"drift_pass\": %s\n"
            "}\n",
            TinyConfig() ? "true" : "false", kRows, kOpsPerThread,
            qps_mvcc, qps_exclusive, speedup,
            speedup >= 2.0 ? "true" : "false", ol.p50_us, ol.p99_us,
            ol.p999_us, ol.achieved_qps, drift,
            drift <= 1e-4 ? "true" : "false");
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return 0;
}
