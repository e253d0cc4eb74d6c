// Deterministic multi-thread tests for the sharded concurrent query
// path (ConcurrentProtectedDatabase + ConcurrentCountTracker).
//
// These tests are the primary ThreadSanitizer targets: run them with
// -DTARPIT_SANITIZE=thread. Long-running cases honor the
// TARPIT_STRESS_ITERS environment variable so sanitizer CI can shrink
// them (see tests/CMakeLists.txt and .github/workflows/ci.yml).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/popularity_delay.h"
#include "core/resource_governor.h"
#include "obs/metrics.h"
#include "registry_series.h"
#include "stats/concurrent_count_tracker.h"
#include "stats/count_tracker.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

/// Iteration budget for stress-ish loops: TARPIT_STRESS_ITERS caps the
/// default so sanitizer runs stay fast.
int StressIters(int default_iters) {
  const char* env = std::getenv("TARPIT_STRESS_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_concurrency_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    cdb_.reset();
    fs::remove_all(dir_);
  }

  void OpenDb(int rows, ProtectedDatabaseOptions opts,
              ConcurrentDatabaseOptions copts) {
    auto cdb =
        ConcurrentProtectedDatabase::Open(dir_.string(), "items", &clock_,
                                          opts, copts);
    ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();
    cdb_ = std::move(*cdb);
    ASSERT_TRUE(cdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    for (int i = 1; i <= rows; ++i) {
      ASSERT_TRUE(cdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
  }

  fs::path dir_;
  RealClock clock_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<ConcurrentProtectedDatabase> cdb_;
};

// k threads extracting disjoint partitions: each thread's accumulated
// delay must match a serial oracle replay of its own key sequence.
// With beta = 0 (delay depends only on the tuple's own count) and decay
// delta = 1.0 (order-independent counts), the sharded path is exact:
// a thread's own completed records are always visible to its own
// snapshot reads.
TEST_F(ConcurrencyTest, DisjointPartitionsMatchSerialOracle) {
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 50;
  const int passes = StressIters(30);
  ProtectedDatabaseOptions opts;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 0.25;
  opts.popularity.bounds = {0.0, 10.0};
  opts.decay_per_request = 1.0;
  ConcurrentDatabaseOptions copts;
  copts.num_shards = 8;
  copts.epoch_batch = 16;
  copts.serve_delays = false;  // Measure, don't stall.
  OpenDb(kThreads * kKeysPerThread, opts, copts);

  std::vector<double> per_thread_delay(kThreads, 0.0);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      double sum = 0.0;
      for (int p = 0; p < passes; ++p) {
        for (int i = 0; i < kKeysPerThread; ++i) {
          const int64_t key = 1 + t * kKeysPerThread + i;
          auto r = cdb_->GetByKey(key);
          if (!r.ok()) {
            ++errors;
            continue;
          }
          sum += r->delay_seconds;
        }
      }
      per_thread_delay[t] = sum;
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(errors.load(), 0);

  // Serial oracle: this thread's partition replayed alone. Disjoint
  // partitions + beta = 0 means other threads cannot perturb it.
  for (int t = 0; t < kThreads; ++t) {
    CountTracker oracle(kThreads * kKeysPerThread, 1.0);
    double expected = 0.0;
    for (int p = 0; p < passes; ++p) {
      for (int i = 0; i < kKeysPerThread; ++i) {
        const int64_t key = 1 + t * kKeysPerThread + i;
        oracle.Record(key);
        expected += PopularityDelayPolicy::DelayFromStats(
            oracle.Stats(key), opts.popularity);
      }
    }
    EXPECT_NEAR(per_thread_delay[t], expected, 1e-9 * expected + 1e-12)
        << "thread " << t;
  }

  // Accounting is exact across the fleet.
  const uint64_t total =
      static_cast<uint64_t>(kThreads) * kKeysPerThread * passes;
  EXPECT_EQ(cdb_->Metrics().total_requests, total);
}

// k threads hammering the same 16 hot keys: no counter update may be
// lost. total_requests is exact; per-key decayed counts stay within the
// epoch-staleness bound of a serial round-robin replay; the total
// decayed mass is permutation-invariant and therefore (near-)exact.
TEST_F(ConcurrencyTest, OverlappingHotKeysLoseNoUpdates) {
  constexpr int kThreads = 4;
  constexpr int kHotKeys = 16;
  const int iters = StressIters(2000);
  const double kDelta = 1.0001;

  CountTracker inner(1000, kDelta);
  ConcurrentCountTrackerOptions topts;
  topts.num_shards = 8;
  topts.epoch_batch = 32;
  ConcurrentCountTracker tracker(&inner, topts);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        tracker.Record(1 + (i * kThreads + t) % kHotKeys);
      }
    });
  }
  for (auto& th : threads) th.join();
  tracker.FlushAll();

  const uint64_t total = static_cast<uint64_t>(kThreads) * iters;
  EXPECT_EQ(tracker.total_requests(), total);
  EXPECT_EQ(tracker.pending_records(), 0u);
  EXPECT_EQ(tracker.distinct_seen(),
            static_cast<uint64_t>(std::min<int>(kHotKeys, kThreads * iters)));

  // Serial round-robin oracle over the same multiset.
  CountTracker oracle(1000, kDelta);
  for (int i = 0; i < iters; ++i) {
    for (int t = 0; t < kThreads; ++t) {
      oracle.Record(1 + (i * kThreads + t) % kHotKeys);
    }
  }
  ASSERT_EQ(oracle.total_requests(), total);

  // Total decayed mass depends only on the number of requests, not
  // their order: exact up to floating-point noise.
  const double mass = tracker.Stats(1).total_count;
  const double oracle_mass = oracle.Stats(1).total_count;
  EXPECT_NEAR(mass, oracle_mass, 1e-6 * oracle_mass);

  // Per-key counts: the multiset per key is exact (the mass check above
  // already fails if even one increment is lost -- a dropped update
  // shifts total mass by >= delta^-R, far above the 1e-6 tolerance).
  // The *decayed* per-key count depends on where the key's increments
  // landed in the global order; for any interleaving each increment
  // shifts by at most R positions, so got/want lies in
  // [delta^-R, delta^R]. Assert that rigorous envelope.
  const double span =
      std::pow(kDelta, static_cast<double>(total));  // delta^R
  for (int k = 1; k <= kHotKeys; ++k) {
    const double got = tracker.Count(k);
    const double want = oracle.Count(k);
    EXPECT_GT(got, 0.0) << "key " << k;
    EXPECT_GE(got, want / span * (1.0 - 1e-9)) << "key " << k;
    EXPECT_LE(got, want * span * (1.0 + 1e-9)) << "key " << k;
  }
}

// The spine defers all treap repositions past the epoch merge:
// rank-free reads return count-exact snapshots with rank/max_count
// unset, and rank-bearing Stats() calls take the spine exclusively to
// merge and fold the deferred work. The threaded phase races rank-free
// RecordAndStats against a rank-bearing reader -- the TSan matrix for
// the lock-kind branch -- and the final state must match a serial
// oracle exactly (decay 1.0 makes the replay order-independent,
// including ranks).
TEST_F(ConcurrencyTest, RankFreeSpineDefersTreapWorkSafely) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  const int iters = StressIters(2000);

  CountTracker inner(kKeys, 1.0);
  ConcurrentCountTrackerOptions topts;
  topts.num_shards = 8;
  topts.epoch_batch = 32;
  ConcurrentCountTracker tracker(&inner, topts);

  std::atomic<bool> stop{false};
  std::thread rank_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Exclusive-spine path: folds deferred index work mid-run.
      const PopularityStats s = tracker.Stats(7);
      EXPECT_GE(s.rank, 1u);  // Seen => treap rank; unseen => universe.
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        // Final counts tie across keys, which is fine: Rank is a pure
        // function of the final (count, key) multiset, so the oracle
        // comparison below is exact regardless of interleaving.
        const int64_t key = 1 + (i * kThreads + t) % kKeys;
        const PopularityStats s = tracker.RecordAndStats(key, false);
        EXPECT_GT(s.count, 0.0);
      }
    });
  }
  for (auto& th : recorders) th.join();
  stop.store(true, std::memory_order_relaxed);
  rank_reader.join();
  tracker.FlushAll();

  const uint64_t total = static_cast<uint64_t>(kThreads) * iters;
  EXPECT_EQ(tracker.total_requests(), total);
  EXPECT_EQ(tracker.pending_records(), 0u);

  // Serial oracle over the same multiset (order-independent at
  // decay 1.0, so any interleaving must land on these exact values).
  CountTracker oracle(kKeys, 1.0);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < iters; ++i) {
      oracle.Record(1 + (i * kThreads + t) % kKeys);
    }
  }
  for (int k = 1; k <= kKeys; ++k) {
    EXPECT_DOUBLE_EQ(tracker.Count(k), oracle.Count(k)) << "key " << k;
    // Rank-bearing read: deferred repositions fold here and must
    // reproduce the serial treap's answer.
    EXPECT_EQ(tracker.Stats(k).rank, oracle.Stats(k).rank) << "key " << k;
  }
}

// Destroying the database while sessions were just stalling must not
// deadlock: stalls are served outside every lock, so shutdown only has
// to wait for in-flight computation, never for sleeps it cannot cancel.
TEST_F(ConcurrencyTest, ShutdownWhileStallingDoesNotDeadlock) {
  constexpr int kThreads = 4;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1e9;            // Everything hits the cap.
  opts.popularity.bounds = {0.0, 0.02};   // 20 ms stall per retrieval.
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = true;
  OpenDb(64, opts, copts);

  RealClock wall;
  const int64_t start = wall.NowMicros();
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(17 * (t + 1));
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = cdb_->GetByKey(1 + static_cast<int64_t>(rng.Uniform(64)));
        if (!r.ok()) ++errors;
        ++completed;
      }
    });
  }
  // Let every thread get into (at least) one stall, then shut down.
  wall.SleepForMicros(100'000);
  stop.store(true);
  for (auto& th : threads) th.join();
  cdb_.reset();  // Destructor quiesces the stats spine.
  const double elapsed = (wall.NowMicros() - start) / 1e6;
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(completed.load(), kThreads);
  EXPECT_LT(elapsed, 10.0) << "shutdown stalled";
}

// unsafe_inner() misuse guard: the in-flight counter returns to zero
// once queries complete, and unsafe_inner() quiesces the stats spine so
// the inner tracker reflects every completed request. (Calling
// unsafe_inner() *during* a query trips a debug assert -- that path is
// exercised manually, not here, since death tests and threads mix
// poorly.)
TEST_F(ConcurrencyTest, UnsafeInnerGuardAndQuiesce) {
  constexpr int kThreads = 4;
  const int iters = StressIters(500);
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 0.0};
  ConcurrentDatabaseOptions copts;
  copts.epoch_batch = 64;
  copts.serve_delays = false;
  OpenDb(128, opts, copts);

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        auto r =
            cdb_->GetByKey(1 + (t * iters + i) % 128);
        if (!r.ok()) ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(errors.load(), 0);
  EXPECT_EQ(cdb_->in_flight_queries(), 0);
  // unsafe_inner() flushes pending epoch deltas: the single-threaded
  // tracker now holds the exact request count.
  EXPECT_EQ(cdb_->unsafe_inner()->access_tracker()->total_requests(),
            static_cast<uint64_t>(kThreads) * iters);
}

// Readers race a SQL writer: the row cache must never serve a value
// that storage no longer holds once the write is visible.
TEST_F(ConcurrencyTest, WritesInvalidateRowCache) {
  constexpr int kRows = 50;
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 0.0};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;
  copts.metrics = &metrics_;
  OpenDb(kRows, opts, copts);

  // Warm the cache.
  for (int k = 1; k <= kRows; ++k) {
    auto r = cdb_->GetByKey(k);
    ASSERT_TRUE(r.ok());
    ASSERT_DOUBLE_EQ(r->result.rows[0][1].AsDouble(), 1.0);
  }
  ASSERT_GT(SeriesValue(metrics_, "tarpit_row_cache_hits_total") +
                SeriesValue(metrics_, "tarpit_row_cache_misses_total"),
            0);

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(101 * (t + 1));
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(kRows));
        auto r = cdb_->GetByKey(key);
        if (!r.ok()) {
          ++errors;
          continue;
        }
        const double v = r->result.rows[0][1].AsDouble();
        if (v != 1.0 && v != 42.0) ++errors;  // Torn/stale value.
      }
    });
  }
  std::thread writer([&] {
    for (int k = 1; k <= kRows; ++k) {
      auto r = cdb_->ExecuteSql("UPDATE items SET v = 42.0 WHERE id = " +
                                std::to_string(k));
      if (!r.ok()) ++errors;
    }
    stop.store(true);
  });
  writer.join();
  for (auto& th : readers) th.join();
  ASSERT_EQ(errors.load(), 0);

  // Post-quiesce: every read must observe the written value.
  for (int k = 1; k <= kRows; ++k) {
    auto r = cdb_->GetByKey(k);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->result.rows[0][1].AsDouble(), 42.0) << "key " << k;
  }
}

// SQL SELECTs and striped point reads share one stats spine: the
// merged metrics count every access exactly once.
TEST_F(ConcurrencyTest, SqlAndPointReadsShareOneSpine) {
  constexpr int kThreads = 4;
  const int iters = StressIters(300);
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 0.0};
  ConcurrentDatabaseOptions copts;
  copts.epoch_batch = 8;
  copts.serve_delays = false;
  OpenDb(100, opts, copts);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        const int64_t key = 1 + (t * iters + i) % 100;
        if (t % 2 == 0) {
          auto r = cdb_->GetByKey(key);
          if (!r.ok() || r->result.rows.size() != 1) ++errors;
        } else {
          auto r = cdb_->ExecuteSql("SELECT * FROM items WHERE id = " +
                                    std::to_string(key));
          if (!r.ok() || r->result.rows.size() != 1) ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(errors.load(), 0);
  EXPECT_EQ(cdb_->Metrics().total_requests,
            static_cast<uint64_t>(kThreads) * iters);
}

// At beta != 0 every point read ranks after merging all pending
// accesses (the stats spine taken exclusively), and every SELECT
// merges before it charges. Eight threads mix both: afterwards the
// inner tracker must equal a serial replay of the same multiset
// (counts and ranks, exact at decay 1.0), and the door's accounting
// must equal the charges it returned.
TEST_F(ConcurrencyTest, RankBearingDoorMatchesSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kRows = 64;
  const int iters = StressIters(400);
  ProtectedDatabaseOptions opts;
  opts.popularity.beta = 0.3;
  opts.popularity.scale = 0.01;
  opts.popularity.bounds = {0.0, 10.0};
  opts.decay_per_request = 1.0;
  ConcurrentDatabaseOptions copts;
  copts.num_shards = 8;
  copts.epoch_batch = 16;
  copts.serve_delays = false;
  OpenDb(kRows, opts, copts);

  std::vector<std::vector<int64_t>> served(kThreads);
  std::vector<double> charged(kThreads, 0.0);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(977 * (t + 1));
      for (int i = 0; i < iters; ++i) {
        const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(kRows));
        auto r = rng.Uniform(4) == 0
                     ? cdb_->ExecuteSql("SELECT * FROM items WHERE id = " +
                                        std::to_string(key))
                     : cdb_->GetByKey(key);
        if (!r.ok() || r->result.rows.size() != 1) {
          ++errors;
          continue;
        }
        served[t].push_back(key);
        charged[t] += r->delay_seconds;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(errors.load(), 0);
  cdb_->QuiesceStats();
  double returned = 0.0;
  for (double c : charged) returned += c;
  EXPECT_NEAR(cdb_->Metrics().total_delay_seconds, returned,
              1e-9 * returned);

  CountTracker oracle(kRows, 1.0);
  for (const auto& keys : served) {
    for (int64_t key : keys) oracle.Record(key);
  }
  const CountTracker* inner = cdb_->unsafe_inner()->access_tracker();
  EXPECT_EQ(inner->total_requests(), oracle.total_requests());
  for (int64_t k = 1; k <= kRows; ++k) {
    EXPECT_DOUBLE_EQ(inner->Count(k), oracle.Count(k)) << "key " << k;
    EXPECT_EQ(inner->Stats(k).rank, oracle.Stats(k).rank) << "key " << k;
  }
}

// --- Async stall scheduling (the ISSUE 2 timer-wheel path). -------------

// A single caller submits far more stalling requests than the process
// has threads: they all park on the wheel simultaneously instead of
// each holding a thread for its stall.
TEST_F(ConcurrencyTest, AsyncStallsParkInsteadOfBlocking) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.05, 0.5};  // Every request stalls >=50ms.
  ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  OpenDb(64, opts, copts);

  const int n = StressIters(200);
  std::atomic<int> completed{0};
  std::atomic<int> errors{0};
  for (int i = 0; i < n; ++i) {
    cdb_->GetByKeyAsync(1 + i % 64, [&](Result<ProtectedResult> r) {
      if (!r.ok()) ++errors;
      ++completed;
    });
  }
  // Submission returned without serving any 50ms+ stall: more stalls
  // were parked at once than the scheduler has threads (its 1 driver).
  ASSERT_NE(cdb_->delay_scheduler(), nullptr);
  EXPECT_GT(cdb_->delay_scheduler()->peak_parked(), 1u);
  cdb_->delay_scheduler()->Drain();
  EXPECT_EQ(completed.load(), n);
  EXPECT_EQ(errors.load(), 0);
}

// The blocking API still works when async_stalls is on: it becomes a
// park-and-wait shim over the same wheel.
TEST_F(ConcurrencyTest, BlockingShimServesFullStallThroughWheel) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.scale = 1e9;           // Everything hits the cap.
  opts.popularity.bounds = {0.0, 0.02};  // 20ms stall.
  ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  OpenDb(8, opts, copts);

  const int64_t start = clock_.NowMicros();
  auto r = cdb_->GetByKey(3);
  const int64_t elapsed = clock_.NowMicros() - start;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->delay_seconds, 0.02);
  EXPECT_GE(elapsed, 20'000);  // The stall was really served.
}

// CancelSession completes every stall parked under the session token
// with Cancelled -- the tuple is withheld, not delivered early.
TEST_F(ConcurrencyTest, CancelSessionCancelsParkedStalls) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.scale = 1e12;
  opts.popularity.bounds = {3600.0, 3600.0};  // Hour-long stalls.
  ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  OpenDb(16, opts, copts);

  constexpr StallGroup kSession = 42;
  const int n = 10;
  std::atomic<int> cancelled{0};
  std::atomic<int> delivered{0};
  for (int i = 0; i < n; ++i) {
    cdb_->GetByKeyAsync(
        1 + i,
        [&](Result<ProtectedResult> r) {
          if (!r.ok() && r.status().IsCancelled()) {
            ++cancelled;
          } else {
            ++delivered;
          }
        },
        kSession);
  }
  EXPECT_EQ(cdb_->CancelSession(kSession), static_cast<size_t>(n));
  cdb_->delay_scheduler()->Drain();
  EXPECT_EQ(cancelled.load(), n);
  EXPECT_EQ(delivered.load(), 0);
  // The delays were still CHARGED at admit time -- cancellation never
  // refunds accounting (an evicted attacker keeps its history).
  EXPECT_EQ(cdb_->Metrics().total_requests, static_cast<uint64_t>(n));
}

// Destroying the database with hour-long stalls parked must not hang:
// the destructor shuts the scheduler down with kCancelPending and every
// outstanding completion fires (cancelled) before teardown proceeds.
TEST_F(ConcurrencyTest, ShutdownWithParkedStallsDrainsCleanly) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.scale = 1e12;
  opts.popularity.bounds = {3600.0, 3600.0};
  ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  OpenDb(16, opts, copts);

  const int n = 32;
  std::atomic<int> called{0};
  for (int i = 0; i < n; ++i) {
    cdb_->GetByKeyAsync(1 + i % 16, [&](Result<ProtectedResult> r) {
      EXPECT_TRUE(!r.ok() && r.status().IsCancelled());
      ++called;
    });
  }
  cdb_.reset();  // Must cancel all parked stalls and join.
  EXPECT_EQ(called.load(), n);
}

// ExecuteSqlAsync parks SELECT stalls the same way.
TEST_F(ConcurrencyTest, ExecuteSqlAsyncParksSelectStall) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.bounds = {0.01, 0.01};
  ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  OpenDb(8, opts, copts);

  std::atomic<bool> done{false};
  std::atomic<bool> ok{false};
  cdb_->ExecuteSqlAsync("SELECT * FROM items WHERE id = 5",
                        [&](Result<ProtectedResult> r) {
                          ok = r.ok() && r->result.rows.size() == 1;
                          done = true;
                        });
  cdb_->delay_scheduler()->Drain();
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(ok.load());
}

// ---------- Blocking / async parity ----------

ResourceGovernorOptions ParkBudget(uint64_t max_parked_stalls,
                                   obs::MetricRegistry* metrics) {
  ResourceGovernorOptions go;
  go.max_parked_stalls = max_parked_stalls;
  go.metrics = metrics;
  return go;
}

ProtectedDatabaseOptions ParityOptions(double min_s, double max_s) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.scale = 1e-4;
  opts.popularity.bounds = {min_s, max_s};
  return opts;
}

// The blocking entry points wait on the async completion, so with
// async_stalls off or on both kinds of entry point must agree on all a
// caller or an operator can see: rows, charge, Metrics(), the
// delay-charged histogram, and the Overloaded / Cancelled outcomes
// that keep the charge.
class DoorParityTest : public ::testing::TestWithParam<bool> {
 protected:
  struct Door {
    explicit Door(uint64_t max_parked)
        : governor(ParkBudget(max_parked, &registry)) {}

    int64_t ChargedSamples() {
      return registry
          .GetHistogram("tarpit_delay_charged_ns",
                        {{"policy", "access-popularity"}})
          ->Count();
    }

    obs::MetricRegistry registry;
    ResourceGovernor governor;
    std::unique_ptr<ConcurrentProtectedDatabase> db;
  };

  void SetUp() override {
    // Parameterized names read "Case/On"; keep the directory flat.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    base_ = fs::temp_directory_path() /
            ("tarpit_parity_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  std::unique_ptr<Door> OpenDoor(const std::string& name,
                                 ProtectedDatabaseOptions opts,
                                 uint64_t max_parked) {
    auto door = std::make_unique<Door>(max_parked);
    ConcurrentDatabaseOptions copts;
    copts.async_stalls = GetParam();
    copts.governor = &door->governor;
    copts.metrics = &door->registry;
    const fs::path dir = base_ / name;
    fs::create_directories(dir);
    auto db = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                &clock_, opts, copts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return nullptr;
    door->db = std::move(*db);
    EXPECT_TRUE(door->db
                    ->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    for (int i = 1; i <= 32; ++i) {
      EXPECT_TRUE(door->db
                      ->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(0.5 * i)})
                      .ok());
    }
    return door;
  }

  using Submit =
      std::function<void(ConcurrentProtectedDatabase::AsyncCompletion)>;

  /// Runs one request through an async entry point and waits for it.
  static Result<ProtectedResult> Await(const Submit& submit) {
    std::promise<Result<ProtectedResult>> promise;
    std::future<Result<ProtectedResult>> future = promise.get_future();
    submit([&promise](Result<ProtectedResult> r) {
      promise.set_value(std::move(r));
    });
    return future.get();
  }

  fs::path base_;
  RealClock clock_;
};

void ExpectSameMetrics(ConcurrentProtectedDatabase* a,
                       ConcurrentProtectedDatabase* b) {
  const ProtectedDatabaseMetrics ma = a->Metrics();
  const ProtectedDatabaseMetrics mb = b->Metrics();
  EXPECT_EQ(ma.total_requests, mb.total_requests);
  EXPECT_EQ(ma.delays_charged, mb.delays_charged);
  EXPECT_DOUBLE_EQ(ma.total_delay_seconds, mb.total_delay_seconds);
  EXPECT_DOUBLE_EQ(ma.median_delay_seconds, mb.median_delay_seconds);
  EXPECT_DOUBLE_EQ(ma.p99_delay_seconds, mb.p99_delay_seconds);
}

TEST_P(DoorParityTest, BlockingAndAsyncServeAndChargeAlike) {
  // Millisecond-scale stalls: really served, never long.
  auto blocking = OpenDoor("blocking", ParityOptions(0.0, 0.002), 1);
  auto async = OpenDoor("async", ParityOptions(0.0, 0.002), 1);
  ASSERT_NE(blocking, nullptr);
  ASSERT_NE(async, nullptr);
  ConcurrentProtectedDatabase* a = blocking->db.get();
  ConcurrentProtectedDatabase* b = async->db.get();

  Rng rng(7);
  for (int i = 0; i < 48; ++i) {
    SCOPED_TRACE(i);
    // Keys past 32 miss: NotFound through both entry points.
    const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(40));
    Result<ProtectedResult> ra = Status::Internal("unset");
    Result<ProtectedResult> rb = Status::Internal("unset");
    if (i % 3 == 0) {
      ra = a->GetByKey(key);
      rb = Await([&](auto done) { b->GetByKeyAsync(key, done); });
    } else {
      // A pk SELECT, or a pk UPDATE (the MVCC write path, uncharged).
      const std::string sql =
          i % 3 == 1 ? "SELECT * FROM items WHERE id = " + std::to_string(key)
                     : "UPDATE items SET v = " + std::to_string(i) +
                           ".5 WHERE id = " + std::to_string(key);
      ra = a->ExecuteSql(sql);
      rb = Await([&](auto done) { b->ExecuteSqlAsync(sql, done); });
    }
    ASSERT_EQ(ra.status().code(), rb.status().code())
        << ra.status().ToString() << " vs " << rb.status().ToString();
    if (!ra.ok()) continue;
    EXPECT_EQ(ra->delay_seconds, rb->delay_seconds);
    EXPECT_EQ(ra->result.rows, rb->result.rows);
    EXPECT_EQ(ra->result.touched_keys, rb->result.touched_keys);
  }
  ExpectSameMetrics(a, b);
  EXPECT_GT(a->Metrics().delays_charged, 0u);
  EXPECT_EQ(blocking->ChargedSamples(), async->ChargedSamples());

  // A governor at capacity sheds both kinds of entry point alike,
  // AFTER the charge: it stays in Metrics() and in the histogram.
  ASSERT_TRUE(blocking->governor.AdmitStall(0).ok());
  ASSERT_TRUE(async->governor.AdmitStall(0).ok());
  const ProtectedDatabaseMetrics before = a->Metrics();
  const int64_t samples_before = blocking->ChargedSamples();
  const std::string sql = "SELECT * FROM items WHERE id = 9";
  EXPECT_TRUE(a->GetByKey(8).status().IsOverloaded());
  EXPECT_TRUE(Await([&](auto done) { b->GetByKeyAsync(8, done); })
                  .status()
                  .IsOverloaded());
  EXPECT_TRUE(a->ExecuteSql(sql).status().IsOverloaded());
  EXPECT_TRUE(Await([&](auto done) { b->ExecuteSqlAsync(sql, done); })
                  .status()
                  .IsOverloaded());
  const ProtectedDatabaseMetrics after = a->Metrics();
  EXPECT_EQ(after.total_requests, before.total_requests + 2);
  EXPECT_GT(after.total_delay_seconds, before.total_delay_seconds);
  EXPECT_EQ(blocking->ChargedSamples(), samples_before + 2);
  ExpectSameMetrics(a, b);
  EXPECT_EQ(blocking->ChargedSamples(), async->ChargedSamples());
  EXPECT_EQ(blocking->registry.Snapshot().Total("tarpit_governor_shed_total"),
            2);
  EXPECT_EQ(async->registry.Snapshot().Total("tarpit_governor_shed_total"), 2);
  blocking->governor.ReleaseStall(0);
  async->governor.ReleaseStall(0);
  EXPECT_EQ(blocking->governor.parked_stalls(), 0u);
  EXPECT_EQ(async->governor.parked_stalls(), 0u);
}

TEST_P(DoorParityTest, ShutdownCancelKeepsTheCharge) {
  if (!GetParam()) {
    GTEST_SKIP() << "without async_stalls stalls are slept inline: "
                    "nothing parks, so shutdown has nothing to cancel";
  }
  // Hour-long stalls: only the shutdown ends them.
  auto door = OpenDoor("cancel", ParityOptions(3600.0, 3600.0), 4);
  ASSERT_NE(door, nullptr);
  ConcurrentProtectedDatabase* db = door->db.get();
  const ProtectedDatabaseMetrics before = db->Metrics();
  const int64_t samples_before = door->ChargedSamples();

  Result<ProtectedResult> blocking_get = Status::Internal("unset");
  Result<ProtectedResult> blocking_sql = Status::Internal("unset");
  std::thread get_thread([&] { blocking_get = db->GetByKey(3); });
  std::thread sql_thread([&] {
    blocking_sql = db->ExecuteSql("SELECT * FROM items WHERE id = 4");
  });
  std::promise<Result<ProtectedResult>> async_get, async_sql;
  db->GetByKeyAsync(5, [&](Result<ProtectedResult> r) {
    async_get.set_value(std::move(r));
  });
  db->ExecuteSqlAsync("SELECT * FROM items WHERE id = 6",
                      [&](Result<ProtectedResult> r) {
                        async_sql.set_value(std::move(r));
                      });
  while (db->delay_scheduler()->parked() < 4) std::this_thread::yield();
  // Charged at compute time, before anything was served.
  const ProtectedDatabaseMetrics parked = db->Metrics();
  EXPECT_EQ(parked.total_requests, before.total_requests + 4);
  EXPECT_GE(parked.total_delay_seconds,
            before.total_delay_seconds + 4 * 3600.0);

  db->delay_scheduler()->Shutdown(DelayScheduler::ShutdownMode::kCancelPending);
  get_thread.join();
  sql_thread.join();
  EXPECT_TRUE(blocking_get.status().IsCancelled())
      << blocking_get.status().ToString();
  EXPECT_TRUE(blocking_sql.status().IsCancelled())
      << blocking_sql.status().ToString();
  EXPECT_TRUE(async_get.get_future().get().status().IsCancelled());
  EXPECT_TRUE(async_sql.get_future().get().status().IsCancelled());

  // Cancellation cuts the serving short, not the bill.
  const ProtectedDatabaseMetrics after = db->Metrics();
  EXPECT_EQ(after.total_requests, parked.total_requests);
  EXPECT_DOUBLE_EQ(after.total_delay_seconds, parked.total_delay_seconds);
  EXPECT_EQ(door->ChargedSamples(), samples_before + 4);
  EXPECT_EQ(door->registry.GetCounter("tarpit_db_cancelled_total")->Value(),
            4);
  EXPECT_EQ(door->governor.parked_stalls(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AsyncStalls, DoorParityTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "On" : "Off");
                         });

}  // namespace
}  // namespace tarpit
