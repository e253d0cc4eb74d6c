// MVCC write-path tests (ISSUE 7): epoch manager + version store
// primitives, snapshot isolation through the concurrent front door,
// clock-driven deterministic reclamation, WAL convergence, and the
// 8-thread 80/20 read/write storm.
//
// The storm and the drain interplay are ThreadSanitizer targets: run
// with -DTARPIT_SANITIZE=thread. Long loops honor TARPIT_STRESS_ITERS.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "obs/metrics.h"
#include "registry_series.h"
#include "stats/count_tracker.h"
#include "storage/mvcc.h"

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

constexpr const char* kInstalled = "tarpit_mvcc_versions_installed_total";
constexpr const char* kApplied = "tarpit_mvcc_versions_applied_total";
constexpr const char* kReclaimed = "tarpit_mvcc_versions_reclaimed_total";

/// Binds `vs`'s counters under the series names the front door uses.
void BindVersionMetrics(VersionStore* vs, obs::MetricRegistry* metrics) {
  vs->BindMetrics(metrics->GetCounter(kInstalled),
                  metrics->GetCounter(kApplied),
                  metrics->GetCounter(kReclaimed));
}

// ---------------------------------------------------------------------
// EpochManager / VersionStore unit tests (no database).
// ---------------------------------------------------------------------

TEST(EpochManagerTest, PinPublishAndLowerBound) {
  EpochManager em(4);
  obs::MetricRegistry metrics;
  em.BindMetrics(metrics.GetCounter("tarpit_mvcc_snapshot_pins_total"));
  EXPECT_EQ(em.current(), 1u);
  EXPECT_EQ(em.MinActiveLowerBound(), 1u);  // Nothing pinned.

  EpochManager::Snapshot old_pin = em.Pin();
  EXPECT_EQ(old_pin.epoch(), 1u);
  EXPECT_TRUE(old_pin.valid());
  EXPECT_EQ(em.MinActiveLowerBound(), 1u);

  em.Publish(2);
  EXPECT_EQ(em.current(), 2u);
  EpochManager::Snapshot new_pin = em.Pin();
  EXPECT_EQ(new_pin.epoch(), 2u);
  // The stale pin still holds the bound down.
  EXPECT_EQ(em.MinActiveLowerBound(), 1u);

  old_pin.Release();
  EXPECT_FALSE(old_pin.valid());
  EXPECT_EQ(em.MinActiveLowerBound(), 2u);
  new_pin.Release();
  EXPECT_EQ(em.MinActiveLowerBound(), 2u);  // Back to current().
  EXPECT_EQ(SeriesValue(metrics, "tarpit_mvcc_snapshot_pins_total"), 2);
}

TEST(EpochManagerTest, MoveTransfersThePin) {
  EpochManager em(2);
  EpochManager::Snapshot a = em.Pin();
  EpochManager::Snapshot b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(em.MinActiveLowerBound(), 1u);
  b.Release();
  EXPECT_EQ(em.MinActiveLowerBound(), 1u);
}

TEST(VersionStoreTest, SnapshotVisibilityAndTombstones) {
  VersionStore vs(4);
  obs::MetricRegistry metrics;
  BindVersionMetrics(&vs, &metrics);
  vs.Install(7, /*begin=*/2, /*tombstone=*/false,
             {Value(int64_t{7}), Value(2.5)});
  vs.Install(7, /*begin=*/4, /*tombstone=*/true, {});
  EXPECT_EQ(SeriesValue(metrics, kInstalled), 2);
  EXPECT_EQ(vs.live_versions(), 2u);

  Row out;
  // A snapshot older than every version falls through to base.
  EXPECT_EQ(vs.Lookup(7, 1, &out), VersionLookup::kMiss);
  // Snapshots 2 and 3 see the row image; 4+ see the delete.
  ASSERT_EQ(vs.Lookup(7, 2, &out), VersionLookup::kRow);
  EXPECT_DOUBLE_EQ(out[1].AsDouble(), 2.5);
  EXPECT_EQ(vs.Lookup(7, 3, &out), VersionLookup::kRow);
  EXPECT_EQ(vs.Lookup(7, 4, &out), VersionLookup::kTombstone);
  EXPECT_EQ(vs.Head(7, &out), VersionLookup::kTombstone);
  // Unknown keys are a miss at any snapshot.
  EXPECT_EQ(vs.Lookup(8, 99, &out), VersionLookup::kMiss);
}

TEST(VersionStoreTest, ReclaimAppliesNewestAndUnlinksSuperseded) {
  VersionStore vs(4);
  obs::MetricRegistry metrics;
  BindVersionMetrics(&vs, &metrics);
  // Key 1 is written twice before the boundary: the reclaimer must
  // apply only the newest image but unlink both versions.
  vs.Install(1, 2, false, {Value(int64_t{1}), Value(1.0)});
  vs.Install(1, 3, false, {Value(int64_t{1}), Value(2.0)});
  vs.Install(2, 3, true, {});
  vs.Install(3, 5, false, {Value(int64_t{3}), Value(3.0)});

  std::vector<std::pair<int64_t, double>> applied_rows;
  std::vector<int64_t> applied_tombstones;
  auto apply = [&](int64_t key, bool tombstone, const Row& row) {
    if (tombstone) {
      applied_tombstones.push_back(key);
    } else {
      applied_rows.emplace_back(key, row[1].AsDouble());
    }
    return Status::OK();
  };

  ASSERT_TRUE(vs.Reclaim(/*boundary=*/3, apply).ok());
  ASSERT_EQ(applied_rows.size(), 1u);
  EXPECT_EQ(applied_rows[0].first, 1);
  EXPECT_DOUBLE_EQ(applied_rows[0].second, 2.0);  // Newest, not first.
  ASSERT_EQ(applied_tombstones.size(), 1u);
  EXPECT_EQ(applied_tombstones[0], 2);
  // 3 versions unlinked (two for key 1, one for key 2), 2 applied.
  EXPECT_EQ(SeriesValue(metrics, kReclaimed), 3);
  EXPECT_EQ(SeriesValue(metrics, kApplied), 2);
  EXPECT_EQ(vs.live_versions(), 1u);  // Key 3 at epoch 5 survives.
  Row out;
  EXPECT_EQ(vs.Lookup(1, 10, &out), VersionLookup::kMiss);
  EXPECT_EQ(vs.Lookup(3, 5, &out), VersionLookup::kRow);

  ASSERT_TRUE(vs.Reclaim(/*boundary=*/5, apply).ok());
  EXPECT_EQ(vs.live_versions(), 0u);
  EXPECT_EQ(SeriesValue(metrics, kInstalled),
            SeriesValue(metrics, kReclaimed));  // Exactness: nothing lost
                                                // or double-counted once
                                                // fully drained.
  EXPECT_LE(SeriesValue(metrics, kApplied), SeriesValue(metrics, kReclaimed));
}

// ---------------------------------------------------------------------
// Through the front door.
// ---------------------------------------------------------------------

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_mvcc_" +
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
    fs::remove_all(dir_.string() + "_oracle");
  }

  void OpenDb(int rows, ProtectedDatabaseOptions opts,
              ConcurrentDatabaseOptions copts, Clock* clock = nullptr) {
    if (clock == nullptr) clock = &clock_;
    copts.mode = ConcurrencyMode::kSharded;
    copts.serve_delays = false;
    copts.metrics = &metrics_;
    auto cdb = ConcurrentProtectedDatabase::Open(dir_.string(), "items",
                                                 clock, opts, copts);
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

  double MustGet(int64_t key) {
    auto r = cdb_->GetByKey(key);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return -1.0;
    return r->result.rows.at(0).at(1).AsDouble();
  }

  int64_t Series(std::string_view name) const {
    return SeriesValue(metrics_, name);
  }

  fs::path dir_;
  RealClock clock_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<ConcurrentProtectedDatabase> cdb_;
};

// Eligible DML lowers to version-store commits; point reads resolve
// through the chains (read-your-writes) without any reclaim having run.
TEST_F(MvccTest, DmlLowersToVersionStoreAndReadsResolveThroughChains) {
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.mvcc_reclaim_every_commits = 0;  // Only drains fold versions.
  OpenDb(16, opts, copts);
  const int64_t setup_fences =
      Series("tarpit_mvcc_ddl_fences_total");  // CREATE TABLE.

  ASSERT_TRUE(
      cdb_->ExecuteSql("UPDATE items SET v = 2.5 WHERE id = 7").ok());
  ASSERT_TRUE(cdb_->ExecuteSql("DELETE FROM items WHERE id = 8").ok());
  ASSERT_TRUE(
      cdb_->ExecuteSql("INSERT INTO items VALUES (100, 4.0)").ok());

  EXPECT_EQ(cdb_->mvcc_commits(), 3u);
  EXPECT_GE(Series("tarpit_write_batches_total"), 1);
  EXPECT_EQ(Series("tarpit_mvcc_ddl_fences_total"),
            setup_fences);  // Lowered DML: no fence.
  ASSERT_NE(cdb_->version_store(), nullptr);
  EXPECT_EQ(cdb_->version_store()->live_versions(), 3u);
  EXPECT_EQ(cdb_->epoch_manager()->current(), 4u);  // 1 + 3 commits.

  // Reads are served from the chains: nothing has been reclaimed.
  EXPECT_DOUBLE_EQ(MustGet(7), 2.5);
  EXPECT_DOUBLE_EQ(MustGet(100), 4.0);
  auto gone = cdb_->GetByKey(8);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(Series(kApplied), 0);
  EXPECT_EQ(cdb_->logical_rows(), 16u);  // 16 - 1 delete + 1 insert.

  // Partial-prefix persistence mirrors the serial executor: the first
  // row of a multi-row INSERT commits even though the second errors.
  auto dup = cdb_->ExecuteSql("INSERT INTO items VALUES (200, 9.0), "
                              "(3, 9.0)");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().ToString().find("duplicate key 3"),
            std::string::npos)
      << dup.status().ToString();
  EXPECT_DOUBLE_EQ(MustGet(200), 9.0);
  EXPECT_DOUBLE_EQ(MustGet(3), 1.0);
  EXPECT_EQ(cdb_->logical_rows(), 17u);
}

// The tentpole isolation guarantee: a snapshot pinned before a commit
// never sees it, while later snapshots do.
TEST_F(MvccTest, SnapshotPinnedBeforeCommitNeverSeesIt) {
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.mvcc_reclaim_every_commits = 0;
  OpenDb(8, opts, copts);

  EpochManager::Snapshot before = cdb_->epoch_manager()->Pin();
  ASSERT_TRUE(
      cdb_->ExecuteSql("UPDATE items SET v = 9.0 WHERE id = 5").ok());

  Row out;
  // The old snapshot misses the chain (falls through to base state,
  // which the reclaimer cannot have advanced past it).
  EXPECT_EQ(cdb_->version_store()->Lookup(5, before.epoch(), &out),
            VersionLookup::kMiss);
  // A snapshot taken after the publish sees the new image.
  EpochManager::Snapshot after = cdb_->epoch_manager()->Pin();
  ASSERT_EQ(cdb_->version_store()->Lookup(5, after.epoch(), &out),
            VersionLookup::kRow);
  EXPECT_DOUBLE_EQ(out[1].AsDouble(), 9.0);
  after.Release();
  before.Release();
  EXPECT_DOUBLE_EQ(MustGet(5), 9.0);
}

// Ineligible statements (here: DDL and a range-predicate UPDATE) take
// the exclusive fallback behind a version-store fence, so they always
// observe exact base state.
TEST_F(MvccTest, ExclusiveFallbackFencesTheVersionStore) {
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.mvcc_reclaim_every_commits = 0;
  OpenDb(8, opts, copts);

  ASSERT_TRUE(
      cdb_->ExecuteSql("UPDATE items SET v = 2.0 WHERE id = 1").ok());
  ASSERT_TRUE(cdb_->ExecuteSql("DELETE FROM items WHERE id = 2").ok());
  ASSERT_EQ(cdb_->version_store()->live_versions(), 2u);

  // Range-predicate UPDATE cannot lower (no pk equality): it must
  // fence, then see the MVCC delete (key 2 gets no new value).
  auto range = cdb_->ExecuteSql(
      "UPDATE items SET v = 7.0 WHERE id >= 1 AND id <= 3");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->result.affected, 2u);  // Keys 1 and 3 only.
  EXPECT_GE(Series("tarpit_mvcc_ddl_fences_total"), 1);
  EXPECT_EQ(cdb_->version_store()->live_versions(), 0u);
  EXPECT_DOUBLE_EQ(MustGet(1), 7.0);
  EXPECT_FALSE(cdb_->GetByKey(2).ok());

  // DDL also fences (exercised again, with versions pending).
  ASSERT_TRUE(
      cdb_->ExecuteSql("UPDATE items SET v = 8.0 WHERE id = 4").ok());
  const int64_t fences_before = Series("tarpit_mvcc_ddl_fences_total");
  ASSERT_TRUE(
      cdb_->ExecuteSql("CREATE TABLE side (id INT PRIMARY KEY)").ok());
  EXPECT_GT(Series("tarpit_mvcc_ddl_fences_total"), fences_before);
  EXPECT_EQ(cdb_->version_store()->live_versions(), 0u);
  EXPECT_DOUBLE_EQ(MustGet(4), 8.0);
}

// Commits are durable from the WAL alone: versions never reclaimed
// into base pages replay on reopen (the commit-time logging split).
TEST_F(MvccTest, CommitsSurviveReopenWithoutReclaim) {
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.mvcc_reclaim_every_commits = 0;
  OpenDb(8, opts, copts);
  ASSERT_TRUE(cdb_->Checkpoint().ok());  // Base durable, WAL empty.

  ASSERT_TRUE(
      cdb_->ExecuteSql("UPDATE items SET v = 42.0 WHERE id = 3").ok());
  ASSERT_TRUE(cdb_->ExecuteSql("DELETE FROM items WHERE id = 4").ok());
  ASSERT_TRUE(
      cdb_->ExecuteSql("INSERT INTO items VALUES (99, 5.5)").ok());
  cdb_.reset();  // No checkpoint: the WAL is the only trace.

  ProtectedDatabaseOptions ropts;
  ropts.mode = DelayMode::kNone;
  auto reopened =
      ProtectedDatabase::Open(dir_.string(), "items", &clock_, ropts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& pdb = *reopened;
  auto hot = pdb->GetByKey(3);
  ASSERT_TRUE(hot.ok());
  EXPECT_DOUBLE_EQ(hot->result.rows.at(0).at(1).AsDouble(), 42.0);
  EXPECT_FALSE(pdb->GetByKey(4).ok());
  auto fresh = pdb->GetByKey(99);
  ASSERT_TRUE(fresh.ok());
  EXPECT_DOUBLE_EQ(fresh->result.rows.at(0).at(1).AsDouble(), 5.5);
  EXPECT_EQ(pdb->table()->NumRows(), 8u);
}

// Satellite 6 cousin at the tracker level: the concurrent write path's
// bookkeeping must be indistinguishable from the serial door given the
// same statement sequence (update-rate mode reads it directly).
TEST_F(MvccTest, UpdateAccountingMatchesSerialOracle) {
  VirtualClock vclock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kUpdateRate;
  opts.update.c = 1.0;
  opts.update.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.mvcc_reclaim_every_commits = 4;  // Reclaim mid-sequence.
  OpenDb(16, opts, copts, &vclock);

  const fs::path oracle_dir = dir_.string() + "_oracle";
  fs::create_directories(oracle_dir);
  auto oracle_open = ProtectedDatabase::Open(oracle_dir.string(), "items",
                                             &vclock, opts);
  ASSERT_TRUE(oracle_open.ok()) << oracle_open.status().ToString();
  auto& oracle = *oracle_open;
  ASSERT_TRUE(oracle
                  ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  for (int i = 1; i <= 16; ++i) {
    ASSERT_TRUE(
        oracle->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
            .ok());
  }

  vclock.AdvanceToMicros(1'000'000);  // 1s of history for the rates.
  std::vector<std::string> statements;
  for (int i = 0; i < 40; ++i) {
    const int64_t key = 1 + (i * 7) % 16;
    statements.push_back("UPDATE items SET v = " + std::to_string(i) +
                         ".0 WHERE id = " + std::to_string(key));
    if (i % 10 == 4) {
      statements.push_back("INSERT INTO items VALUES (" +
                           std::to_string(100 + i) + ", 1.0)");
    }
  }
  statements.push_back("DELETE FROM items WHERE id = 2");
  statements.push_back("DELETE FROM items WHERE id = 9");
  statements.push_back("INSERT INTO items VALUES (2, 3.0)");
  for (const std::string& sql : statements) {
    auto a = cdb_->ExecuteSql(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    auto b = oracle->ExecuteSql(sql);
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
  }

  cdb_->QuiesceStats();
  ProtectedDatabase* inner = cdb_->unsafe_inner();
  UpdateTracker* mine = inner->update_tracker();
  UpdateTracker* theirs = oracle->update_tracker();
  ASSERT_NE(mine, nullptr);
  ASSERT_NE(theirs, nullptr);
  EXPECT_EQ(mine->total_requests(), theirs->total_requests());
  EXPECT_EQ(mine->universe_size(), theirs->universe_size());
  EXPECT_EQ(mine->distinct_seen(), theirs->distinct_seen());
  for (int64_t key = 1; key <= 140; ++key) {
    const PopularityStats a = mine->Stats(key);
    const PopularityStats b = theirs->Stats(key);
    EXPECT_DOUBLE_EQ(a.count, b.count) << "key " << key;
    EXPECT_EQ(a.rank, b.rank) << "key " << key;
    EXPECT_DOUBLE_EQ(inner->PeekDelay(key), oracle->PeekDelay(key))
        << "key " << key;
  }
  EXPECT_EQ(cdb_->logical_rows(), oracle->table()->NumRows());
}

// Satellite 3: the 8-thread 80/20 read/write storm. Writers are
// idempotent per key (everyone writes v = 2*key), so the post-quiesce
// state is exactly checkable; occasional SELECTs force drain barriers
// against live pins and commits.
TEST_F(MvccTest, MixedReadWriteStorm8Threads) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 128;
  const int iters = StressIters(1500);
  ProtectedDatabaseOptions opts;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 0.25;
  opts.popularity.bounds = {0.0, 10.0};
  opts.decay_per_request = 1.0;
  ConcurrentDatabaseOptions copts;
  copts.num_shards = 8;
  copts.epoch_batch = 16;
  copts.mvcc_reclaim_every_commits = 32;
  OpenDb(kKeys, opts, copts);

  std::vector<std::atomic<bool>> updated(kKeys + 1);
  for (auto& u : updated) u.store(false);
  std::atomic<int> errors{0};
  std::atomic<uint64_t> successful_writes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xC0FFEEu + 131u * static_cast<uint64_t>(t));
      for (int i = 0; i < iters; ++i) {
        const int64_t key =
            1 + static_cast<int64_t>(rng.Uniform(kKeys));
        const uint64_t dice = rng.Uniform(100);
        if (dice < 80) {
          if (!cdb_->GetByKey(key).ok()) ++errors;
        } else if (dice < 95) {
          auto r = cdb_->ExecuteSql(
              "UPDATE items SET v = " + std::to_string(2 * key) +
              ".0 WHERE id = " + std::to_string(key));
          if (r.ok()) {
            updated[key].store(true, std::memory_order_relaxed);
            successful_writes.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++errors;
          }
        } else {
          // SELECT: drains the store, then scans exact base state.
          if (!cdb_->ExecuteSql("SELECT * FROM items WHERE id = " +
                                std::to_string(key))
                   .ok()) {
            ++errors;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(errors.load(), 0);

  ASSERT_TRUE(cdb_->Checkpoint().ok());  // Drains + surfaces deferred
                                         // reclaim failures.
  EXPECT_EQ(cdb_->mvcc_commits(), successful_writes.load());
  const VersionStore* vs = cdb_->version_store();
  EXPECT_EQ(vs->live_versions(), 0u);
  EXPECT_EQ(Series(kInstalled), Series(kReclaimed));
  EXPECT_LE(Series(kApplied), Series(kReclaimed));
  EXPECT_EQ(cdb_->logical_rows(), static_cast<uint64_t>(kKeys));

  for (int64_t key = 1; key <= kKeys; ++key) {
    const double expected = updated[key].load() ? 2.0 * key : 1.0;
    EXPECT_DOUBLE_EQ(MustGet(key), expected) << "key " << key;
  }
  EXPECT_EQ(cdb_->unsafe_inner()->table()->NumRows(),
            static_cast<uint64_t>(kKeys));
}

}  // namespace
}  // namespace tarpit
