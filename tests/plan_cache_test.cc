// Plan cache correctness: DDL invalidation, schema-version mismatch
// handling, and template-vs-literal equivalence (cached compilations
// must return exactly what a fresh parse + plan + execute would).

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "obs/metrics.h"
#include "registry_series.h"
#include "sql/plan_cache.h"
#include "storage/database.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_plan_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Result<std::unique_ptr<Database>> db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }
  void TearDown() override {
    db_.reset();
    fs::remove_all(dir_);
  }

  void CreateItems() {
    Schema schema({{"id", ColumnType::kInt64},
                   {"name", ColumnType::kString},
                   {"v", ColumnType::kDouble}});
    Result<Table*> t = db_->CreateTable("items", schema, "id");
    ASSERT_TRUE(t.ok()) << t.status().ToString();
  }

  int64_t Hits() const {
    return SeriesValue(metrics_, "tarpit_plan_cache_hits_total");
  }
  int64_t Misses() const {
    return SeriesValue(metrics_, "tarpit_plan_cache_misses_total");
  }
  int64_t Evictions() const {
    return SeriesValue(metrics_, "tarpit_plan_cache_evictions_total");
  }

  fs::path dir_;
  std::unique_ptr<Database> db_;
  obs::MetricRegistry metrics_;
};

TEST_F(PlanCacheTest, HitReturnsSamePreparedStatement) {
  CreateItems();
  PlanCache cache(64, db_.get());
  cache.BindMetrics(&metrics_, {});
  auto first = cache.Get("SELECT * FROM items WHERE id = 5");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.Get("SELECT * FROM items WHERE id = 5");
  ASSERT_TRUE(second.ok());
  // Same compilation object: hits share, not re-parse.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(Hits(), 1);
  EXPECT_EQ(Misses(), 1);
  EXPECT_TRUE((*first)->has_select_plan);
  EXPECT_EQ((*first)->select_plan.kind, AccessPathKind::kPointLookup);
  EXPECT_EQ((*first)->select_plan.point_key, 5);
  EXPECT_TRUE((*first)->select_plan.fully_absorbed);
}

TEST_F(PlanCacheTest, DistinctLiteralsAreDistinctEntries) {
  CreateItems();
  PlanCache cache(64, db_.get());
  cache.BindMetrics(&metrics_, {});
  auto a = cache.Get("SELECT * FROM items WHERE id = 5");
  auto b = cache.Get("SELECT * FROM items WHERE id = 7");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Text-keyed: a cached plan for one literal must never serve
  // another.
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ((*a)->select_plan.point_key, 5);
  EXPECT_EQ((*b)->select_plan.point_key, 7);
  EXPECT_EQ(Misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(PlanCacheTest, SchemaVersionMismatchRecompiles) {
  CreateItems();
  PlanCache cache(64, db_.get());
  cache.BindMetrics(&metrics_, {});
  auto before = cache.Get("SELECT * FROM items WHERE name = 'x'");
  ASSERT_TRUE(before.ok());
  // No index on `name` yet: full scan.
  EXPECT_EQ((*before)->select_plan.kind, AccessPathKind::kFullScan);
  const uint64_t v0 = (*before)->schema_version;

  // DDL bumps the version; the cached entry must be treated as a miss
  // even though the text matches and Invalidate() was never called.
  ASSERT_TRUE(db_->CreateIndex("items", "name").ok());
  EXPECT_GT(db_->schema_version(), v0);

  auto after = cache.Get("SELECT * FROM items WHERE name = 'x'");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  EXPECT_EQ((*after)->schema_version, db_->schema_version());
  // The recompiled plan sees the new index.
  EXPECT_EQ((*after)->select_plan.kind,
            AccessPathKind::kSecondaryLookup);
  EXPECT_EQ(Misses(), 2);
  EXPECT_EQ(Hits(), 0);
}

TEST_F(PlanCacheTest, InvalidateDropsEverything) {
  CreateItems();
  PlanCache cache(64, db_.get());
  cache.BindMetrics(&metrics_, {});
  ASSERT_TRUE(cache.Get("SELECT * FROM items WHERE id = 1").ok());
  ASSERT_TRUE(cache.Get("SELECT * FROM items WHERE id = 2").ok());
  EXPECT_EQ(cache.size(), 2u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Get("SELECT * FROM items WHERE id = 1").ok());
  EXPECT_EQ(Misses(), 3);
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsed) {
  CreateItems();
  // Capacity 8 over 8 stripes = 1 entry per stripe: the second
  // statement landing on a stripe evicts the first.
  PlanCache cache(8, db_.get());
  cache.BindMetrics(&metrics_, {});
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cache
                    .Get("SELECT * FROM items WHERE id = " +
                         std::to_string(i))
                    .ok());
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(Evictions(), 0);
}

TEST_F(PlanCacheTest, ParseErrorsAreNotCached) {
  CreateItems();
  PlanCache cache(64, db_.get());
  cache.BindMetrics(&metrics_, {});
  EXPECT_FALSE(cache.Get("SELEKT garbage").ok());
  EXPECT_FALSE(cache.Get("SELEKT garbage").ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(Misses(), 2);  // Both attempts compiled (and failed).
}

TEST_F(PlanCacheTest, UnknownTableCachesParseWithoutPlan) {
  PlanCache cache(64, db_.get());
  auto prep = cache.Get("SELECT * FROM ghosts WHERE id = 1");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_FALSE((*prep)->has_select_plan);
}

// End-to-end through ProtectedDatabase: cached execution must be
// indistinguishable from fresh execution (template-vs-literal
// equivalence), and DDL through the front door must invalidate.
class ProtectedPlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_pdb_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    pdb_.reset();
    fs::remove_all(dir_);
  }

  void OpenDb(size_t cache_capacity) {
    ProtectedDatabaseOptions opts;
    opts.mode = DelayMode::kNone;
    opts.plan_cache_capacity = cache_capacity;
    opts.metrics = &metrics_;
    auto pdb = ProtectedDatabase::Open(dir_.string(), "items", &clock_,
                                       opts);
    ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
    pdb_ = std::move(*pdb);
    ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, name TEXT, v DOUBLE)")
                    .ok());
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(
          pdb_->ExecuteSql("INSERT INTO items VALUES (" +
                           std::to_string(i) + ", 'n" +
                           std::to_string(i) + "', " +
                           std::to_string(i * 1.5) + ")")
              .ok());
    }
  }

  int64_t Series(std::string_view name) const {
    return SeriesValue(metrics_, name, {{"table", "items"}});
  }

  fs::path dir_;
  RealClock clock_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<ProtectedDatabase> pdb_;
};

TEST_F(ProtectedPlanCacheTest, CachedEqualsUncached) {
  OpenDb(/*cache_capacity=*/128);
  ASSERT_NE(pdb_->plan_cache(), nullptr);
  // Run each statement twice (second run is a guaranteed cache hit)
  // and compare against a fresh Executor with no cache in the loop.
  Executor fresh(pdb_->raw_database());
  const std::string statements[] = {
      "SELECT * FROM items WHERE id = 7",
      "SELECT name FROM items WHERE id = 7 AND v > 1.0",
      "SELECT * FROM items WHERE id >= 10 AND id <= 20",
      "SELECT * FROM items WHERE id IN (3, 9, 27)",
      "SELECT * FROM items WHERE id >= 5 LIMIT 4",
      "SELECT COUNT(*), SUM(v) FROM items WHERE id <= 30",
      "SELECT * FROM items WHERE name = 'n12'",
  };
  for (const std::string& sql : statements) {
    Result<QueryResult> want = fresh.ExecuteSql(sql);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    for (int round = 0; round < 2; ++round) {
      Result<ProtectedResult> got = pdb_->ExecuteSql(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      ASSERT_EQ(got->result.rows.size(), want->rows.size())
          << sql << " round " << round;
      for (size_t r = 0; r < want->rows.size(); ++r) {
        ASSERT_EQ(got->result.rows[r].size(), want->rows[r].size());
        for (size_t c = 0; c < want->rows[r].size(); ++c) {
          EXPECT_EQ(got->result.rows[r][c].ToString(),
                    want->rows[r][c].ToString())
              << sql << " row " << r << " col " << c;
        }
      }
      EXPECT_EQ(got->result.touched_keys, want->touched_keys) << sql;
    }
  }
  EXPECT_GT(Series("tarpit_plan_cache_hits_total"), 0);
}

TEST_F(ProtectedPlanCacheTest, DdlThroughFrontDoorInvalidates) {
  OpenDb(/*cache_capacity=*/128);
  const std::string q = "SELECT * FROM items WHERE name = 'n3'";
  Result<ProtectedResult> before = pdb_->ExecuteSql(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->result.plan.kind, AccessPathKind::kFullScan);
  ASSERT_EQ(before->result.rows.size(), 1u);

  // CREATE INDEX through the cached front door: the cache must not
  // keep serving the full-scan plan afterwards.
  ASSERT_TRUE(pdb_->ExecuteSql("CREATE INDEX idx ON items (name)").ok());
  EXPECT_EQ(pdb_->plan_cache()->size(), 0u);  // Eagerly invalidated.

  Result<ProtectedResult> after = pdb_->ExecuteSql(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.plan.kind, AccessPathKind::kSecondaryLookup);
  ASSERT_EQ(after->result.rows.size(), 1u);
  EXPECT_EQ(after->result.touched_keys, before->result.touched_keys);
}

TEST_F(ProtectedPlanCacheTest, DisabledCacheStillWorks) {
  OpenDb(/*cache_capacity=*/0);
  EXPECT_EQ(pdb_->plan_cache(), nullptr);
  Result<ProtectedResult> r =
      pdb_->ExecuteSql("SELECT * FROM items WHERE id = 7");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.rows.size(), 1u);
}

TEST_F(ProtectedPlanCacheTest, RepeatedLookupsHitAndStayCorrect) {
  OpenDb(/*cache_capacity=*/128);
  // Setup DDL/INSERTs also went through the cache; count deltas.
  const int64_t base_misses = Series("tarpit_plan_cache_misses_total");
  const int64_t base_hits = Series("tarpit_plan_cache_hits_total");
  for (int round = 0; round < 20; ++round) {
    const int key = 1 + (round % 10);
    Result<ProtectedResult> r = pdb_->ExecuteSql(
        "SELECT * FROM items WHERE id = " + std::to_string(key));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->result.rows.size(), 1u);
    EXPECT_EQ(r->result.rows[0][0].AsInt(), key);
  }
  // 10 distinct texts -> 10 misses, 10 hits.
  EXPECT_EQ(Series("tarpit_plan_cache_misses_total") - base_misses, 10);
  EXPECT_EQ(Series("tarpit_plan_cache_hits_total") - base_hits, 10);
}

// Regression for the MVCC/DDL interaction: a CREATE INDEX taking the
// exclusive fallback must fence (drain) the version store first, so
// the index build and every subsequent cached secondary-lookup plan
// see the committed-but-unreclaimed writes. Without the fence the
// index would be built from stale base images and the fail-closed
// schema-version recompile would faithfully serve wrong results.
TEST(ConcurrentPlanCacheTest, CreateIndexFencesPendingMvccWrites) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tarpit_cdb_cache_fence_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  RealClock clock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kNone;
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;
  copts.mvcc_reclaim_every_commits = 0;  // Keep versions pending until
                                         // something fences.
  obs::MetricRegistry metrics;
  copts.metrics = &metrics;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, opts, copts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto cdb = std::move(*opened);
  ASSERT_TRUE(cdb->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                              "name TEXT, v DOUBLE)")
                  .ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(cdb->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                  Value("n" + std::to_string(i)),
                                  Value(i * 1.5)})
                    .ok());
  }

  // Committed but unreclaimed: an updated name, a new row, a delete.
  ASSERT_TRUE(
      cdb->ExecuteSql("UPDATE items SET name = 'zz' WHERE id = 3").ok());
  ASSERT_TRUE(
      cdb->ExecuteSql("INSERT INTO items VALUES (100, 'zz', 7.0)").ok());
  ASSERT_TRUE(cdb->ExecuteSql("DELETE FROM items WHERE id = 5").ok());
  ASSERT_GE(cdb->version_store()->live_versions(), 3u);

  const int64_t fences_before =
      SeriesValue(metrics, "tarpit_mvcc_ddl_fences_total");
  ASSERT_TRUE(cdb->ExecuteSql("CREATE INDEX idx ON items (name)").ok());
  EXPECT_GT(SeriesValue(metrics, "tarpit_mvcc_ddl_fences_total"),
            fences_before);
  EXPECT_EQ(cdb->version_store()->live_versions(), 0u);

  // The (recompiled, secondary-lookup) plan finds exactly the two
  // post-write 'zz' rows; the deleted row's old name finds nothing.
  auto zz = cdb->ExecuteSql("SELECT * FROM items WHERE name = 'zz'");
  ASSERT_TRUE(zz.ok()) << zz.status().ToString();
  EXPECT_EQ(zz->result.plan.kind, AccessPathKind::kSecondaryLookup);
  ASSERT_EQ(zz->result.rows.size(), 2u);
  auto stale = cdb->ExecuteSql("SELECT * FROM items WHERE name = 'n3'");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->result.rows.size(), 0u);
  auto deleted = cdb->ExecuteSql("SELECT * FROM items WHERE name = 'n5'");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->result.rows.size(), 0u);

  // Post-DDL MVCC writes keep working against the new schema version.
  ASSERT_TRUE(
      cdb->ExecuteSql("UPDATE items SET name = 'qq' WHERE id = 7").ok());
  auto get = cdb->GetByKey(7);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->result.rows.at(0).at(1).AsString(), "qq");

  cdb.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tarpit
