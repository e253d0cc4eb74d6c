// Tests for the extension features beyond the paper's core scheme:
// HyperLogLog sketches, coverage-tracking delay escalation, combined
// delay policies, SQL aggregates, and warm-starting learned counts from
// persisted state.

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hyperloglog.h"
#include "common/random.h"
#include "core/combined_delay.h"
#include "core/protected_db.h"
#include "defense/coverage_monitor.h"
#include "defense/query_gate.h"
#include "sql/executor.h"
#include "storage/database.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- HyperLogLog ----------

TEST(HyperLogLogTest, SmallCardinalityExact) {
  HyperLogLog hll(12);
  for (int64_t k = 0; k < 100; ++k) hll.Add(k);
  // Linear-counting regime: near-exact.
  EXPECT_NEAR(hll.Estimate(), 100.0, 5.0);
}

TEST(HyperLogLogTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 1000; ++rep) {
    for (int64_t k = 0; k < 50; ++k) hll.Add(k);
  }
  EXPECT_NEAR(hll.Estimate(), 50.0, 3.0);
  EXPECT_EQ(hll.items_added(), 50'000u);
}

class HllCardinalityTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HllCardinalityTest, EstimateWithinStandardError) {
  const int64_t n = GetParam();
  HyperLogLog hll(12);  // ~1.6% standard error.
  for (int64_t k = 0; k < n; ++k) hll.Add(k * 2654435761LL + 7);
  const double est = hll.Estimate();
  EXPECT_NEAR(est, static_cast<double>(n), 0.06 * n) << n;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllCardinalityTest,
                         ::testing::Values(1'000, 10'000, 100'000,
                                           1'000'000));

TEST(HyperLogLogTest, MergeEqualsUnion) {
  HyperLogLog a(10), b(10), both(10);
  for (int64_t k = 0; k < 5000; ++k) {
    a.Add(k);
    both.Add(k);
  }
  for (int64_t k = 2500; k < 7500; ++k) {
    b.Add(k);
    both.Add(k);
  }
  ASSERT_TRUE(a.Merge(b));
  EXPECT_NEAR(a.Estimate(), both.Estimate(), both.Estimate() * 0.01);
  HyperLogLog wrong(8);
  EXPECT_FALSE(a.Merge(wrong));
}

TEST(HyperLogLogTest, ClearResets) {
  HyperLogLog hll(8);
  for (int64_t k = 0; k < 1000; ++k) hll.Add(k);
  hll.Clear();
  EXPECT_EQ(hll.items_added(), 0u);
  EXPECT_LT(hll.Estimate(), 1.0);
}

// The estimate as a from-scratch scan of the registers: one double
// 2^-reg[i] per register summed in order, then the same bias constant
// and small-range correction as the sketch. The powers of two are
// tabulated (the same doubles std::ldexp returns) only to keep the
// scan-after-every-Add checks below fast.
double FullScanEstimate(const HyperLogLog& hll) {
  static const std::vector<double> kInversePow2 = [] {
    std::vector<double> t(256);
    for (int r = 0; r < 256; ++r) t[r] = std::ldexp(1.0, -r);
    return t;
  }();
  const std::vector<uint8_t>& regs = hll.registers();
  const uint32_t m = static_cast<uint32_t>(regs.size());
  double sum = 0.0;
  uint32_t zeros = 0;
  for (uint8_t r : regs) {
    sum += kInversePow2[r];
    if (r == 0) ++zeros;
  }
  double alpha = 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  if (m == 16) alpha = 0.673;
  if (m == 32) alpha = 0.697;
  if (m == 64) alpha = 0.709;
  double estimate =
      alpha * static_cast<double>(m) * static_cast<double>(m) / sum;
  if (estimate <= 2.5 * m && zeros != 0) {
    estimate = static_cast<double>(m) *
               std::log(static_cast<double>(m) /
                        static_cast<double>(zeros));
  }
  return estimate;
}

TEST(HyperLogLogTest, IncrementalEstimateMatchesFullScan) {
  for (int p = 4; p <= 16; ++p) {
    SCOPED_TRACE("precision " + std::to_string(p));
    Rng rng(static_cast<uint64_t>(p));
    HyperLogLog random(p), dupes(p);
    ASSERT_EQ(random.Estimate(), FullScanEstimate(random));
    // The first 10k keys are checked after every Add (a scan only when
    // some register rose: otherwise the sketch state is unchanged);
    // past that, every 1,000th Add, far enough to leave the
    // small-range regime at every precision.
    std::vector<uint8_t> random_seen = random.registers();
    std::vector<uint8_t> dupes_seen = dupes.registers();
    double random_scan = FullScanEstimate(random);
    double dupes_scan = FullScanEstimate(dupes);
    for (int i = 0; i < 300'000; ++i) {
      random.Add(static_cast<int64_t>(rng.Next()));
      // Duplicate-heavy: a 2,000-key hot set plus a trickle of new keys.
      dupes.Add(rng.Bernoulli(0.95)
                    ? static_cast<int64_t>(rng.Uniform(2000))
                    : static_cast<int64_t>(rng.Next()));
      if (i < 10'000) {
        if (random.registers() != random_seen) {
          random_seen = random.registers();
          random_scan = FullScanEstimate(random);
        }
        if (dupes.registers() != dupes_seen) {
          dupes_seen = dupes.registers();
          dupes_scan = FullScanEstimate(dupes);
        }
        ASSERT_EQ(random.Estimate(), random_scan) << "add " << i;
        ASSERT_EQ(dupes.Estimate(), dupes_scan) << "add " << i;
      } else if (i % 1000 == 0) {
        ASSERT_EQ(random.Estimate(), FullScanEstimate(random)) << i;
        ASSERT_EQ(dupes.Estimate(), FullScanEstimate(dupes)) << i;
      }
    }
    ASSERT_GT(random.Estimate(), 2.5 * (1 << p));

    // Merge into an empty sketch copies the source exactly.
    HyperLogLog empty(p);
    ASSERT_TRUE(empty.Merge(dupes));
    EXPECT_EQ(empty.registers(), dupes.registers());
    EXPECT_EQ(empty.Estimate(), FullScanEstimate(empty));
    EXPECT_EQ(empty.Estimate(), dupes.Estimate());
    // Merge of two populated sketches.
    ASSERT_TRUE(dupes.Merge(random));
    EXPECT_EQ(dupes.Estimate(), FullScanEstimate(dupes));
    // A precision mismatch changes nothing.
    const std::vector<uint8_t> before = dupes.registers();
    const double before_estimate = dupes.Estimate();
    HyperLogLog other(p == 4 ? 5 : p - 1);
    other.Add(1);
    EXPECT_FALSE(dupes.Merge(other));
    EXPECT_EQ(dupes.registers(), before);
    EXPECT_EQ(dupes.Estimate(), before_estimate);
    // Clear, then keep adding: the running state restarts from zero.
    random.Clear();
    EXPECT_EQ(random.Estimate(), FullScanEstimate(random));
    EXPECT_EQ(random.Estimate(), 0.0);
    for (int64_t k = 0; k < 500; ++k) {
      random.Add(k);
      ASSERT_EQ(random.Estimate(), FullScanEstimate(random)) << k;
    }
  }
}

// ---------- CoverageMonitor ----------

TEST(CoverageMonitorTest, BrowserStaysUnescalated) {
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.01;
  CoverageMonitor monitor(opts);
  // A user touching 50 of 100k tuples (0.05% coverage).
  for (int64_t k = 0; k < 50; ++k) monitor.RecordAccess(1, k);
  EXPECT_NEAR(monitor.DistinctTuples(1), 50.0, 5.0);
  EXPECT_EQ(monitor.EscalationFactor(1, 100'000), 1.0);
}

TEST(CoverageMonitorTest, ExtractorEscalatesToMax) {
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.01;
  opts.max_coverage = 0.25;
  opts.max_escalation = 100.0;
  CoverageMonitor monitor(opts);
  const uint64_t n = 10'000;
  for (int64_t k = 0; k < static_cast<int64_t>(n) / 2; ++k) {
    monitor.RecordAccess(7, k);  // 50% coverage.
  }
  EXPECT_EQ(monitor.EscalationFactor(7, n), 100.0);
}

TEST(CoverageMonitorTest, EscalationInterpolates) {
  CoverageMonitorOptions opts;
  opts.free_coverage = 0.0;
  opts.max_coverage = 0.5;
  opts.max_escalation = 11.0;
  opts.hll_precision = 14;
  CoverageMonitor monitor(opts);
  const uint64_t n = 10'000;
  for (int64_t k = 0; k < 2'500; ++k) monitor.RecordAccess(3, k);
  // ~25% coverage => halfway => factor ~ 6.
  EXPECT_NEAR(monitor.EscalationFactor(3, n), 6.0, 0.5);
}

TEST(CoverageMonitorTest, ForgetDropsHistory) {
  CoverageMonitor monitor;
  monitor.RecordAccess(5, 1);
  EXPECT_EQ(monitor.tracked_principals(), 1u);
  monitor.Forget(5);
  EXPECT_EQ(monitor.tracked_principals(), 0u);
  EXPECT_EQ(monitor.DistinctTuples(5), 0.0);
}

TEST(CoverageMonitorTest, PrincipalsAreIndependent) {
  CoverageMonitor monitor;
  for (int64_t k = 0; k < 1000; ++k) monitor.RecordAccess(1, k);
  monitor.RecordAccess(2, 42);
  EXPECT_GT(monitor.DistinctTuples(1), 900.0);
  EXPECT_LT(monitor.DistinctTuples(2), 5.0);
}

// ---------- CombinedDelayPolicy ----------

class FixedPolicy : public DelayPolicy {
 public:
  explicit FixedPolicy(double even, double odd)
      : even_(even), odd_(odd) {}
  double DelayFor(int64_t key) const override {
    return key % 2 == 0 ? even_ : odd_;
  }
  std::string name() const override { return "fixed"; }

 private:
  double even_, odd_;
};

TEST(CombinedDelayTest, MaxTakesStrongerSignal) {
  FixedPolicy access(0.1, 5.0);  // Protects odd keys.
  FixedPolicy update(4.0, 0.2);  // Protects even keys.
  CombinedDelayPolicy combined(&access, &update, CombineMode::kMax,
                               {0.0, 10.0});
  EXPECT_EQ(combined.DelayFor(2), 4.0);
  EXPECT_EQ(combined.DelayFor(3), 5.0);
}

TEST(CombinedDelayTest, SumAndCap) {
  FixedPolicy a(6.0, 6.0), b(7.0, 7.0);
  CombinedDelayPolicy combined(&a, &b, CombineMode::kSum, {0.0, 10.0});
  EXPECT_EQ(combined.DelayFor(1), 10.0);  // 13 capped.
  CombinedDelayPolicy uncapped(&a, &b, CombineMode::kSum, {0.0, 100.0});
  EXPECT_EQ(uncapped.DelayFor(1), 13.0);
  EXPECT_NE(combined.name().find("combined-sum"), std::string::npos);
}

// ---------- SQL aggregates ----------

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_agg_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    exec_ = std::make_unique<Executor>(db_.get());
    Must("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE, name TEXT)");
    Must("INSERT INTO t VALUES (1, 2.0, 'b'), (2, 4.0, 'a'), "
         "(3, 6.0, 'c')");
    Must("INSERT INTO t (id, name) VALUES (4, 'd')");  // v is NULL.
  }
  void TearDown() override {
    exec_.reset();
    db_.reset();
    fs::remove_all(dir_);
  }
  QueryResult Must(const std::string& sql) {
    auto r = exec_->ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  fs::path dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(AggregateTest, CountStarAndColumn) {
  QueryResult r = Must("SELECT COUNT(*), COUNT(v) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.columns[0], "COUNT(*)");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);  // All rows.
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);  // Nulls ignored.
}

TEST_F(AggregateTest, SumAvgMinMax) {
  QueryResult r =
      Must("SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 12.0);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 6.0);
}

TEST_F(AggregateTest, AggregateWithWhereUsesPlan) {
  QueryResult r = Must("SELECT COUNT(*) FROM t WHERE id >= 2");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kRangeScan);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.touched_keys.size(), 3u);
}

TEST_F(AggregateTest, EmptyInputSemantics) {
  QueryResult r = Must(
      "SELECT COUNT(*), SUM(v), AVG(v), MIN(v) FROM t WHERE id > 99");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[0][3].is_null());
}

TEST_F(AggregateTest, MinMaxOnStrings) {
  QueryResult r = Must("SELECT MIN(name), MAX(name) FROM t");
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[0][1].AsString(), "d");
}

TEST_F(AggregateTest, IntSumStaysInt) {
  Must("CREATE TABLE nums (id INT PRIMARY KEY, k INT)");
  Must("INSERT INTO nums VALUES (1, 10), (2, 20)");
  QueryResult r = Must("SELECT SUM(k) FROM nums");
  EXPECT_TRUE(r.rows[0][0].is_int());
  EXPECT_EQ(r.rows[0][0].AsInt(), 30);
}

TEST_F(AggregateTest, Errors) {
  EXPECT_FALSE(exec_->ExecuteSql("SELECT SUM(name) FROM t").ok());
  EXPECT_FALSE(exec_->ExecuteSql("SELECT SUM(*) FROM t").ok());
  EXPECT_FALSE(exec_->ExecuteSql("SELECT id, COUNT(*) FROM t").ok());
  EXPECT_FALSE(exec_->ExecuteSql("SELECT BOGUS(v) FROM t").ok());
  EXPECT_FALSE(exec_->ExecuteSql("SELECT COUNT(nope) FROM t").ok());
}

TEST_F(AggregateTest, GroupByCountsPerGroup) {
  Must("CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, "
       "amount DOUBLE)");
  Must("INSERT INTO sales VALUES (1, 'east', 10.0), (2, 'west', 20.0), "
       "(3, 'east', 30.0), (4, 'west', 40.0), (5, 'east', 50.0)");
  QueryResult r = Must(
      "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region");
  ASSERT_EQ(r.rows.size(), 2u);
  // First-seen order: east, then west.
  EXPECT_EQ(r.rows[0][0].AsString(), "east");
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 90.0);
  EXPECT_EQ(r.rows[1][0].AsString(), "west");
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.rows[1][2].AsDouble(), 60.0);
}

TEST_F(AggregateTest, GroupByWithWhereAndLimit) {
  Must("CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, "
       "amount DOUBLE)");
  Must("INSERT INTO sales VALUES (1, 'east', 10.0), (2, 'west', 20.0), "
       "(3, 'east', 30.0), (4, 'north', 5.0)");
  QueryResult r = Must(
      "SELECT region, MAX(amount) FROM sales WHERE amount > 7.0 "
      "GROUP BY region LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);  // north filtered out, limit 2 kept.
  EXPECT_EQ(r.rows[0][0].AsString(), "east");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 30.0);
}

TEST_F(AggregateTest, GroupByWithoutAggregatesIsDistinct) {
  Must("CREATE TABLE sales (id INT PRIMARY KEY, region TEXT)");
  Must("INSERT INTO sales VALUES (1, 'a'), (2, 'b'), (3, 'a')");
  QueryResult r = Must("SELECT region FROM sales GROUP BY region");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[1][0].AsString(), "b");
}

TEST_F(AggregateTest, GroupByNullsFormTheirOwnGroup) {
  QueryResult r =
      Must("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v");
  // Values 2,4,6 and one NULL row -> 4 groups.
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(AggregateTest, NonGroupedPlainColumnRejected) {
  EXPECT_FALSE(
      exec_->ExecuteSql("SELECT name, COUNT(*) FROM t GROUP BY v").ok());
  EXPECT_FALSE(exec_->ExecuteSql("SELECT COUNT(*) FROM t GROUP BY nope")
                   .ok());
}

// ---------- Coverage escalation through the gate ----------

class GateEscalationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_esc_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 0.01;
    opts.popularity.bounds = {0.0, 10.0};
    auto pdb =
        ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
    ASSERT_TRUE(pdb.ok());
    pdb_ = std::move(*pdb);
    ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
  }
  void TearDown() override {
    gate_.reset();
    pdb_.reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  VirtualClock clock_;
  std::unique_ptr<ProtectedDatabase> pdb_;
  std::unique_ptr<QueryGate> gate_;
};

TEST_F(GateEscalationTest, ExtractionShapedAccessGetsAmplified) {
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 1e9;
  opts.per_user_burst = 1e9;
  opts.per_subnet_queries_per_second = 1e9;
  opts.per_subnet_burst = 1e9;
  opts.coverage_escalation = true;
  opts.coverage.free_coverage = 0.05;
  opts.coverage.max_coverage = 0.5;
  opts.coverage.max_escalation = 50.0;
  gate_ = std::make_unique<QueryGate>(pdb_.get(), opts);

  auto scraper = gate_->RegisterUser(Ipv4FromString("10.1.1.1"));
  ASSERT_TRUE(scraper.ok());

  // Walk the keyspace. Early queries are unescalated; once coverage
  // passes the free threshold the same retrieval costs multiples.
  double early_delay = 0, late_delay = 0;
  for (int64_t k = 0; k < 200; ++k) {
    auto r = gate_->ExecuteSql(
        *scraper, "SELECT * FROM items WHERE id = " + std::to_string(k));
    ASSERT_TRUE(r.ok()) << k;
    if (k == 5) early_delay = r->delay_seconds;
    if (k == 190) late_delay = r->delay_seconds;
  }
  EXPECT_GT(late_delay, 5.0 * early_delay);
  EXPECT_GT(gate_->coverage_monitor()->Coverage(scraper->id, 200), 0.5);

  // Meanwhile a user hammering one hot key stays unescalated.
  auto browser = gate_->RegisterUser(Ipv4FromString("10.2.2.2"));
  ASSERT_TRUE(browser.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        gate_->ExecuteSql(*browser, "SELECT * FROM items WHERE id = 1")
            .ok());
  }
  EXPECT_EQ(gate_->coverage_monitor()->EscalationFactor(browser->id, 200),
            1.0);
}

// ---------- Warm start ----------

TEST(WarmStartTest, PersistedCountsSurviveRestart) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("tarpit_warm_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.persist_counts = true;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  {
    auto pdb = ProtectedDatabase::Open(dir.string(), "items", &clock,
                                       opts);
    ASSERT_TRUE(pdb.ok());
    ASSERT_TRUE((*pdb)
                    ->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*pdb)
                      ->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
    for (int i = 0; i < 99; ++i) {
      ASSERT_TRUE(
          (*pdb)->ExecuteSql("SELECT * FROM items WHERE id = 3").ok());
    }
    ASSERT_TRUE((*pdb)->Checkpoint().ok());
  }
  // Reopen: key 3's popularity must be warm, so its first retrieval is
  // already cheap (count 99 persisted + 1 recorded now = 100).
  auto pdb =
      ProtectedDatabase::Open(dir.string(), "items", &clock, opts);
  ASSERT_TRUE(pdb.ok());
  auto r = (*pdb)->ExecuteSql("SELECT * FROM items WHERE id = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->delay_seconds, 1.0 / 100, 1e-6);
  // An unseen key still pays the cap.
  auto cold = (*pdb)->ExecuteSql("SELECT * FROM items WHERE id = 7");
  ASSERT_TRUE(cold.ok());
  EXPECT_GE(cold->delay_seconds, 1.0);  // count 1 after recording -> scale/1.
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tarpit
