// Targeted coverage of corner cases across modules: rendering paths,
// counters, boundary values, and less-traveled error branches.

#include <cmath>
#include <filesystem>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hyperloglog.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "core/analytic_zipf_delay.h"
#include "core/combined_delay.h"
#include "defense/identity.h"
#include "defense/registration_limiter.h"
#include "sql/executor.h"
#include "storage/database.h"
#include "storage/disk_manager.h"
#include "workload/mixed_workload.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- Rendering / ToString paths ----------

TEST(RenderingTest, QueryResultToStringSelect) {
  QueryResult r;
  r.columns = {"id", "name"};
  r.rows = {{Value(int64_t{1}), Value("a")},
            {Value(int64_t{2}), Value::Null()}};
  const std::string s = r.ToString();
  EXPECT_NE(s.find("id | name"), std::string::npos);
  EXPECT_NE(s.find("1 | 'a'"), std::string::npos);
  EXPECT_NE(s.find("2 | NULL"), std::string::npos);
  EXPECT_NE(s.find("(2 rows)"), std::string::npos);
}

TEST(RenderingTest, QueryResultToStringMutation) {
  QueryResult r;
  r.affected = 7;
  EXPECT_EQ(r.ToString(), "(7 rows affected)");
}

TEST(RenderingTest, ExprToStringForms) {
  auto e = Expr::MakeBinary(
      BinaryOp::kAnd,
      Expr::MakeBinary(BinaryOp::kLtEq, Expr::MakeColumn("a"),
                       Expr::MakeLiteral(Value(int64_t{5}))),
      Expr::MakeNot(Expr::MakeBinary(BinaryOp::kEq,
                                     Expr::MakeColumn("b"),
                                     Expr::MakeLiteral(Value("x")))));
  EXPECT_EQ(e->ToString(), "((a <= 5) AND (NOT (b = 'x')))");
  auto in = Expr::MakeIn(Expr::MakeColumn("c"),
                         {Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(in->ToString(), "(c IN (1, 2))");
}

TEST(RenderingTest, StatusCodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kRateLimited), "RateLimited");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented),
            "Unimplemented");
}

// ---------- Value boundaries ----------

TEST(ValueEdgeTest, Int64Extremes) {
  Value lo(INT64_MIN), hi(INT64_MAX);
  EXPECT_EQ(lo.Compare(hi), -1);
  EXPECT_EQ(lo.ToString(), std::to_string(INT64_MIN));
}

TEST(ValueEdgeTest, DoubleSpecials) {
  Value inf(std::numeric_limits<double>::infinity());
  Value big(1e308);
  EXPECT_EQ(big.Compare(inf), -1);
  // Documented quirk: Compare's three-way fallback treats unordered
  // IEEE comparisons (NaN) as ties. NaN should never be stored; the
  // statement template refuses to render non-finite doubles.
  Value nan_v(std::nan(""));
  EXPECT_EQ(nan_v.Compare(nan_v), 0);
}

TEST(ValueEdgeTest, EmptyAndEmbeddedQuoteStrings) {
  Value empty("");
  EXPECT_EQ(empty.ToString(), "''");
  Value quoted("a'b");
  EXPECT_EQ(quoted.AsString(), "a'b");
}

// ---------- Schema with wide rows (multi-byte null bitmap) ----------

TEST(SchemaEdgeTest, NineColumnsUseTwoBitmapBytes) {
  std::vector<Column> cols;
  for (int i = 0; i < 9; ++i) {
    cols.push_back({"c" + std::to_string(i), ColumnType::kInt64});
  }
  Schema schema(cols);
  Row row(9, Value::Null());
  row[0] = Value(int64_t{1});
  row[8] = Value(int64_t{9});  // Bit 8 lives in the second byte.
  std::string bytes;
  ASSERT_TRUE(schema.EncodeRow(row, &bytes).ok());
  auto decoded = schema.DecodeRow(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].AsInt(), 1);
  EXPECT_TRUE((*decoded)[4].is_null());
  EXPECT_EQ((*decoded)[8].AsInt(), 9);
}

// ---------- DiskManager counters & misc ----------

TEST(DiskManagerEdgeTest, CountersTrackIo) {
  auto dir = fs::temp_directory_path() /
             ("tarpit_edge_dm_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  DiskManager dm;
  ASSERT_TRUE(dm.Open((dir / "x.db").string()).ok());
  char buf[kPageSize] = {};
  ASSERT_TRUE(dm.AllocatePage().ok());
  ASSERT_TRUE(dm.WritePage(0, buf).ok());
  ASSERT_TRUE(dm.ReadPage(0, buf).ok());
  EXPECT_GE(dm.writes(), 2u);  // Allocation zero-fill + explicit write.
  EXPECT_EQ(dm.reads(), 1u);
  EXPECT_TRUE(dm.Sync().ok());
  // Double open is refused.
  EXPECT_FALSE(dm.Open((dir / "y.db").string()).ok());
  fs::remove_all(dir);
}

// ---------- AnalyticZipfDelayPolicy corner params ----------

TEST(AnalyticEdgeTest, CapRankBoundaries) {
  AnalyticZipfParams p;
  p.n = 100;
  p.alpha = 1.0;
  p.beta = 0.0;
  p.fmax = 1.0;
  // Cap so large nothing is capped: CapRank == n.
  p.bounds = {0.0, 1e12};
  EXPECT_EQ(AnalyticZipfDelayPolicy(p).CapRank(), 100u);
  // Cap so small everything is capped: CapRank == 1.
  p.bounds = {0.0, 1e-9};
  EXPECT_EQ(AnalyticZipfDelayPolicy(p).CapRank(), 1u);
}

// ---------- CombinedDelayPolicy naming ----------

TEST(CombinedEdgeTest, NameReflectsParts) {
  AnalyticZipfParams p;
  p.n = 10;
  p.fmax = 1.0;
  AnalyticZipfDelayPolicy a(p), b(p);
  CombinedDelayPolicy max_combined(&a, &b, CombineMode::kMax);
  EXPECT_EQ(max_combined.name(),
            "combined-max(analytic-zipf,analytic-zipf)");
  EXPECT_EQ(max_combined.mode(), CombineMode::kMax);
}

// ---------- RegistrationLimiter retry arithmetic ----------

TEST(RegistrationEdgeTest, RetryAfterCountsDown) {
  RegistrationLimiter limiter(100.0, 1.0);
  ASSERT_TRUE(limiter.Register(1, 0.0).ok());
  EXPECT_NEAR(limiter.RetryAfter(0.0), 100.0, 1e-6);
  EXPECT_NEAR(limiter.RetryAfter(60.0), 40.0, 1e-6);
  EXPECT_EQ(limiter.RetryAfter(100.0), 0.0);
}

// ---------- HyperLogLog precision bounds ----------

TEST(HllEdgeTest, MinAndMaxPrecision) {
  HyperLogLog small(4);
  HyperLogLog large(16);
  for (int64_t k = 0; k < 2000; ++k) {
    small.Add(k);
    large.Add(k);
  }
  // Precision 4 (16 registers): ~26% error allowed; precision 16: ~1%.
  EXPECT_NEAR(small.Estimate(), 2000, 2000 * 0.6);
  EXPECT_NEAR(large.Estimate(), 2000, 2000 * 0.03);
}

TEST(HllEdgeTest, OutOfRangePrecisionIsClamped) {
  // Options pass hll_precision through unchecked; 0 would shift the
  // 64-bit hash by 64.
  for (const auto& [asked, got] : {std::pair{0, 4}, std::pair{2, 4},
                                   std::pair{20, 16}}) {
    HyperLogLog hll(asked);
    EXPECT_EQ(hll.precision(), got) << asked;
    EXPECT_EQ(hll.registers().size(), size_t{1} << got) << asked;
    for (int64_t k = 0; k < 1000; ++k) hll.Add(k);
    EXPECT_TRUE(std::isfinite(hll.Estimate())) << asked;
    EXPECT_GT(hll.Estimate(), 0.0) << asked;
  }
}

// ---------- Ipv4 formatting corners ----------

TEST(Ipv4EdgeTest, Boundaries) {
  EXPECT_EQ(Ipv4ToString(0), "0.0.0.0");
  EXPECT_EQ(Ipv4ToString(0xFFFFFFFFu), "255.255.255.255");
  EXPECT_EQ(Ipv4FromString("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4FromString("1.2.3"), 0u);
  EXPECT_EQ(Ipv4FromString("1.2.3.4.5"), 0u);
}

// ---------- MixedWorkload ----------

TEST(MixedWorkloadTest, TimeOrderedAndRateAccurate) {
  MixedWorkloadConfig config;
  config.n = 100;
  config.queries_per_second = 10.0;
  config.updates_per_second = 5.0;
  config.duration_seconds = 1000.0;
  auto events = GenerateMixedWorkload(config);
  uint64_t queries = 0, upd = 0;
  double prev = -1;
  for (const MixedEvent& e : events) {
    EXPECT_GE(e.time_seconds, prev);
    EXPECT_LT(e.time_seconds, 1000.0);
    EXPECT_GE(e.key, 1);
    EXPECT_LE(e.key, 100);
    prev = e.time_seconds;
    if (e.is_update) {
      ++upd;
    } else {
      ++queries;
    }
  }
  // Poisson counts: ~10000 and ~5000 within 5 sigma.
  EXPECT_NEAR(queries, 10'000, 500);
  EXPECT_NEAR(upd, 5'000, 360);
}

TEST(MixedWorkloadTest, SkewAndZeroRateSides) {
  MixedWorkloadConfig config;
  config.n = 1000;
  config.queries_per_second = 0.0;  // Updates only.
  config.updates_per_second = 20.0;
  config.update_alpha = 1.5;
  config.duration_seconds = 500.0;
  auto events = GenerateMixedWorkload(config);
  ASSERT_FALSE(events.empty());
  uint64_t head = 0;
  for (const MixedEvent& e : events) {
    EXPECT_TRUE(e.is_update);
    if (e.key <= 10) ++head;
  }
  // Zipf(1.5): the top-10 keys draw well over half the updates.
  EXPECT_GT(head, events.size() / 2);
}

// ---------- Database drop with secondary index ----------

TEST(DatabaseEdgeTest, DropTableWithIndexCleansCatalog) {
  auto dir = fs::temp_directory_path() /
             ("tarpit_edge_db_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    auto db = Database::Open(dir.string());
    ASSERT_TRUE(db.ok());
    Executor exec(db->get());
    ASSERT_TRUE(exec.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, "
                                "c TEXT)")
                    .ok());
    ASSERT_TRUE(exec.ExecuteSql("CREATE INDEX ON t (c)").ok());
    ASSERT_TRUE((*db)->DropTable("t").ok());
  }
  // Reopen must not trip over a dangling catalog entry.
  auto db = Database::Open(dir.string());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->ListTables().empty());
  fs::remove_all(dir);
}

// ---------- Zipf sampler extreme alpha ----------

TEST(ZipfEdgeTest, VeryHighSkewConcentrates) {
  ZipfDistribution z(1000, 4.0);
  Rng rng(3);
  int head = 0;
  for (int i = 0; i < 10000; ++i) {
    if (z.Sample(&rng) == 1) ++head;
  }
  // At alpha=4, rank 1 has ~92% of the mass.
  EXPECT_GT(head, 8800);
}

TEST(ZipfEdgeTest, NearOneAlphaIsStable) {
  // Values adjacent to the alpha==1 special case must not blow up.
  for (double alpha : {0.999, 1.001}) {
    ZipfDistribution z(1000, alpha);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
      uint64_t s = z.Sample(&rng);
      ASSERT_GE(s, 1u);
      ASSERT_LE(s, 1000u);
    }
    double total = 0;
    for (uint64_t i = 1; i <= 1000; ++i) total += z.Pmf(i);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

// ---------- VirtualClock saturation behavior ----------

TEST(ClockEdgeTest, LargeAdvances) {
  VirtualClock clock;
  clock.SleepForMicros(static_cast<int64_t>(1e18));
  EXPECT_EQ(clock.NowMicros(), static_cast<int64_t>(1e18));
  EXPECT_NEAR(clock.NowSeconds(), 1e12, 1e6);
}

}  // namespace
}  // namespace tarpit
