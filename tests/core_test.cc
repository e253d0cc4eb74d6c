#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/analytic_zipf_delay.h"
#include "core/delay_engine.h"
#include "core/popularity_delay.h"
#include "core/protected_db.h"
#include "core/update_delay.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- DelayBounds ----------

TEST(DelayBoundsTest, ClampsAndHandlesNan) {
  DelayBounds b{0.001, 10.0};
  EXPECT_EQ(b.Apply(5.0), 5.0);
  EXPECT_EQ(b.Apply(0.0), 0.001);
  EXPECT_EQ(b.Apply(100.0), 10.0);
  EXPECT_EQ(b.Apply(std::nan("")), 10.0);
}

// ---------- AnalyticZipfDelayPolicy ----------

TEST(AnalyticZipfDelayTest, MatchesEquationOne) {
  AnalyticZipfParams p;
  p.n = 1000;
  p.alpha = 1.0;
  p.beta = 1.0;
  p.fmax = 2.0;
  p.bounds = {0.0, 1e9};
  AnalyticZipfDelayPolicy policy(p);
  // d(i) = i^2 / (1000 * 2).
  EXPECT_NEAR(policy.DelayFor(1), 1.0 / 2000, 1e-12);
  EXPECT_NEAR(policy.DelayFor(10), 100.0 / 2000, 1e-12);
  EXPECT_NEAR(policy.DelayFor(1000), 1e6 / 2000, 1e-9);
}

TEST(AnalyticZipfDelayTest, DelayIncreasesWithRank) {
  AnalyticZipfParams p;
  p.n = 500;
  p.alpha = 1.5;
  p.beta = 0.5;
  p.fmax = 1.0;
  p.bounds = {0.0, 1e12};
  AnalyticZipfDelayPolicy policy(p);
  double prev = 0;
  for (int64_t i = 1; i <= 500; i += 7) {
    double d = policy.DelayFor(i);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(AnalyticZipfDelayTest, CapAppliesAboveCapRank) {
  AnalyticZipfParams p;
  p.n = 10000;
  p.alpha = 1.0;
  p.beta = 1.0;
  p.fmax = 1.0;
  p.bounds = {0.0, 1.0};  // 1-second cap.
  AnalyticZipfDelayPolicy policy(p);
  uint64_t m = policy.CapRank();
  ASSERT_GT(m, 1u);
  ASSERT_LT(m, 10000u);
  EXPECT_LT(policy.DelayFor(static_cast<int64_t>(m) - 1), 1.0);
  EXPECT_EQ(policy.DelayFor(static_cast<int64_t>(m) + 1), 1.0);
  // Raw delay at the cap rank reaches the cap.
  EXPECT_GE(policy.RawDelayForRank(m), 1.0);
}

TEST(AnalyticZipfDelayTest, RankClampedToValidRange) {
  AnalyticZipfParams p;
  p.n = 10;
  p.fmax = 1.0;
  p.bounds = {0.0, 1e9};
  AnalyticZipfDelayPolicy policy(p);
  EXPECT_EQ(policy.DelayFor(-5), policy.DelayFor(1));
  EXPECT_EQ(policy.DelayFor(99), policy.DelayFor(10));
}

// ---------- PopularityDelayPolicy ----------

TEST(PopularityDelayTest, NeverSeenGetsCap) {
  CountTracker tracker(100, 1.0);
  PopularityDelayParams params;
  params.scale = 1.0;
  params.bounds = {0.0, 10.0};
  PopularityDelayPolicy policy(&tracker, params);
  EXPECT_EQ(policy.DelayFor(42), 10.0);
}

TEST(PopularityDelayTest, PopularTuplesGetShorterDelays) {
  CountTracker tracker(100, 1.0);
  for (int i = 0; i < 100; ++i) tracker.Record(1);
  for (int i = 0; i < 10; ++i) tracker.Record(2);
  tracker.Record(3);
  PopularityDelayParams params;
  params.scale = 1.0;
  params.bounds = {0.0, 1e9};
  PopularityDelayPolicy policy(&tracker, params);
  double d1 = policy.DelayFor(1), d2 = policy.DelayFor(2),
         d3 = policy.DelayFor(3);
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  // With beta=0, delay is exactly scale/count.
  EXPECT_NEAR(d1, 1.0 / 100, 1e-12);
  EXPECT_NEAR(d3, 1.0, 1e-12);
}

TEST(PopularityDelayTest, BetaAmplifiesUnpopularPenalty) {
  CountTracker tracker(100, 1.0);
  for (int i = 0; i < 100; ++i) tracker.Record(1);
  tracker.Record(2);
  PopularityDelayParams flat;
  flat.scale = 1.0;
  flat.beta = 0.0;
  flat.bounds = {0.0, 1e12};
  PopularityDelayParams amplified = flat;
  amplified.beta = 2.0;
  PopularityDelayPolicy flat_policy(&tracker, flat);
  PopularityDelayPolicy amp_policy(&tracker, amplified);
  // Rank-1 tuple: rank^beta = 1 either way.
  EXPECT_NEAR(flat_policy.DelayFor(1), amp_policy.DelayFor(1), 1e-12);
  // Rank-2 tuple gets 2^2 = 4x the flat delay.
  EXPECT_NEAR(amp_policy.DelayFor(2), 4.0 * flat_policy.DelayFor(2),
              1e-9);
}

TEST(PopularityDelayTest, StartupTransientFadesWithLearning) {
  // Before any accesses, even the (truly) most popular item pays the
  // cap; after the distribution is learned its delay collapses.
  CountTracker tracker(1000, 1.0);
  PopularityDelayParams params;
  params.scale = 0.1;
  params.bounds = {0.0, 10.0};
  PopularityDelayPolicy policy(&tracker, params);
  EXPECT_EQ(policy.DelayFor(1), 10.0);
  ZipfDistribution zipf(1000, 1.5);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    tracker.Record(static_cast<int64_t>(zipf.Sample(&rng)));
  }
  EXPECT_LT(policy.DelayFor(1), 0.001);
}

// ---------- UpdateDelayPolicy ----------

TEST(UpdateDelayTest, InverseRateWithCapAndFloor) {
  UpdateTracker tracker(100, 1.0);
  UpdateDelayParams params;
  params.c = 10.0;
  params.n = 100;
  params.rate_window_seconds = 1.0;
  params.bounds = {0.001, 5.0};
  UpdateDelayPolicy policy(&tracker, params);

  // Never updated: cap.
  EXPECT_EQ(policy.DelayFor(7), 5.0);
  // Hot tuple: updated 1000 times in the window -> tiny delay, floored.
  for (int i = 0; i < 1000; ++i) tracker.Record(1);
  EXPECT_NEAR(policy.DelayFor(1), 0.001, 1e-9);
  // Warm tuple: 1 update -> d = c / (N * r) = 10 / (100 * 1) = 0.1.
  tracker.Record(2);
  EXPECT_NEAR(policy.DelayFor(2), 0.1, 1e-9);
}

TEST(UpdateDelayTest, EquationNineUnderZipfRates) {
  // Direct-rate delays must equal Eq. 9 when rates follow Zipf:
  // r_i = r_max * i^-alpha  =>  d(i) = (c/N) i^alpha / r_max.
  UpdateDelayParams params;
  params.c = 2.0;
  params.n = 1000;
  params.bounds = {0.0, 1e12};
  UpdateDelayPolicy policy(nullptr, params);
  const double alpha = 1.3, rmax = 50.0;
  for (uint64_t i = 1; i <= 1000; i *= 10) {
    double rate = rmax * std::pow(static_cast<double>(i), -alpha);
    double expected = (params.c / 1000.0) *
                      std::pow(static_cast<double>(i), alpha) / rmax;
    EXPECT_NEAR(policy.DelayForRate(rate), expected, expected * 1e-9);
  }
}

TEST(UpdateDelayTest, WindowScalesRates) {
  UpdateTracker tracker(10, 1.0);
  for (int i = 0; i < 100; ++i) tracker.Record(1);
  UpdateDelayParams params;
  params.c = 1.0;
  params.n = 10;
  params.rate_window_seconds = 100.0;  // rate = 1/s.
  params.bounds = {0.0, 1e9};
  UpdateDelayPolicy policy(&tracker, params);
  EXPECT_NEAR(policy.DelayFor(1), 0.1, 1e-9);
  policy.set_rate_window_seconds(1000.0);  // rate = 0.1/s.
  EXPECT_NEAR(policy.DelayFor(1), 1.0, 1e-9);
}

// ---------- DelayEngine ----------

/// A policy that charges every key the same delay.
class ConstantPolicy : public DelayPolicy {
 public:
  explicit ConstantPolicy(double seconds) : seconds_(seconds) {}
  double DelayFor(int64_t) const override { return seconds_; }
  std::string name() const override { return "constant"; }

 private:
  double seconds_;
};

TEST(DelayEngineTest, ChargeIsBaseTimesFactorNeverBelowBase) {
  ConstantPolicy policy(0.5);
  DelayEngine engine(&policy);
  EXPECT_EQ(engine.Peek(1), 0.5);
  // Default factor: exactly the base policy's delay.
  EXPECT_EQ(engine.Charge(1), 0.5);
  // Escalated: the product, accounted as charged.
  EXPECT_EQ(engine.Charge(2, 6.0), 3.0);
  // A factor below 1 never discounts.
  EXPECT_EQ(engine.Charge(3, 0.25), 0.5);
  EXPECT_EQ(engine.charges(), 3u);
  EXPECT_EQ(engine.total_delay_seconds(), 4.0);

  // Nothing to escalate: a zero base stays zero at any factor.
  ConstantPolicy free_policy(0.0);
  DelayEngine free_engine(&free_policy);
  EXPECT_EQ(free_engine.Charge(1, 64.0), 0.0);
}

TEST(DelayEngineTest, SketchMemoryIsBounded) {
  // A long-running server charges through the engine forever; its
  // delay distribution must not keep every sample.
  ConstantPolicy policy(0.5);
  DelayEngine engine(&policy);
  for (int i = 0; i < 100'000; ++i) engine.Charge(i);
  EXPECT_LE(engine.delay_sketch().reservoir_size(), 4096u);
  EXPECT_EQ(engine.delay_sketch().count(), 100'000u);
  EXPECT_EQ(engine.delay_sketch().Sum(), 50'000.0);
  EXPECT_EQ(engine.total_delay_seconds(), 50'000.0);
  EXPECT_EQ(engine.delay_sketch().Median(), 0.5);
}

// ---------- ProtectedDatabase (integration) ----------

class ProtectedDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_pdb_" +
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

  void OpenDb(ProtectedDatabaseOptions options) {
    auto pdb =
        ProtectedDatabase::Open(dir_.string(), "items", &clock_, options);
    ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
    pdb_ = std::move(*pdb);
    ASSERT_TRUE(
        pdb_->ExecuteSql(
                "CREATE TABLE items (id INT PRIMARY KEY, name TEXT)")
            .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value("item" + std::to_string(i))})
                      .ok());
    }
  }

  fs::path dir_;
  VirtualClock clock_;
  std::unique_ptr<ProtectedDatabase> pdb_;
};

TEST_F(ProtectedDbTest, SelectChargesDelayAndLearns) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);

  // First access to key 5: it is recorded first, so count=1 ->
  // delay = scale * rank^0 / 1 = 1s.
  auto r1 = pdb_->ExecuteSql("SELECT * FROM items WHERE id = 5");
  ASSERT_TRUE(r1.ok());
  EXPECT_NEAR(r1->delay_seconds, 1.0, 1e-9);
  EXPECT_EQ(clock_.NowMicros(), 1'000'000);

  // Ten more accesses shrink the delay to 1/11.
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(pdb_->ExecuteSql("SELECT * FROM items WHERE id = 5").ok());
  }
  auto r2 = pdb_->ExecuteSql("SELECT * FROM items WHERE id = 5");
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(r2->delay_seconds, 1.0 / 11, 1e-9);
}

TEST_F(ProtectedDbTest, MultiTupleQueryChargesSum) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  auto r = pdb_->ExecuteSql("SELECT * FROM items WHERE id >= 0 AND id < 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.size(), 5u);
  // Each of the 5 tuples: count 1 -> 1s each.
  EXPECT_NEAR(r->delay_seconds, 5.0, 1e-9);
}

TEST_F(ProtectedDbTest, SelectServesItsSummedChargeAsOneStall) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0 / 3.0;  // 1/3 s per first-time tuple.
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  const int64_t before = clock_.NowMicros();
  auto r = pdb_->ExecuteSql("SELECT * FROM items WHERE id >= 0 AND id < 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.rows.size(), 3u);
  EXPECT_NEAR(r->delay_seconds, 1.0, 1e-12);
  // The statement's whole charge is rounded up once: exactly
  // DelayToMicros(sum), not the per-tuple sum of round-ups
  // (3 x 333,334 us).
  EXPECT_EQ(clock_.NowMicros() - before,
            Clock::DelayToMicros(r->delay_seconds));
  EXPECT_EQ(pdb_->Metrics().delays_charged, 3u);
  EXPECT_EQ(pdb_->Metrics().total_delay_seconds, r->delay_seconds);
}

TEST_F(ProtectedDbTest, SubMicrosecondGetByKeyStillCostsATick) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1e-9;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  const int64_t before = clock_.NowMicros();
  auto r = pdb_->GetByKey(4);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->delay_seconds, 0.0);
  ASSERT_LT(r->delay_seconds, 1e-6);
  EXPECT_EQ(clock_.NowMicros() - before, 1);
}

TEST_F(ProtectedDbTest, DeferredStatementAccountsButDoesNotServe) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  opts.defer_delay_sleep = true;
  OpenDb(opts);
  const int64_t before = clock_.NowMicros();
  auto r = pdb_->ExecuteSql("SELECT * FROM items WHERE id >= 0 AND id < 3",
                            /*factor=*/2.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->delay_seconds, 6.0, 1e-12);
  EXPECT_EQ(clock_.NowMicros(), before);  // The caller serves.
  EXPECT_EQ(pdb_->Metrics().total_delay_seconds, r->delay_seconds);
}

TEST_F(ProtectedDbTest, ExtractionPaysOrdersOfMagnitudeMore) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.05;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);

  // Legitimate workload: skewed accesses to a few hot keys.
  ZipfDistribution zipf(20, 1.5);
  Rng rng(5);
  QuantileSketch user_delays;
  for (int i = 0; i < 2000; ++i) {
    int64_t key = static_cast<int64_t>(zipf.Sample(&rng)) - 1;
    auto r = pdb_->ExecuteSql("SELECT * FROM items WHERE id = " +
                              std::to_string(key));
    ASSERT_TRUE(r.ok());
    user_delays.Add(r->delay_seconds);
  }
  // Adversary: one query per key over the whole relation.
  double adversary_total = 0;
  for (int64_t key = 0; key < 20; ++key) {
    auto r = pdb_->ExecuteSql("SELECT * FROM items WHERE id = " +
                              std::to_string(key));
    ASSERT_TRUE(r.ok());
    adversary_total += r->delay_seconds;
  }
  EXPECT_GT(adversary_total, 100 * user_delays.Median());
}

TEST_F(ProtectedDbTest, UpdateRateModeDelaysStableTuples) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kUpdateRate;
  opts.update.c = 1.0;
  opts.update.n = 20;
  opts.update.bounds = {0.0, 10.0};
  OpenDb(opts);

  // Update key 3 often; key 7 never.
  clock_.AdvanceToMicros(1'000'000);  // 1s of history.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        pdb_->ExecuteSql("UPDATE items SET name = 'x' WHERE id = 3").ok());
  }
  auto hot = pdb_->ExecuteSql("SELECT * FROM items WHERE id = 3");
  auto cold = pdb_->ExecuteSql("SELECT * FROM items WHERE id = 7");
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_LT(hot->delay_seconds, cold->delay_seconds);
  EXPECT_EQ(cold->delay_seconds, 10.0);  // Never updated -> cap.
}

TEST_F(ProtectedDbTest, WritesAreNotDelayed) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  int64_t before = clock_.NowMicros();
  auto r = pdb_->ExecuteSql("UPDATE items SET name = 'y' WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->delay_seconds, 0.0);
  EXPECT_EQ(clock_.NowMicros(), before);
}

TEST_F(ProtectedDbTest, OtherTablesPassThrough) {
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  ASSERT_TRUE(
      pdb_->ExecuteSql("CREATE TABLE other (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(pdb_->ExecuteSql("INSERT INTO other VALUES (1)").ok());
  auto r = pdb_->ExecuteSql("SELECT * FROM other WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->delay_seconds, 0.0);
  EXPECT_EQ(r->result.rows.size(), 1u);
}

TEST_F(ProtectedDbTest, GetByKeyConvenience) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  auto r = pdb_->GetByKey(4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.rows.size(), 1u);
  EXPECT_EQ(r->result.rows[0][1].AsString(), "item4");
  EXPECT_NEAR(r->delay_seconds, 1.0, 1e-9);
  EXPECT_TRUE(pdb_->GetByKey(999).status().IsNotFound());
}

TEST_F(ProtectedDbTest, PersistedCountsFlushOnCheckpoint) {
  ProtectedDatabaseOptions opts;
  opts.persist_counts = true;
  opts.count_cache_capacity = 4;
  opts.popularity.bounds = {0.0, 10.0};
  OpenDb(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pdb_->ExecuteSql("SELECT * FROM items WHERE id = 2").ok());
  }
  ASSERT_TRUE(pdb_->Checkpoint().ok());
  auto counts = pdb_->raw_database()->GetTable("items__counts");
  ASSERT_TRUE(counts.ok());
  auto row = (*counts)->GetByKey(2);
  ASSERT_TRUE(row.ok());
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 10.0);
}

TEST_F(ProtectedDbTest, MetricsSnapshotReflectsActivity) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  opts.persist_counts = true;
  OpenDb(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pdb_->ExecuteSql("SELECT * FROM items WHERE id = 5").ok());
  }
  ProtectedDatabaseMetrics m = pdb_->Metrics();
  EXPECT_EQ(m.universe_size, 20u);
  EXPECT_EQ(m.total_requests, 10u);
  EXPECT_EQ(m.distinct_keys_seen, 1u);
  EXPECT_EQ(m.delays_charged, 10u);
  EXPECT_GT(m.total_delay_seconds, 0.0);
  EXPECT_GT(m.count_cache_misses, 0u);
  EXPECT_EQ(m.policy_name, "learned-popularity");
  EXPECT_NE(m.ToString().find("requests=10"), std::string::npos);
}

TEST_F(ProtectedDbTest, NoneModeChargesNothing) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kNone;
  OpenDb(opts);
  auto r = pdb_->ExecuteSql("SELECT * FROM items");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->delay_seconds, 0.0);
  EXPECT_EQ(clock_.NowMicros(), 0);
}

TEST_F(ProtectedDbTest, OpenRejectsInvalidDelayBounds) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const DelayBounds rejected[] = {
      {1.0, 0.5},   // min > max: undefined behaviour in std::clamp.
      {0.02, 0.0},  // The default min over a max that parsed to 0.
      {-0.1, 1.0},  // Negative min.
      {nan, 1.0},   // NaN min.
      {0.0, nan},   // NaN max.
      {inf, inf},   // A min that is not finite stalls forever.
  };
  for (const DelayBounds& bounds : rejected) {
    for (bool update_side : {false, true}) {
      ProtectedDatabaseOptions opts;
      (update_side ? opts.update.bounds : opts.popularity.bounds) = bounds;
      auto pdb =
          ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
      ASSERT_FALSE(pdb.ok()) << "min " << bounds.min_seconds << " max "
                             << bounds.max_seconds << " update "
                             << update_side;
      EXPECT_EQ(pdb.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // An uncapped policy is legal on either side.
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, inf};
  opts.update.bounds = {0.0, inf};
  OpenDb(opts);
  auto r = pdb_->ExecuteSql("SELECT * FROM items WHERE id = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->delay_seconds, 0.0);
}

}  // namespace
}  // namespace tarpit
