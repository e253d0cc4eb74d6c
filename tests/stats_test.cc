#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/zipf.h"
#include "stats/count_cache.h"
#include "stats/count_tracker.h"
#include "stats/rank_index.h"
#include "storage/table.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- TreapRankIndex ----------

TEST(TreapRankIndexTest, RanksByCountDescending) {
  TreapRankIndex idx;
  idx.UpdateCount(100, 0, false, 5.0);
  idx.UpdateCount(200, 0, false, 9.0);
  idx.UpdateCount(300, 0, false, 1.0);
  EXPECT_EQ(idx.NumTracked(), 3u);
  EXPECT_EQ(idx.Rank(200, 9.0), 1u);
  EXPECT_EQ(idx.Rank(100, 5.0), 2u);
  EXPECT_EQ(idx.Rank(300, 1.0), 3u);
  EXPECT_EQ(idx.MaxCount(), 9.0);
}

TEST(TreapRankIndexTest, UpdatePromotesKey) {
  TreapRankIndex idx;
  idx.UpdateCount(1, 0, false, 1.0);
  idx.UpdateCount(2, 0, false, 2.0);
  idx.UpdateCount(3, 0, false, 3.0);
  EXPECT_EQ(idx.Rank(1, 1.0), 3u);
  idx.UpdateCount(1, 1.0, true, 10.0);
  EXPECT_EQ(idx.Rank(1, 10.0), 1u);
  EXPECT_EQ(idx.Rank(3, 3.0), 2u);
  EXPECT_EQ(idx.NumTracked(), 3u);
  EXPECT_EQ(idx.MaxCount(), 10.0);
}

TEST(TreapRankIndexTest, TiesBrokenByKey) {
  TreapRankIndex idx;
  idx.UpdateCount(7, 0, false, 4.0);
  idx.UpdateCount(3, 0, false, 4.0);
  EXPECT_EQ(idx.Rank(3, 4.0), 1u);  // Smaller key ranks first on ties.
  EXPECT_EQ(idx.Rank(7, 4.0), 2u);
}

TEST(TreapRankIndexTest, RescalePreservesOrder) {
  TreapRankIndex idx;
  idx.UpdateCount(1, 0, false, 2.0);
  idx.UpdateCount(2, 0, false, 8.0);
  idx.Rescale(0.5);
  EXPECT_EQ(idx.Rank(2, 4.0), 1u);
  EXPECT_EQ(idx.Rank(1, 1.0), 2u);
  EXPECT_EQ(idx.MaxCount(), 4.0);
}

TEST(TreapRankIndexTest, LargeRandomAgainstBruteForce) {
  TreapRankIndex idx;
  Rng rng(5);
  std::vector<std::pair<int64_t, double>> truth;  // key -> count.
  for (int64_t k = 0; k < 500; ++k) {
    double c = 1.0 + static_cast<double>(rng.Uniform(1000));
    idx.UpdateCount(k, 0, false, c);
    truth.emplace_back(k, c);
  }
  // Random promotions.
  for (int i = 0; i < 2000; ++i) {
    size_t j = rng.Uniform(truth.size());
    double old_c = truth[j].second;
    double new_c = old_c + 1.0 + static_cast<double>(rng.Uniform(50));
    idx.UpdateCount(truth[j].first, old_c, true, new_c);
    truth[j].second = new_c;
  }
  auto brute_rank = [&](int64_t key, double count) {
    uint64_t rank = 1;
    for (const auto& [k, c] : truth) {
      if (c > count || (c == count && k < key)) ++rank;
    }
    return rank;
  };
  for (int i = 0; i < 100; ++i) {
    size_t j = rng.Uniform(truth.size());
    EXPECT_EQ(idx.Rank(truth[j].first, truth[j].second),
              brute_rank(truth[j].first, truth[j].second))
        << "key " << truth[j].first;
  }
}

// ---------- CountTracker ----------

TEST(CountTrackerTest, NoDecayCountsAreExact) {
  CountTracker tracker(100, 1.0);
  for (int i = 0; i < 10; ++i) tracker.Record(5);
  for (int i = 0; i < 3; ++i) tracker.Record(7);
  EXPECT_DOUBLE_EQ(tracker.Count(5), 10.0);
  EXPECT_DOUBLE_EQ(tracker.Count(7), 3.0);
  EXPECT_DOUBLE_EQ(tracker.Count(42), 0.0);
  EXPECT_EQ(tracker.total_requests(), 13u);
  EXPECT_EQ(tracker.distinct_seen(), 2u);

  PopularityStats s5 = tracker.Stats(5);
  EXPECT_EQ(s5.rank, 1u);
  EXPECT_DOUBLE_EQ(s5.max_count, 10.0);
  EXPECT_DOUBLE_EQ(s5.total_count, 13.0);
  EXPECT_EQ(tracker.Stats(7).rank, 2u);
}

TEST(CountTrackerTest, UnseenKeyGetsUniverseRank) {
  CountTracker tracker(12179, 1.0);
  tracker.Record(1);
  PopularityStats s = tracker.Stats(999);
  EXPECT_EQ(s.rank, 12179u);
  EXPECT_DOUBLE_EQ(s.count, 0.0);
}

TEST(CountTrackerTest, DecayShiftsRankToRecentKeys) {
  // Key 1 gets 100 early requests; key 2 gets 20 recent ones. With
  // strong decay the recent key must outrank the stale one.
  CountTracker decayed(10, 1.2);
  CountTracker undecayed(10, 1.0);
  for (int i = 0; i < 100; ++i) {
    decayed.Record(1);
    undecayed.Record(1);
  }
  for (int i = 0; i < 20; ++i) {
    decayed.Record(2);
    undecayed.Record(2);
  }
  EXPECT_EQ(undecayed.Stats(1).rank, 1u);
  EXPECT_EQ(undecayed.Stats(2).rank, 2u);
  EXPECT_EQ(decayed.Stats(2).rank, 1u);
  EXPECT_EQ(decayed.Stats(1).rank, 2u);
}

TEST(CountTrackerTest, DecaySemanticsMatchExplicitDiscounting) {
  // With delta = 2, after each request every older count halves
  // relative to the new one. Two requests to A then one to B:
  // A's normalized count = 1/4 + 1/2 ... verify against the closed
  // form: count_A = delta^-2 + delta^-1 relative to the last request.
  CountTracker tracker(10, 2.0);
  tracker.Record(1);
  tracker.Record(1);
  tracker.Record(2);
  const double expected_a = std::pow(2.0, -2) + std::pow(2.0, -1);
  const double expected_b = 1.0;
  EXPECT_NEAR(tracker.Count(1) / tracker.Count(2),
              expected_a / expected_b, 1e-12);
}

TEST(CountTrackerTest, ApplyDecayFactorDiscountsEverything) {
  CountTracker tracker(10, 1.0);
  tracker.Record(1);
  tracker.Record(1);
  tracker.ApplyDecayFactor(4.0);
  EXPECT_NEAR(tracker.Count(1), 0.5, 1e-12);
  tracker.Record(2);
  EXPECT_NEAR(tracker.Count(2), 1.0, 1e-12);
  // Rank still favors key 2 now? count 1 = 0.5 < 1.0.
  EXPECT_EQ(tracker.Stats(2).rank, 1u);
}

TEST(CountTrackerTest, RenormalizationPreservesRatiosAndRanks) {
  // Huge decay rate forces renormalization quickly.
  CountTracker tracker(10, 10.0);
  for (int i = 0; i < 50; ++i) tracker.Record(1);
  for (int i = 0; i < 60; ++i) tracker.Record(2);
  EXPECT_GT(tracker.renormalizations(), 0u);
  EXPECT_EQ(tracker.Stats(2).rank, 1u);
  EXPECT_EQ(tracker.Stats(1).rank, 2u);
  // Most recent request dominates: count(2) close to
  // 1 + 1/10 + 1/100 + ... = 10/9.
  EXPECT_NEAR(tracker.Count(2), 10.0 / 9.0, 1e-6);
}

TEST(CountTrackerTest, LearnsZipfOrderingFromSamples) {
  const uint64_t n = 200;
  CountTracker tracker(n, 1.0);
  ZipfDistribution zipf(n, 1.2);
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    tracker.Record(static_cast<int64_t>(zipf.Sample(&rng)));
  }
  // The top true ranks should be learned correctly.
  for (int64_t k = 1; k <= 3; ++k) {
    EXPECT_LE(tracker.Stats(k).rank, static_cast<uint64_t>(k + 1))
        << "true rank " << k;
  }
  EXPECT_GT(tracker.Stats(190).rank, 50u);
}

// ---------- CountCache ----------

class CountCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_cc_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Schema schema(
        {{"key", ColumnType::kInt64}, {"cnt", ColumnType::kDouble}});
    auto table = Table::Create(dir_.string(), "counts", schema, 0);
    ASSERT_TRUE(table.ok());
    table_ = std::move(*table);
  }
  void TearDown() override {
    table_.reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::unique_ptr<Table> table_;
};

TEST_F(CountCacheTest, AddAndGetInMemory) {
  CountCache cache(table_.get(), 16);
  ASSERT_TRUE(cache.Add(1, 2.0).ok());
  ASSERT_TRUE(cache.Add(1, 3.0).ok());
  EXPECT_DOUBLE_EQ(*cache.Get(1), 5.0);
  EXPECT_DOUBLE_EQ(*cache.Get(99), 0.0);  // Never counted.
  // Nothing written back yet for key 1 (write-behind).
  EXPECT_EQ(cache.backing_writes(), 0u);
}

TEST_F(CountCacheTest, EvictionWritesBackDirtyEntries) {
  CountCache cache(table_.get(), 2);
  ASSERT_TRUE(cache.Add(1, 1.0).ok());
  ASSERT_TRUE(cache.Add(2, 2.0).ok());
  ASSERT_TRUE(cache.Add(3, 3.0).ok());  // Evicts key 1.
  EXPECT_GE(cache.backing_writes(), 1u);
  // Key 1's value survives in the backing table and reloads on miss.
  EXPECT_DOUBLE_EQ(*cache.Get(1), 1.0);
}

TEST_F(CountCacheTest, FlushAllPersistsEverything) {
  CountCache cache(table_.get(), 16);
  ASSERT_TRUE(cache.Add(1, 10.0).ok());
  ASSERT_TRUE(cache.Add(2, 20.0).ok());
  ASSERT_TRUE(cache.FlushAll().ok());
  auto row1 = table_->GetByKey(1);
  ASSERT_TRUE(row1.ok());
  EXPECT_DOUBLE_EQ((*row1)[1].AsDouble(), 10.0);
  auto row2 = table_->GetByKey(2);
  ASSERT_TRUE(row2.ok());
  EXPECT_DOUBLE_EQ((*row2)[1].AsDouble(), 20.0);
}

TEST_F(CountCacheTest, HitMissAccounting) {
  CountCache cache(table_.get(), 16);
  ASSERT_TRUE(cache.Add(1, 1.0).ok());  // Miss.
  ASSERT_TRUE(cache.Add(1, 1.0).ok());  // Hit.
  ASSERT_TRUE(cache.Get(1).ok());       // Hit.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST_F(CountCacheTest, LruOrderEvictsColdest) {
  CountCache cache(table_.get(), 2);
  ASSERT_TRUE(cache.Add(1, 1.0).ok());
  ASSERT_TRUE(cache.Add(2, 2.0).ok());
  ASSERT_TRUE(cache.Get(1).ok());       // Touch 1; 2 becomes coldest.
  ASSERT_TRUE(cache.Add(3, 3.0).ok());  // Evicts 2.
  EXPECT_EQ(cache.size(), 2u);
  uint64_t misses_before = cache.misses();
  ASSERT_TRUE(cache.Get(1).ok());  // Still cached.
  EXPECT_EQ(cache.misses(), misses_before);
  ASSERT_TRUE(cache.Get(2).ok());  // Reload.
  EXPECT_EQ(cache.misses(), misses_before + 1);
  EXPECT_DOUBLE_EQ(*cache.Get(2), 2.0);
}

}  // namespace
}  // namespace tarpit
