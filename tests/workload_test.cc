#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "workload/boxoffice_trace.h"
#include "workload/calgary_trace.h"
#include "workload/key_generator.h"

namespace tarpit {
namespace {

TEST(KeyGeneratorTest, ZipfKeysInRangeAndSkewed) {
  ZipfKeyGenerator gen(1000, 1.5);
  Rng rng(1);
  std::vector<int> counts(1001, 0);
  for (int i = 0; i < 50000; ++i) {
    int64_t k = gen.Next(&rng);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 1000);
    ++counts[k];
  }
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[1], 50000 / 10);  // Head heavy.
}

TEST(KeyGeneratorTest, UniformKeysCoverRangeEvenly) {
  UniformKeyGenerator gen(100);
  Rng rng(2);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 100000; ++i) ++counts[gen.Next(&rng)];
  for (int k = 1; k <= 100; ++k) {
    EXPECT_GT(counts[k], 700) << k;
    EXPECT_LT(counts[k], 1300) << k;
  }
}

TEST(CalgaryTraceTest, GeneratesConfiguredShape) {
  CalgaryTraceConfig config;
  config.objects = 500;
  config.requests = 50'000;
  config.alpha = 1.5;
  config.duration_seconds = 1000.0;
  CalgaryTrace trace(config);
  auto requests = trace.Generate();
  ASSERT_EQ(requests.size(), 50'000u);
  // Time-ordered, spanning the duration.
  EXPECT_GE(requests.front().time_seconds, 0.0);
  EXPECT_LT(requests.back().time_seconds, 1000.0);
  for (size_t i = 1; i < requests.size(); i += 997) {
    EXPECT_GE(requests[i].time_seconds, requests[i - 1].time_seconds);
  }
  // Empirical head frequency tracks the expected Zipf frequency.
  std::vector<int> counts(config.objects + 1, 0);
  for (const auto& r : requests) ++counts[r.key];
  for (uint64_t rank = 1; rank <= 3; ++rank) {
    double expected = trace.ExpectedFrequency(rank);
    EXPECT_NEAR(counts[rank], expected, expected * 0.15) << rank;
  }
}

TEST(CalgaryTraceTest, DefaultsMatchThePaper) {
  CalgaryTraceConfig config;
  EXPECT_EQ(config.objects, 12'179u);
  EXPECT_EQ(config.requests, 725'091u);
  EXPECT_DOUBLE_EQ(config.alpha, 1.5);
}

TEST(CalgaryTraceTest, DeterministicForSeed) {
  CalgaryTraceConfig config;
  config.objects = 100;
  config.requests = 1000;
  CalgaryTrace a(config), b(config);
  auto ta = a.Generate();
  auto tb = b.Generate();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); i += 101) {
    EXPECT_EQ(ta[i].key, tb[i].key);
  }
}

TEST(BoxOfficeTraceTest, LifecycleShapes) {
  BoxOfficeTraceConfig config;
  BoxOfficeTrace trace(config);
  ASSERT_EQ(trace.films().size(), 634u);

  // Weekly gross decays geometrically after release and is zero before.
  const Film& film = trace.films()[0];
  EXPECT_EQ(trace.WeeklyGross(film, film.release_week - 1), 0.0);
  double open = trace.WeeklyGross(film, film.release_week);
  EXPECT_GT(open, 0.0);
  if (film.release_week + 1 < config.weeks) {
    EXPECT_NEAR(trace.WeeklyGross(film, film.release_week + 1),
                open * film.weekly_decay, 1e-6);
  }
}

TEST(BoxOfficeTraceTest, WeeklySkewSharperThanAnnual) {
  // The paper's key observation: each week is sharply skewed (Fig. 3)
  // while the year-aggregate is flatter (Fig. 2). Compare top1/top10
  // ratios.
  BoxOfficeTrace trace(BoxOfficeTraceConfig{});
  auto annual = trace.AnnualGross();
  std::sort(annual.begin(), annual.end(), std::greater<>());
  double annual_ratio = annual[0] / annual[9];

  double max_weekly_ratio = 0;
  for (int w = 0; w < 52; ++w) {
    auto week = trace.WeekGross(w);
    std::sort(week.begin(), week.end(), std::greater<>());
    if (week[9] > 0) {
      max_weekly_ratio = std::max(max_weekly_ratio, week[0] / week[9]);
    }
  }
  EXPECT_GT(max_weekly_ratio, annual_ratio);
}

TEST(BoxOfficeTraceTest, RequestVolumeMatchesDollars) {
  BoxOfficeTraceConfig config;
  BoxOfficeTrace trace(config);
  auto weekly = trace.GenerateWeeklyRequests();
  ASSERT_EQ(weekly.size(), 52u);
  uint64_t total_requests = 0;
  for (const auto& week : weekly) total_requests += week.size();
  auto annual = trace.AnnualGross();
  double total_gross = std::accumulate(annual.begin(), annual.end(), 0.0);
  // One request per $100k, rounded down per film-week.
  EXPECT_LE(total_requests, total_gross / config.dollars_per_request);
  EXPECT_GT(total_requests,
            0.8 * total_gross / config.dollars_per_request);
  // Keys are valid film ids.
  for (int64_t key : weekly[0]) {
    EXPECT_GE(key, 1);
    EXPECT_LE(key, static_cast<int64_t>(config.films));
  }
}

TEST(BoxOfficeTraceTest, TopAnnualGrossInPaperBallpark) {
  // The 2002 #1 (Spider-Man) grossed ~$404M; our synthetic top film
  // should land within a factor of ~2.
  BoxOfficeTrace trace(BoxOfficeTraceConfig{});
  auto annual = trace.AnnualGross();
  double top = *std::max_element(annual.begin(), annual.end());
  EXPECT_GT(top, 150e6);
  EXPECT_LT(top, 800e6);
}

}  // namespace
}  // namespace tarpit
