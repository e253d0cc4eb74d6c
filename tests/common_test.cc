#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/zipf.h"

namespace tarpit {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("tuple 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: tuple 42");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    TARPIT_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 3;
  };
  auto consume = [&](bool fail) -> Result<int> {
    TARPIT_ASSIGN_OR_RETURN(int v, produce(fail));
    return v * 2;
  };
  EXPECT_EQ(*consume(false), 6);
  EXPECT_FALSE(consume(true).ok());
}

TEST(VirtualClockTest, SleepAdvances) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.SleepForMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SleepForMicros(-5);  // Negative sleeps are ignored.
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceToMicros(120);  // Never moves backwards.
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceToMicros(200);
  EXPECT_EQ(clock.NowMicros(), 200);
}

TEST(RealClockTest, MonotonicAndSleeps) {
  RealClock clock;
  int64_t a = clock.NowMicros();
  clock.SleepForMicros(2000);
  int64_t b = clock.NowMicros();
  EXPECT_GE(b - a, 2000);
}

TEST(ClockTest, IsVirtualDistinguishesClockKinds) {
  RealClock real;
  VirtualClock virt;
  EXPECT_FALSE(real.IsVirtual());
  EXPECT_TRUE(virt.IsVirtual());
}

TEST(ClockTest, DelayToMicrosRoundsUpNotDown) {
  // The old truncating cast mapped any sub-microsecond delay to zero,
  // so small charges never reached wall time. Rounding is UP: a
  // positive charge always costs at least 1 us.
  EXPECT_EQ(Clock::DelayToMicros(4e-7), 1);
  EXPECT_EQ(Clock::DelayToMicros(1e-9), 1);
  EXPECT_EQ(Clock::DelayToMicros(1e-6), 1);    // Exact: no inflation.
  EXPECT_EQ(Clock::DelayToMicros(1.5e-6), 2);
  EXPECT_EQ(Clock::DelayToMicros(0.25), 250'000);
}

TEST(ClockTest, DelayToMicrosDegenerateInputs) {
  EXPECT_EQ(Clock::DelayToMicros(0.0), 0);
  EXPECT_EQ(Clock::DelayToMicros(-3.0), 0);
  EXPECT_EQ(Clock::DelayToMicros(std::nan("")), 0);
  // Beyond-int64 delays clamp instead of overflowing.
  EXPECT_EQ(Clock::DelayToMicros(1e300),
            std::numeric_limits<int64_t>::max());
}

TEST(ClockTest, VirtualSleepForSecondsAdvancesRoundedUp) {
  VirtualClock clock;
  clock.SleepForSeconds(4e-7);  // Sub-microsecond: still costs a tick.
  EXPECT_EQ(clock.NowMicros(), 1);
}

TEST(StatusTest, CancelledCode) {
  Status s = Status::Cancelled("stall cancelled before expiry");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(s.ToString(), "Cancelled: stall cancelled before expiry");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(2);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) ++seen[rng.Uniform(8)];
  for (int v : seen) EXPECT_GT(v, 0);
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ExponentialMeanApproximatesInverseRate) {
  Rng rng(6);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stat.mean(), 0.5, 0.02);
}

TEST(ZipfMathTest, HarmonicMatchesDirectSum) {
  // H_{10,1} = 2.9289682...
  EXPECT_NEAR(GeneralizedHarmonic(10, 1.0), 2.9289682539682538, 1e-12);
  // H_{5,2} = 1 + 1/4 + 1/9 + 1/16 + 1/25.
  EXPECT_NEAR(GeneralizedHarmonic(5, 2.0),
              1.0 + 0.25 + 1.0 / 9 + 1.0 / 16 + 0.04, 1e-12);
}

TEST(ZipfMathTest, PowerSumSmall) {
  // 1^2 + 2^2 + 3^2 + 4^2 = 30.
  EXPECT_NEAR(PowerSum(4, 2.0), 30.0, 1e-9);
  // Sum of first 100 integers = 5050.
  EXPECT_NEAR(PowerSum(100, 1.0), 5050.0, 1e-6);
}

TEST(ZipfMathTest, LargeNApproximationIsClose) {
  // For n beyond the direct-sum limit the Euler-Maclaurin branch must
  // agree with the closed form for s=2 tail: H_{inf,2} = pi^2/6.
  double h = GeneralizedHarmonic(50'000'000, 2.0);
  EXPECT_NEAR(h, M_PI * M_PI / 6.0, 1e-7);
}

TEST(ZipfDistributionTest, PmfNormalized) {
  ZipfDistribution z(1000, 1.2);
  double total = 0.0;
  for (uint64_t i = 1; i <= 1000; ++i) total += z.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfDistributionTest, SamplesInRange) {
  ZipfDistribution z(50, 0.8);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    uint64_t s = z.Sample(&rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 50u);
  }
}

class ZipfFrequencyTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfFrequencyTest, EmpiricalFrequencyMatchesPmf) {
  const double alpha = GetParam();
  const uint64_t n = 100;
  const int draws = 200000;
  ZipfDistribution z(n, alpha);
  Rng rng(11);
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < draws; ++i) ++counts[z.Sample(&rng)];
  // Check the head ranks where mass is concentrated.
  for (uint64_t i = 1; i <= 5; ++i) {
    double expected = z.Pmf(i) * draws;
    EXPECT_NEAR(counts[i], expected, 5 * std::sqrt(expected) + 30)
        << "rank " << i << " alpha " << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfFrequencyTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0, 2.5));

TEST(ZipfDistributionTest, SingleElement) {
  ZipfDistribution z(1, 1.5);
  Rng rng(8);
  EXPECT_EQ(z.Sample(&rng), 1u);
  EXPECT_NEAR(z.Pmf(1), 1.0, 1e-12);
}

TEST(ExpectedZipfCountsTest, SumsToRequests) {
  auto counts = ExpectedZipfCounts(100, 1.5, 1e6);
  double total = 0.0;
  for (double c : counts) total += c;
  EXPECT_NEAR(total, 1e6, 1e-3);
  // Monotone decreasing by rank.
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LE(counts[i], counts[i - 1]);
  }
}

TEST(RunningStatTest, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(QuantileSketchTest, MedianOddEven) {
  QuantileSketch q;
  for (double x : {5.0, 1.0, 3.0}) q.Add(x);
  EXPECT_NEAR(q.Median(), 3.0, 1e-12);
  q.Add(7.0);
  EXPECT_NEAR(q.Median(), 4.0, 1e-12);  // Interpolated between 3 and 5.
}

TEST(QuantileSketchTest, ExtremesAndInterpolation) {
  QuantileSketch q;
  for (int i = 1; i <= 100; ++i) q.Add(i);
  EXPECT_EQ(q.Quantile(0.0), 1.0);
  EXPECT_EQ(q.Quantile(1.0), 100.0);
  EXPECT_NEAR(q.Quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(q.Mean(), 50.5, 1e-9);
}

TEST(QuantileSketchTest, EmptyReturnsZero) {
  QuantileSketch q;
  EXPECT_EQ(q.Median(), 0.0);
  EXPECT_EQ(q.Sum(), 0.0);
}

TEST(QuantileSketchTest, AddAfterQueryStaysSorted) {
  QuantileSketch q;
  q.Add(10.0);
  EXPECT_EQ(q.Median(), 10.0);
  q.Add(0.0);
  q.Add(20.0);
  EXPECT_EQ(q.Median(), 10.0);
}

TEST(LogHistogramTest, BucketsAndOverflow) {
  LogHistogram h(1.0, 10.0, 3);  // [0,1) [1,10) [10,100) overflow.
  h.Add(0.5);
  h.Add(2.0);
  h.Add(50.0);
  h.Add(1e9);
  EXPECT_EQ(h.total(), 4);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.BucketCount(3), 1);
  EXPECT_EQ(h.BucketLowerBound(0), 0.0);
  EXPECT_NEAR(h.BucketLowerBound(2), 10.0, 1e-9);
}

// ---------- Crc32 ----------

// Bit-at-a-time CRC-32 (reflected 0xEDB88320, init and xor-out
// 0xFFFFFFFF): the definition every Crc32 kernel must reproduce.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ReferenceCrc32(reinterpret_cast<const unsigned char*>("123456789"),
                           9),
            0xCBF43926u);

  // A page's usable prefix; these values are what earlier builds wrote
  // into page trailers, so they pin the on-disk format.
  std::vector<unsigned char> page(4092);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<unsigned char>((i * 7 + 3) & 0xFF);
  }
  EXPECT_EQ(Crc32(page.data(), page.size()), 0x23AE1A6Du);
  std::vector<unsigned char> zeroes(4092, 0);
  EXPECT_EQ(Crc32(zeroes.data(), zeroes.size()), 0x603B0489u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // 4,092 + 15 bytes of varied content; every start offset 0-15 puts the
  // 16-byte step on a different alignment.
  std::vector<unsigned char> buf(4092 + 16);
  Rng rng(16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4092);
  for (size_t off = 0; off < 16; ++off) {
    for (size_t n : lengths) {
      const unsigned char* p = buf.data() + off;
      ASSERT_EQ(Crc32(p, n), ReferenceCrc32(p, n))
          << "offset " << off << " length " << n;
      ASSERT_EQ(Crc32(p, n, 0x12345678u), ReferenceCrc32(p, n, 0x12345678u))
          << "seeded, offset " << off << " length " << n;
    }
  }
}

TEST(Crc32Test, ChainingAcrossTheSixteenByteStep) {
  std::vector<unsigned char> buf(100);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 31 + 5);
  }
  const uint32_t whole = Crc32(buf.data(), buf.size());
  // Split points on both sides of each 16-byte boundary.
  for (size_t na = 0; na <= buf.size(); ++na) {
    const uint32_t head = Crc32(buf.data(), na);
    ASSERT_EQ(Crc32(buf.data() + na, buf.size() - na, head), whole)
        << "split at " << na;
  }
}

}  // namespace
}  // namespace tarpit
