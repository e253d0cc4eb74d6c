// Unit + integration tests for src/obs/: the log-bucketed histogram
// (against the exact QuantileSketch as ground truth), the metric
// registry, the exposition formats, the trace sink, the periodic file
// exporter -- plus the satellites that ride with ISSUE 4: the bounded
// reservoir sketch and clock-injected audit timestamps.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/concurrent_db.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- Histogram geometry ----------

TEST(HistogramTest, ExactRegionBelowSubBucketCount) {
  // Values under 2^sub_bits get one bucket each: zero relative error.
  for (int64_t v : {0, 1, 2, 63, 127}) {
    const size_t idx = obs::Histogram::BucketIndex(7, v);
    EXPECT_EQ(obs::Histogram::BucketLowerBound(7, idx), v);
    EXPECT_EQ(obs::Histogram::BucketUpperBound(7, idx), v + 1);
  }
}

TEST(HistogramTest, BucketBoundsContainValue) {
  Rng rng(0x0B5);
  for (int sub_bits : {1, 7, 11}) {
    for (int i = 0; i < 2000; ++i) {
      // Log-uniform values across the full positive range.
      const int shift = static_cast<int>(rng.Next() % 63);
      const int64_t v =
          static_cast<int64_t>(rng.Next() & ((uint64_t{1} << shift) - 1));
      const size_t idx = obs::Histogram::BucketIndex(sub_bits, v);
      ASSERT_LT(idx, obs::Histogram::NumBuckets(sub_bits));
      EXPECT_LE(obs::Histogram::BucketLowerBound(sub_bits, idx), v);
      EXPECT_GT(obs::Histogram::BucketUpperBound(sub_bits, idx), v);
    }
  }
}

TEST(HistogramTest, BucketRelativeWidthBounded) {
  // Above the exact region, (hi-lo)/lo <= 2^-sub_bits: the histogram's
  // advertised worst-case quantile error.
  for (int sub_bits : {7, 11}) {
    const double max_rel = std::ldexp(1.0, -sub_bits);
    for (size_t idx = size_t{1} << sub_bits;
         idx < obs::Histogram::NumBuckets(sub_bits); idx += 97) {
      const double lo = static_cast<double>(
          obs::Histogram::BucketLowerBound(sub_bits, idx));
      const double hi = static_cast<double>(
          obs::Histogram::BucketUpperBound(sub_bits, idx));
      EXPECT_LE((hi - lo) / lo, max_rel * (1 + 1e-12));
    }
  }
}

TEST(HistogramTest, CountSumMinMax) {
  obs::Histogram h;
  h.Record(5);
  h.Record(1000);
  h.Record(3);
  h.Record(-7);  // Clamped to 0.
  EXPECT_EQ(h.Count(), 4);
  EXPECT_EQ(h.Sum(), 1008);
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.sum, 1008);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 1000);
}

TEST(HistogramTest, QuantilesMatchExactSketchGroundTruth) {
  // Zipf-ish heavy-tailed values: the regime the delay histograms
  // actually see. Every quantile must agree with the exact sketch
  // within one bucket's relative width.
  obs::HistogramOptions opts;
  opts.sub_bits = 11;
  obs::Histogram h(opts);
  QuantileSketch exact;
  Rng rng(0xFACE);
  for (int i = 0; i < 50000; ++i) {
    const double u = (static_cast<double>(rng.Next() % 1000000) + 1) / 1e6;
    const int64_t v =
        static_cast<int64_t>(2e7 / std::pow(u, 1.2));  // >= 2e7.
    h.Record(v);
    exact.Add(static_cast<double>(v));
  }
  const obs::HistogramSnapshot s = h.Snapshot();
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    const double truth = exact.Quantile(q);
    EXPECT_NEAR(s.Quantile(q) / truth, 1.0, 2 * std::ldexp(1.0, -11))
        << "q=" << q;
  }
  EXPECT_NEAR(s.Median() / exact.Median(), 1.0, 2 * std::ldexp(1.0, -11));
}

TEST(HistogramTest, MergeAccumulates) {
  obs::Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.Record(i);
  for (int i = 101; i <= 200; ++i) b.Record(i);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 200);
  EXPECT_EQ(a.Sum(), 200 * 201 / 2);
  const obs::HistogramSnapshot s = a.Snapshot();
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 200);
  EXPECT_NEAR(s.Median(), 100.0, 2.0);
}

TEST(HistogramTest, NanosFromSeconds) {
  EXPECT_EQ(obs::NanosFromSeconds(0.0), 0);
  EXPECT_EQ(obs::NanosFromSeconds(-1.0), 0);
  EXPECT_EQ(obs::NanosFromSeconds(1.0), 1000000000);
  EXPECT_EQ(obs::NanosFromSeconds(0.02), 20000000);
  EXPECT_EQ(obs::NanosFromSeconds(1e12), INT64_MAX);  // Clamped.
}

// ---------- Registry ----------

TEST(MetricRegistryTest, SameSeriesSamePointer) {
  obs::MetricRegistry reg;
  obs::Counter* a = reg.GetCounter("hits", {{"table", "t"}, {"pool", "p"}});
  // Label order must not matter.
  obs::Counter* b = reg.GetCounter("hits", {{"pool", "p"}, {"table", "t"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("hits", {{"table", "u"}, {"pool", "p"}}));
  EXPECT_NE(a, reg.GetCounter("hits"));
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistryTest, SnapshotFindAndValues) {
  obs::MetricRegistry reg;
  reg.GetCounter("c", {{"k", "v"}})->Increment(41);
  reg.GetCounter("c", {{"k", "v"}})->Increment();
  reg.GetGauge("g")->Set(-7);
  obs::HistogramOptions opts;
  opts.unit = "us";
  reg.GetHistogram("h", {}, opts)->Record(9);

  const obs::RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  const obs::MetricSnapshot* c = snap.Find("c", {{"k", "v"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42);
  EXPECT_EQ(snap.Find("c"), nullptr);  // Labels are part of identity.
  const obs::MetricSnapshot* g = snap.Find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -7);
  const obs::MetricSnapshot* h = snap.Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, 1);
  EXPECT_EQ(h->histogram.unit, "us");
}

// ---------- Exposition ----------

TEST(ExpositionTest, PrometheusTextShape) {
  obs::MetricRegistry reg;
  reg.GetCounter("tarpit_x_total", {{"table", "items"}})->Increment(3);
  reg.GetGauge("tarpit_level")->Set(12);
  obs::HistogramOptions opts;
  opts.unit = "us";
  obs::Histogram* h = reg.GetHistogram("tarpit_lat", {}, opts);
  h->Record(1);
  h->Record(100);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE tarpit_x_total counter"), std::string::npos);
  EXPECT_NE(text.find("tarpit_x_total{table=\"items\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tarpit_level gauge"), std::string::npos);
  EXPECT_NE(text.find("tarpit_level 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tarpit_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("tarpit_lat_sum 101"), std::string::npos);
  EXPECT_NE(text.find("tarpit_lat_count 2"), std::string::npos);
}

// A family registered in pieces (another metric between its series)
// is still exposed once: one # TYPE line, then its series together.
TEST(ExpositionTest, PrometheusTextEmitsEachFamilyOnce) {
  obs::MetricRegistry reg;
  reg.GetCounter("tarpit_split_total", {{"door", "a"}})->Increment(1);
  reg.GetGauge("tarpit_between")->Set(5);
  reg.GetCounter("tarpit_split_total", {{"door", "b"}})->Increment(2);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  const std::string type = "# TYPE tarpit_split_total counter\n";
  const size_t first = text.find(type);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(type, first + 1), std::string::npos) << text;
  EXPECT_NE(text.find(type + "tarpit_split_total{door=\"a\"} 1\n"
                             "tarpit_split_total{door=\"b\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tarpit_between gauge\ntarpit_between 5\n"),
            std::string::npos)
      << text;
}

TEST(ExpositionTest, JsonContainsSeries) {
  obs::MetricRegistry reg;
  reg.GetCounter("a_total", {{"k", "v"}})->Increment(5);
  reg.GetHistogram("b")->Record(77);
  const std::string json = obs::ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"name\":\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ExpositionTest, PeriodicExporterWriteOnceAndFlushOnStop) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_obs_test_exp";
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::MetricRegistry reg;
  reg.GetCounter("tarpit_events_total")->Increment(9);

  obs::PeriodicExporterOptions opts;
  opts.path = (dir / "metrics.prom").string();
  opts.interval_seconds = 3600;  // Never fires during the test.
  opts.flush_on_stop = true;
  {
    obs::PeriodicExporter exporter(&reg, opts);
    EXPECT_TRUE(exporter.WriteOnce());
    EXPECT_GE(exporter.writes(), 1u);
  }  // Destructor stops and flushes.
  std::ifstream in(opts.path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("tarpit_events_total 9"), std::string::npos);
  fs::remove_all(dir);
}

// ---------- TraceSink ----------

obs::RequestTrace MakeTrace(uint64_t id, int64_t total_micros) {
  obs::RequestTrace t;
  t.request_id = id;
  t.op = "get_by_key";
  t.start_micros = 0;
  t.end_micros = total_micros;
  return t;
}

TEST(TraceSinkTest, KeepsSlowestN) {
  obs::TraceSinkOptions opts;
  opts.slowest_capacity = 4;
  opts.recent_sample_every = 1;
  opts.sample_every = 1;
  obs::TraceSink sink(opts);
  for (uint64_t i = 1; i <= 100; ++i) {
    sink.Complete(MakeTrace(i, static_cast<int64_t>(i)));
  }
  EXPECT_EQ(sink.completed_total(), 100u);
  const std::vector<obs::RequestTrace> slowest = sink.Slowest();
  ASSERT_EQ(slowest.size(), 4u);
  EXPECT_EQ(slowest[0].TotalMicros(), 100);
  EXPECT_EQ(slowest[3].TotalMicros(), 97);
}

TEST(TraceSinkTest, RecentRingSamplesAndWraps) {
  obs::TraceSinkOptions opts;
  opts.recent_capacity = 8;
  opts.recent_sample_every = 2;  // Every other request.
  opts.sample_every = 1;
  obs::TraceSink sink(opts);
  for (uint64_t i = 1; i <= 64; ++i) {
    sink.Complete(MakeTrace(i, 10));
  }
  const std::vector<obs::RequestTrace> recent = sink.Recent();
  ASSERT_EQ(recent.size(), 8u);  // Bounded despite 32 samples.
  // Oldest-first and strictly increasing ids among the sampled set.
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i - 1].request_id, recent[i].request_id);
  }
}

TEST(TraceSinkTest, HeadSamplingHonorsEvery) {
  obs::TraceSinkOptions opts;
  opts.sample_every = 4;
  obs::TraceSink sink(opts);
  int sampled = 0;
  for (int i = 0; i < 64; ++i) {
    if (sink.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 16);

  obs::TraceSinkOptions all;
  all.sample_every = 1;
  obs::TraceSink every(all);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(every.ShouldSample());
}

TEST(TraceSinkTest, ToJsonHasBothSets) {
  obs::TraceSinkOptions opts;
  opts.recent_sample_every = 1;
  opts.sample_every = 1;
  obs::TraceSink sink(opts);
  obs::RequestTrace t = MakeTrace(7, 42);
  t.phase_micros[static_cast<int>(obs::TracePhase::kPark)] = 40;
  sink.Complete(t);
  const std::string json = sink.ToJson();
  EXPECT_NE(json.find("\"completed_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"park\":40"), std::string::npos);
  EXPECT_NE(json.find("\"slowest\":["), std::string::npos);
  EXPECT_NE(json.find("\"recent\":["), std::string::npos);
}

// ---------- BoundedQuantileSketch (satellite) ----------

TEST(BoundedQuantileSketchTest, ExactBelowCapacity) {
  BoundedQuantileSketch sketch(128);
  for (int i = 1; i <= 100; ++i) sketch.Add(i);
  EXPECT_EQ(sketch.count(), 100u);
  EXPECT_EQ(sketch.reservoir_size(), 100u);
  EXPECT_DOUBLE_EQ(sketch.Sum(), 5050.0);
  EXPECT_NEAR(sketch.Median(), 50.5, 1.0);
}

TEST(BoundedQuantileSketchTest, BoundedMemoryApproximateQuantiles) {
  BoundedQuantileSketch sketch(1024);
  for (int i = 0; i < 200000; ++i) {
    sketch.Add(static_cast<double>(i % 1000));
  }
  EXPECT_EQ(sketch.count(), 200000u);
  EXPECT_EQ(sketch.reservoir_size(), 1024u);  // Never grows past cap.
  // Uniform over [0,1000): reservoir median within a few rank percent.
  EXPECT_NEAR(sketch.Median(), 500.0, 60.0);
  EXPECT_NEAR(sketch.Mean(), 499.5, 1e-9);  // Sum/count stay exact.
}

TEST(BoundedQuantileSketchTest, MergePreservesCountAndSum) {
  BoundedQuantileSketch a(64), b(64);
  for (int i = 0; i < 1000; ++i) a.Add(1.0);
  for (int i = 0; i < 3000; ++i) b.Add(5.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4000u);
  EXPECT_DOUBLE_EQ(a.Sum(), 1000.0 + 15000.0);
  // 3/4 of the mass is 5.0, so the median must be 5.0-ish.
  EXPECT_NEAR(a.Median(), 5.0, 1e-9);
}

// ---------- End-to-end: instrumented database ----------

TEST(ObsIntegrationTest, DatabasePublishesMetricsAndTraces) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_obs_test_db";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::MetricRegistry registry;
  obs::TraceSinkOptions sink_opts;
  sink_opts.sample_every = 1;        // Trace every request.
  sink_opts.recent_sample_every = 1;
  obs::TraceSink sink(sink_opts);

  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = true;  // Virtual clock: sleeps advance time.
  copts.metrics = &registry;
  copts.trace_sink = &sink;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, opts, copts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(*opened);
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 1; i <= 32; ++i) {
    ASSERT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)}).ok());
  }
  constexpr int kReads = 64;
  for (int i = 0; i < kReads; ++i) {
    auto r = db->GetByKey(i % 32 + 1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  db.reset();  // Quiesce writers: the snapshot below is exact.

  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::MetricSnapshot* requests =
      snap.Find("tarpit_db_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, kReads + 1);  // Reads + CREATE TABLE.
  const obs::MetricSnapshot* hits = snap.Find("tarpit_row_cache_hits_total");
  const obs::MetricSnapshot* misses =
      snap.Find("tarpit_row_cache_misses_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->value + misses->value, kReads);
  EXPECT_EQ(misses->value, 32);  // One storage trip per distinct key.
  const obs::MetricSnapshot* delay_hist = snap.Find(
      "tarpit_delay_charged_ns", {{"policy", "access-popularity"}});
  ASSERT_NE(delay_hist, nullptr);
  EXPECT_EQ(delay_hist->histogram.count, kReads + 1);
  EXPECT_GT(delay_hist->histogram.max, 0);

  // Every request traced; the park phase carries the charged stall on
  // the virtual timeline, and no phase time is lost (phases sum to the
  // span).
  EXPECT_EQ(sink.completed_total(), static_cast<uint64_t>(kReads) + 1);
  bool saw_parked_read = false;
  for (const obs::RequestTrace& t : sink.Slowest()) {
    int64_t phase_sum = 0;
    for (int p = 0; p < obs::kNumTracePhases; ++p) {
      phase_sum += t.phase_micros[p];
    }
    EXPECT_EQ(phase_sum, t.TotalMicros());
    if (std::string(t.op) == "get_by_key" &&
        t.phase_micros[static_cast<int>(obs::TracePhase::kPark)] > 0) {
      saw_parked_read = true;
      EXPECT_GT(t.charged_delay_seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_parked_read);

  // The same pipeline is visible through the exposition surface.
  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("tarpit_db_requests_total 65"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tarpit
