// Forensics & continuous self-audit layer (ISSUE 9): the time-series
// scraper, the self-audit watchdog (zero false positives benign,
// one-pass detection of failpoint-injected ledger drift), extraction-
// risk scoring against the adversary zoo, Chrome-trace export span
// accounting, and the QueryGate's decisions on the defense event ring.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "core/resource_governor.h"
#include "core/self_audit.h"
#include "defense/query_gate.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/risk.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "obs/watchdog.h"
#include "sim/adversary_zoo.h"
#include "workload/key_generator.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------------- MetricTimeSeries ----------------------------------

TEST(MetricTimeSeriesTest, CountersScrapeValueAndDelta) {
  obs::MetricRegistry registry;
  obs::Counter* c = registry.GetCounter("tarpit_test_total");
  obs::MetricTimeSeries ts(&registry);

  c->Increment(5);
  EXPECT_EQ(ts.ScrapeOnce(1.0), 0u);
  c->Increment(3);
  EXPECT_EQ(ts.ScrapeOnce(2.0), 1u);

  const std::vector<obs::TimeSeriesPoint> pts =
      ts.Series("tarpit_test_total");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].time_seconds, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].value, 5.0);
  EXPECT_DOUBLE_EQ(pts[0].delta, 0.0);  // No prior point.
  EXPECT_DOUBLE_EQ(pts[1].time_seconds, 2.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 8.0);
  EXPECT_DOUBLE_EQ(pts[1].delta, 3.0);

  obs::TimeSeriesPoint latest;
  ASSERT_TRUE(ts.Latest("tarpit_test_total", {}, {}, &latest));
  EXPECT_DOUBLE_EQ(latest.value, 8.0);
  EXPECT_EQ(ts.scrapes_total(), 2u);
}

TEST(MetricTimeSeriesTest, WindowIsARingWithFixedMemory) {
  obs::MetricRegistry registry;
  obs::Counter* c = registry.GetCounter("tarpit_ring_total");
  obs::MetricTimeSeriesOptions opts;
  opts.window = 4;
  obs::MetricTimeSeries ts(&registry, opts);

  for (int i = 1; i <= 10; ++i) {
    c->Increment(1);
    ts.ScrapeOnce(static_cast<double>(i));
  }
  const std::vector<obs::TimeSeriesPoint> pts =
      ts.Series("tarpit_ring_total");
  ASSERT_EQ(pts.size(), 4u);  // Only the window is retained.
  EXPECT_DOUBLE_EQ(pts.front().time_seconds, 7.0);  // Oldest kept.
  EXPECT_DOUBLE_EQ(pts.back().time_seconds, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().value, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().delta, 1.0);
}

TEST(MetricTimeSeriesTest, HistogramSubSeriesAndCardinalityCap) {
  obs::MetricRegistry registry;
  obs::Histogram* h = registry.GetHistogram("tarpit_lat_ns");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);
  obs::MetricTimeSeries ts(&registry);
  ts.ScrapeOnce(1.0);

  obs::TimeSeriesPoint count, p99;
  ASSERT_TRUE(ts.Latest("tarpit_lat_ns", {}, "count", &count));
  EXPECT_DOUBLE_EQ(count.value, 100.0);
  ASSERT_TRUE(ts.Latest("tarpit_lat_ns", {}, "p99", &p99));
  EXPECT_GT(p99.value, 0.0);

  // Cardinality explosion degrades to "newest untracked", not
  // unbounded growth.
  obs::MetricRegistry wide;
  for (int i = 0; i < 8; ++i) {
    wide.GetCounter("tarpit_wide_total",
                    {{"shard", std::to_string(i)}});
  }
  obs::MetricTimeSeriesOptions capped;
  capped.max_series = 3;
  obs::MetricTimeSeries cts(&wide, capped);
  cts.ScrapeOnce(1.0);
  EXPECT_EQ(cts.tracked_series(), 3u);
  EXPECT_GT(cts.dropped_series(), 0u);
}

// ---------------- Self-audit watchdog -------------------------------

std::unique_ptr<ConcurrentProtectedDatabase> OpenAuditedDb(
    const fs::path& dir, Clock* clock, obs::MetricRegistry* metrics) {
  fs::create_directories(dir);
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Charges recorded, stalls skipped.
  copts.metrics = metrics;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  clock, opts, copts);
  EXPECT_TRUE(opened.ok());
  if (!opened.ok()) return nullptr;
  auto db = std::move(*opened);
  EXPECT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 1; i <= 256; ++i) {
    EXPECT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(0.5)})
            .ok());
  }
  EXPECT_TRUE(db->Checkpoint().ok());
  return db;
}

void RunUniformReads(ConcurrentProtectedDatabase* db, int ops,
                     uint64_t seed) {
  Rng rng(seed);
  UniformKeyGenerator gen(256);
  for (int i = 0; i < ops; ++i) {
    ASSERT_TRUE(db->GetByKey(gen.Next(&rng)).ok());
  }
}

TEST(SelfAuditWatchdogTest, BenignVirtualClockRunHasZeroFalsePositives) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_wd_benign";
  fs::remove_all(dir);
  VirtualClock clock;
  obs::MetricRegistry registry;
  auto db = OpenAuditedDb(dir, &clock, &registry);
  ASSERT_NE(db, nullptr);

  obs::SelfAuditWatchdogOptions wopts;
  wopts.metrics = &registry;
  obs::SelfAuditWatchdog watchdog(wopts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  ASSERT_GE(InstallStandardChecks(&watchdog, targets), 1u);

  // Interleave watchdog passes with workload chunks: every pass on a
  // benign engine must either pass or skip, never flag.
  for (int round = 0; round < 6; ++round) {
    RunUniformReads(db.get(), 500, 0xFACEu + round);
    clock.SleepForMicros(1'000'000);
    watchdog.RunOnce(clock.NowMicros());
  }
  EXPECT_EQ(watchdog.violations_total(), 0u);
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_GT(watchdog.passes_total(), 0u);

  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::MetricSnapshot* healthy =
      snap.Find("tarpit_watchdog_healthy");
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(healthy->value, 1);

  db.reset();
  fs::remove_all(dir);
}

TEST(SelfAuditWatchdogTest, CatchesInjectedLedgerDriftInOnePass) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_wd_drift";
  fs::remove_all(dir);
  VirtualClock clock;
  obs::MetricRegistry registry;
  auto db = OpenAuditedDb(dir, &clock, &registry);
  ASSERT_NE(db, nullptr);

  obs::DefenseEventRing ring;
  obs::SelfAuditWatchdogOptions wopts;
  wopts.metrics = &registry;
  wopts.events = &ring;
  obs::SelfAuditWatchdog watchdog(wopts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  ASSERT_GE(InstallStandardChecks(&watchdog, targets), 1u);

  // Skim 1 permille off every RECORDED charge (callers still served
  // the full delay): the exact embezzlement the ledger-vs-histogram
  // check exists to catch. A fresh database means no clean prior
  // ledger dilutes the relative drift.
  FailPointSpec skim;
  skim.trigger = FailPointSpec::Trigger::kAlways;
  skim.arg = 1;
  FailPoints::Instance().Enable("concurrent_db.acct_skim", skim);
  RunUniformReads(db.get(), 3'000, 0xFEEDu);
  FailPoints::Instance().DisableAll();

  // Detection latency is ONE scrape interval: the first quiescent pass
  // after the skimmed workload must flag it.
  watchdog.RunOnce(clock.NowMicros());
  EXPECT_GE(watchdog.violations_total(), 1u);
  EXPECT_FALSE(watchdog.healthy());

  double drift = 0;
  for (const auto& cs : watchdog.Stats()) {
    if (cs.name == "ledger-vs-histogram") drift = cs.last.drift;
  }
  EXPECT_NEAR(drift, 1e-3, 3e-4);  // Measured == injected 0.1%.
  EXPECT_GE(ring.CountOfType(obs::DefenseEventType::kWatchdogViolation),
            1u);

  db.reset();
  fs::remove_all(dir);
}

// ---------------- Extraction-risk scoring ---------------------------

/// Serial defended stack on a virtual timeline with the risk scorer
/// wired through the gate, mirroring the attack-regression fixture.
struct RiskStack {
  fs::path dir;
  VirtualClock clock;
  obs::RiskScorer scorer;
  std::unique_ptr<ProtectedDatabase> pdb;
  std::unique_ptr<QueryGate> gate;

  explicit RiskStack(const std::string& name, int64_t n)
      : scorer([] {
          obs::RiskScorerOptions r;
          r.query_sample_every = 1;  // Exact: deterministic ranking.
          return r;
        }()) {
    dir = fs::temp_directory_path() / ("tarpit_risk_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 1e9;  // Flat: everything costs the cap.
    opts.popularity.bounds = {0.0, 1.0};
    opts.defer_delay_sleep = true;
    auto pdb_or =
        ProtectedDatabase::Open(dir.string(), "items", &clock, opts);
    if (!pdb_or.ok()) return;
    pdb = std::move(*pdb_or);
    if (!pdb->ExecuteSql(
                "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
             .ok()) {
      return;
    }
    for (int64_t key = 1; key <= n; ++key) {
      if (!pdb->BulkLoadRow({Value(key), Value(1.0)}).ok()) return;
    }
    QueryGateOptions gate_opts;
    gate_opts.registration_seconds_per_account = 0.0;
    gate_opts.registration_burst = 1e9;
    gate_opts.per_user_queries_per_second = 5.0;
    gate_opts.per_user_burst = 20.0;
    gate_opts.per_subnet_queries_per_second = 1e9;
    gate_opts.per_subnet_burst = 1e9;
    gate_opts.coverage_escalation = true;
    gate_opts.coverage.free_coverage = 0.01;
    gate_opts.coverage.max_coverage = 0.25;
    gate_opts.coverage.max_escalation = 20.0;
    gate_opts.risk = &scorer;
    gate = std::make_unique<QueryGate>(pdb.get(), gate_opts);
  }

  ~RiskStack() {
    gate.reset();
    pdb.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
};

TEST(RiskScoringTest, ZooExtractorOutranksEveryBenignUser) {
  constexpr int64_t kN = 120;
  RiskStack stack("zoo", kN);
  ASSERT_NE(stack.gate, nullptr);

  // Benign population: four users browsing a handful of head keys at a
  // polite pace -- narrow breadth, modest rate, no defense signals.
  std::vector<Identity> benign;
  for (int u = 0; u < 4; ++u) {
    auto id = stack.gate->RegisterUser(0xC0A80001u + (u << 8));
    ASSERT_TRUE(id.ok());
    benign.push_back(*id);
  }
  Rng rng(0xB16B00B5u);
  for (int i = 0; i < 60; ++i) {
    for (const Identity& id : benign) {
      const int64_t key = 1 + static_cast<int64_t>(rng.Uniform(5));
      ASSERT_TRUE(stack.gate
                      ->ExecuteSql(id, "SELECT v FROM items WHERE id = " +
                                           std::to_string(key))
                      .ok());
    }
    stack.clock.SleepForMicros(500'000);  // 2 qps per user.
  }

  // The patient slow-low extractor from the zoo sweeps [1, kN].
  SlowLowConfig attack;
  attack.n = kN;
  const SlowLowReport report =
      RunSlowLowExtraction(stack.gate.get(), &stack.clock, attack);
  ASSERT_TRUE(report.completed);

  const double now =
      static_cast<double>(stack.clock.NowMicros()) / 1e6;
  const std::vector<obs::RiskScore> top = stack.scorer.TopN(1, now);
  ASSERT_EQ(top.size(), 1u);
  for (const Identity& id : benign) {
    EXPECT_NE(top[0].principal, id.id);
    EXPECT_GT(top[0].score, stack.scorer.Score(id.id, now))
        << "benign user " << id.id << " outranked the extractor";
  }
  // Breadth is what separates them: the extractor swept the relation.
  EXPECT_GT(top[0].breadth, 0.5 * static_cast<double>(kN));
}

// ---------------- Trace export --------------------------------------

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceExportTest, SpanCountMatchesRetainedUnion) {
  const fs::path dir = fs::temp_directory_path() / "tarpit_trace_test";
  fs::remove_all(dir);
  VirtualClock clock;
  obs::MetricRegistry registry;
  obs::TraceSinkOptions sopts;
  sopts.sample_every = 1;  // Trace everything.
  sopts.recent_sample_every = 1;
  obs::TraceSink sink(sopts);

  fs::create_directories(dir);
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;
  copts.metrics = &registry;
  copts.trace_sink = &sink;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, opts, copts);
  ASSERT_TRUE(opened.ok());
  auto db = std::move(*opened);
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 1; i <= 64; ++i) {
    ASSERT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(0.5)})
            .ok());
  }
  Rng rng(0xBEADu);
  UniformKeyGenerator gen(64);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->GetByKey(gen.Next(&rng)).ok());
  }
  db.reset();  // Quiesce before exporting.

  obs::ChromeTraceOptions topts;
  topts.registry = &registry;
  const obs::ChromeTrace trace = obs::ExportChromeTrace(sink, topts);

  std::set<uint64_t> retained;
  for (const obs::RequestTrace& t : sink.Slowest()) {
    retained.insert(t.request_id);
  }
  for (const obs::RequestTrace& t : sink.Recent()) {
    retained.insert(t.request_id);
  }
  EXPECT_GT(trace.request_spans, 0u);
  EXPECT_EQ(trace.request_spans, retained.size());
  EXPECT_EQ(CountOccurrences(trace.json, "\"ph\":\"X\""),
            trace.request_spans + trace.phase_spans);
  EXPECT_EQ(trace.json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(trace.json.back(), '}');

  fs::remove_all(dir);
}

// ---------------- Gate decisions on the event ring -------------------

// The gate's forensic trail is the DefenseEventRing: each perimeter
// decision lands there stamped from the database's clock (virtual
// here), attributed to the identity and its /24.
class GateForensicsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_gate_forensics_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 0.001;
    opts.popularity.bounds = {0.0, 10.0};
    // Charges are not slept, so only the test moves the clock.
    opts.defer_delay_sleep = true;
    auto pdb = ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
    ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
    pdb_ = std::move(*pdb);
    ASSERT_TRUE(
        pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
            .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0 * i)})
              .ok());
    }
  }
  void TearDown() override {
    pdb_.reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  VirtualClock clock_{5'000'000};  // t = 5 s.
  std::unique_ptr<ProtectedDatabase> pdb_;
};

TEST_F(GateForensicsTest, DecisionsLandStampedWithPrincipalAndSubnet) {
  obs::DefenseEventRing ring;
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;  // Only the denial raises a penalty.
  ReputationStore reputation(ropts);
  ResourceGovernorOptions go;
  go.max_parked_stalls = 1;
  ResourceGovernor gov(go);
  QueryGateOptions opts;
  opts.registration_seconds_per_account = 1000.0;
  opts.registration_burst = 1.0;
  opts.per_user_queries_per_second = 1.0;
  opts.per_user_burst = 1.0;
  opts.reputation = &reputation;
  opts.governor = &gov;
  opts.events = &ring;
  QueryGate gate(pdb_.get(), opts);
  ASSERT_EQ(gate.events(), &ring);
  const std::string sql = "SELECT * FROM items WHERE id = 3";

  const uint32_t ip = Ipv4FromString("10.1.2.7");
  auto user = gate.RegisterUser(ip);  // t = 5 s.
  ASSERT_TRUE(user.ok());
  clock_.SleepForSeconds(1.0);
  const uint32_t other = Ipv4FromString("192.0.2.9");
  EXPECT_TRUE(gate.RegisterUser(other).status().IsRateLimited());
  clock_.SleepForSeconds(1.0);  // t = 7 s: one token, then denied.
  auto served = gate.ExecuteSql(*user, sql);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(gate.ExecuteSql(*user, sql).status().IsRateLimited());
  clock_.SleepForSeconds(2.0);  // t = 9 s: escalated by the denial.
  auto escalated = gate.ExecuteSql(*user, sql);
  ASSERT_TRUE(escalated.ok());
  clock_.SleepForSeconds(2.0);  // t = 11 s: escalated again, then shed.
  DelayScheduler scheduler(&clock_);
  ASSERT_TRUE(gov.AdmitStall(0).ok());  // Fill the only stall slot.
  Status shed;
  gate.ExecuteSqlAsync(*user, sql, &scheduler,
                       [&](Result<ProtectedResult> r) { shed = r.status(); });
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  gov.ReleaseStall(0);

  struct Want {
    const char* name;
    int64_t time_micros;
    uint64_t principal;
    uint32_t ipv4;
  };
  const Want want[] = {
      {"registered", 5'000'000, user->id, ip},
      {"registration-denied", 6'000'000, 0, other},
      {"query-admitted", 7'000'000, user->id, ip},
      {"rate-limited-user", 7'000'000, user->id, ip},
      {"reputation-escalated", 9'000'000, user->id, ip},
      {"query-admitted", 9'000'000, user->id, ip},
      {"reputation-escalated", 11'000'000, user->id, ip},
      {"query-admitted", 11'000'000, user->id, ip},
      {"overload-shed", 11'000'000, user->id, ip},
  };
  const std::vector<obs::DefenseEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), std::size(want));
  for (size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_STREQ(obs::DefenseEventTypeName(events[i].type), want[i].name);
    EXPECT_EQ(events[i].time_micros, want[i].time_micros);
    EXPECT_EQ(events[i].principal, want[i].principal);
    EXPECT_EQ(events[i].subnet24, want[i].ipv4 & 0xFFFFFF00u);
  }
  // Registrations carry the full source address; the rest carry what
  // each decision was about.
  EXPECT_EQ(events[0].arg, static_cast<int64_t>(ip));
  EXPECT_EQ(events[1].arg, static_cast<int64_t>(other));
  EXPECT_GT(events[1].magnitude, 0.0);  // Retry-after seconds.
  EXPECT_DOUBLE_EQ(events[2].magnitude, served->delay_seconds);
  EXPECT_GT(events[3].magnitude, 0.0);  // Retry-after seconds.
  EXPECT_GT(events[4].magnitude, 1.0);  // The penalty factor.
  EXPECT_DOUBLE_EQ(events[5].magnitude, escalated->delay_seconds);
  // The shed request's charge stays on the record.
  EXPECT_GT(events[8].magnitude, 0.0);
  EXPECT_DOUBLE_EQ(events[8].magnitude, events[7].magnitude);
}

TEST_F(GateForensicsTest, OwnedRingIsBoundedAndPublishesToMetrics) {
  obs::MetricRegistry registry;
  QueryGateOptions opts;
  opts.registration_seconds_per_account = 1e9;
  opts.registration_burst = 1.0;
  opts.metrics = &registry;
  QueryGate gate(pdb_.get(), opts);
  obs::DefenseEventRing* ring = gate.events();
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->capacity(), 4096u);

  auto user = gate.RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  ASSERT_TRUE(gate.ExecuteSql(*user, "SELECT * FROM items WHERE id = 1").ok());
  obs::DefenseEventRing::Query mine;
  mine.principal = user->id;
  EXPECT_EQ(ring->Snapshot(mine).size(), 2u);

  const uint64_t kDenied = 4100;
  for (uint64_t i = 0; i < kDenied; ++i) {
    clock_.SleepForMicros(1);
    ASSERT_FALSE(gate.RegisterUser(Ipv4FromString("10.0.0.2")).ok());
  }
  // Memory is fixed: the oldest six decisions were overwritten, and
  // every overwrite is counted, in the ring and in the registry.
  EXPECT_EQ(ring->appended_total(), kDenied + 2);
  EXPECT_EQ(ring->dropped_total(), 6u);
  EXPECT_EQ(ring->CountOfType(obs::DefenseEventType::kRegistrationDenied),
            kDenied);
  EXPECT_EQ(ring->CountOfType(obs::DefenseEventType::kRegistered), 1u);
  EXPECT_TRUE(ring->Snapshot(mine).empty());
  const std::vector<obs::DefenseEvent> events = ring->Snapshot();
  ASSERT_EQ(events.size(), 4096u);
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().time_micros, clock_.NowMicros());

  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::MetricSnapshot* dropped =
      snap.Find("tarpit_events_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, 6);
  const obs::MetricSnapshot* appended =
      snap.Find("tarpit_events_appended_total");
  ASSERT_NE(appended, nullptr);
  EXPECT_EQ(appended->value, static_cast<int64_t>(kDenied + 2));
}

}  // namespace
}  // namespace tarpit
