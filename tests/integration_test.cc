// End-to-end integration tests: the full pipeline (workload generator
// -> SQL front door -> planner/executor -> storage -> learned counts
// -> delay engine), plus the session manager.

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "core/concurrent_db.h"
#include "defense/query_gate.h"
#include "sim/gate_attack.h"
#include "core/protected_db.h"
#include "defense/session_manager.h"
#include "workload/calgary_trace.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- SessionManager ----------

TEST(SessionManagerTest, LoginValidateLogout) {
  SessionManager mgr;
  Identity alice{1, Ipv4FromString("10.0.0.1"), 0};
  auto token = mgr.Login(alice, 0.0);
  ASSERT_TRUE(token.ok());
  auto who = mgr.Validate(*token, 10.0);
  ASSERT_TRUE(who.ok());
  EXPECT_EQ(*who, alice.id);
  EXPECT_EQ(mgr.SessionsOf(alice.id), 1u);
  mgr.Logout(*token);
  EXPECT_EQ(mgr.active_sessions(), 0u);
  EXPECT_TRUE(mgr.Validate(*token, 11.0).status().code() ==
              StatusCode::kPermissionDenied);
}

TEST(SessionManagerTest, InactivityExpiry) {
  SessionOptions opts;
  opts.ttl_seconds = 100.0;
  SessionManager mgr(opts);
  Identity user{2, 0, 0};
  auto token = mgr.Login(user, 0.0);
  ASSERT_TRUE(token.ok());
  // Activity at t=90 slides the window.
  ASSERT_TRUE(mgr.Validate(*token, 90.0).ok());
  ASSERT_TRUE(mgr.Validate(*token, 180.0).ok());
  // 101 idle seconds: gone.
  EXPECT_FALSE(mgr.Validate(*token, 290.0).ok());
  EXPECT_EQ(mgr.SessionsOf(user.id), 0u);
}

TEST(SessionManagerTest, PerIdentitySessionCap) {
  SessionOptions opts;
  opts.max_sessions_per_identity = 2;
  SessionManager mgr(opts);
  Identity user{3, 0, 0};
  auto t1 = mgr.Login(user, 0.0);
  auto t2 = mgr.Login(user, 0.0);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto t3 = mgr.Login(user, 0.0);
  EXPECT_TRUE(t3.status().IsResourceExhausted());
  mgr.Logout(*t1);
  EXPECT_TRUE(mgr.Login(user, 0.0).ok());
}

TEST(SessionManagerTest, ExpireStaleSweep) {
  SessionOptions opts;
  opts.ttl_seconds = 10.0;
  opts.max_sessions_per_identity = 0;  // Unlimited.
  SessionManager mgr(opts);
  Identity user{4, 0, 0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(mgr.Login(user, static_cast<double>(i)).ok());
  }
  // At t=12, sessions created at t in {0,1} are stale.
  EXPECT_EQ(mgr.ExpireStale(12.0), 2u);
  EXPECT_EQ(mgr.active_sessions(), 3u);
}

TEST(SessionManagerTest, TokensAreUniqueAndUnforgeable) {
  SessionManager mgr;
  Identity user{5, 0, 0};
  auto t1 = mgr.Login(user, 0.0);
  ASSERT_TRUE(t1.ok());
  // A guessed token (off by one) must not validate.
  EXPECT_FALSE(mgr.Validate(*t1 + 1, 0.0).ok());
}

// The eviction hook fires on every way a session can end -- explicit
// logout, TTL expiry observed by Validate, and the ExpireStale sweep --
// exactly once per session. This is the signal the stall scheduler
// relies on to cancel an evicted session's parked stalls.
TEST(SessionManagerTest, EvictionHookFiresOnEveryEnding) {
  SessionOptions opts;
  opts.ttl_seconds = 10.0;
  opts.max_sessions_per_identity = 0;
  SessionManager mgr(opts);
  std::vector<std::pair<SessionToken, IdentityId>> evicted;
  mgr.set_eviction_hook([&](SessionToken token, IdentityId id) {
    evicted.emplace_back(token, id);
  });

  Identity user{6, 0, 0};
  auto by_logout = mgr.Login(user, 0.0);
  auto by_validate = mgr.Login(user, 0.0);
  auto by_sweep = mgr.Login(user, 0.0);
  ASSERT_TRUE(by_logout.ok());
  ASSERT_TRUE(by_validate.ok());
  ASSERT_TRUE(by_sweep.ok());

  mgr.Logout(*by_logout);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, *by_logout);
  EXPECT_EQ(evicted[0].second, user.id);

  // Keep by_sweep fresh a little longer so Validate kills only one.
  ASSERT_TRUE(mgr.Validate(*by_sweep, 5.0).ok());
  EXPECT_FALSE(mgr.Validate(*by_validate, 11.0).ok());  // TTL expiry.
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1].first, *by_validate);

  EXPECT_EQ(mgr.ExpireStale(16.0), 1u);  // by_sweep idle since t=5.
  ASSERT_EQ(evicted.size(), 3u);
  EXPECT_EQ(evicted[2].first, *by_sweep);

  mgr.Logout(*by_logout);  // Idempotent: no double eviction.
  EXPECT_EQ(evicted.size(), 3u);
}

// End-to-end eviction wiring: the session manager's eviction hook
// feeds ConcurrentProtectedDatabase::CancelSession, so an evicted
// session's hour-long parked stalls complete (Cancelled) immediately
// instead of holding wheel entries until they expire.
TEST(SessionManagerTest, EvictionCancelsParkedStallsEndToEnd) {
  fs::path dir = fs::temp_directory_path() /
                 ("tarpit_evict_e2e_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  RealClock clock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.scale = 1e12;
  opts.popularity.bounds = {3600.0, 3600.0};  // Hour-long stalls.
  ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, opts, copts);
  ASSERT_TRUE(opened.ok());
  auto cdb = std::move(*opened);
  ASSERT_TRUE(
      cdb->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(
        cdb->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
            .ok());
  }

  SessionManager mgr;
  mgr.set_eviction_hook([&](SessionToken token, IdentityId) {
    cdb->CancelSession(token);
  });
  Identity user{9, Ipv4FromString("10.0.0.9"), 0};
  auto token = mgr.Login(user, 0.0);
  ASSERT_TRUE(token.ok());

  std::atomic<int> cancelled{0};
  for (int i = 1; i <= 4; ++i) {
    cdb->GetByKeyAsync(
        i,
        [&](Result<ProtectedResult> r) {
          if (!r.ok() && r.status().IsCancelled()) ++cancelled;
        },
        /*session=*/*token);
  }
  EXPECT_EQ(cdb->delay_scheduler()->parked(), 4u);
  mgr.Logout(*token);  // Hook fires -> CancelSession(token).
  cdb->delay_scheduler()->Drain();
  EXPECT_EQ(cancelled.load(), 4);
  EXPECT_EQ(cdb->delay_scheduler()->parked(), 0u);
  cdb.reset();
  fs::remove_all(dir);
}

// ---------- Full-pipeline trace replay ----------

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_e2e_" +
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

  fs::path dir_;
  VirtualClock clock_;
  std::unique_ptr<ProtectedDatabase> pdb_;
};

TEST_F(EndToEndTest, MiniCalgaryThroughTheFullStack) {
  const uint64_t kObjects = 1'000;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.05;
  opts.popularity.beta = 1.0;
  opts.popularity.bounds = {0.0, 10.0};
  opts.persist_counts = true;
  opts.count_cache_capacity = 256;
  auto pdb = ProtectedDatabase::Open(dir_.string(), "pages", &clock_,
                                     opts);
  ASSERT_TRUE(pdb.ok());
  pdb_ = std::move(*pdb);

  ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE pages (id INT PRIMARY KEY, "
                               "url TEXT, bytes INT)")
                  .ok());
  for (uint64_t i = 1; i <= kObjects; ++i) {
    ASSERT_TRUE(
        pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                           Value("/page/" + std::to_string(i)),
                           Value(static_cast<int64_t>(i * 17 % 9000))})
            .ok());
  }

  CalgaryTraceConfig trace_config;
  trace_config.objects = kObjects;
  trace_config.requests = 30'000;
  trace_config.duration_seconds = 86'400;
  CalgaryTrace trace(trace_config);
  auto requests = trace.Generate();

  // Replay through the SQL front door on one timeline: the clock moves
  // to each request's timestamp, then the pk SELECT charges its delay.
  uint64_t replayed = 0;
  uint64_t not_found = 0;
  QuantileSketch per_request_delays;
  for (const TraceRequest& request : requests) {
    clock_.AdvanceToMicros(static_cast<int64_t>(request.time_seconds * 1e6));
    auto r = pdb_->ExecuteSql("SELECT * FROM pages WHERE id = " +
                              std::to_string(request.key));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++replayed;
    if (r->result.rows.empty()) ++not_found;
    per_request_delays.Add(r->delay_seconds);
  }
  EXPECT_EQ(replayed, 30'000u);
  EXPECT_EQ(not_found, 0u);

  // The median legitimate request is cheap...
  const double median = per_request_delays.Median();
  EXPECT_LT(median, 0.1);
  // ...while frozen extraction of all 1000 tuples is expensive.
  double extraction = 0;
  for (uint64_t key = 1; key <= kObjects; ++key) {
    extraction += pdb_->PeekDelay(static_cast<int64_t>(key));
  }
  EXPECT_GT(extraction, 100.0 * median * kObjects);

  // Learned state flushed through the write-behind cache.
  ASSERT_TRUE(pdb_->Checkpoint().ok());
  auto counts = pdb_->raw_database()->GetTable("pages__counts");
  ASSERT_TRUE(counts.ok());
  EXPECT_GT((*counts)->NumRows(), 100u);

  // The virtual clock advanced past the trace duration (inter-arrival
  // time) plus all served delay.
  EXPECT_GE(clock_.NowSeconds(), 86'000.0);
}

TEST_F(EndToEndTest, SecondaryIndexInsideProtectedDatabase) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.01;
  opts.popularity.bounds = {0.0, 10.0};
  auto pdb =
      ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
  ASSERT_TRUE(pdb.ok());
  pdb_ = std::move(*pdb);
  ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "category TEXT)")
                  .ok());
  for (int i = 1; i <= 60; ++i) {
    ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                   Value(i % 3 == 0 ? "hot" : "cold")})
                    .ok());
  }
  ASSERT_TRUE(pdb_->ExecuteSql("CREATE INDEX ON items (category)").ok());
  auto r = pdb_->ExecuteSql("SELECT id FROM items WHERE category = 'hot'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.plan.kind, AccessPathKind::kSecondaryLookup);
  EXPECT_EQ(r->result.rows.size(), 20u);
  // All 20 returned tuples were charged (multi-tuple aggregation).
  EXPECT_GT(r->delay_seconds, 0.0);
  EXPECT_EQ(r->result.touched_keys.size(), 20u);
}

// ---------- Combined delay mode ----------

TEST_F(EndToEndTest, CombinedMaxModeProtectsBothDimensions) {
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kCombinedMax;
  opts.popularity.scale = 0.1;
  opts.popularity.bounds = {0.0, 10.0};
  opts.update.c = 1.0;
  opts.update.n = 50;
  opts.update.bounds = {0.0, 10.0};
  auto pdb =
      ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
  ASSERT_TRUE(pdb.ok());
  pdb_ = std::move(*pdb);
  ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                   Value(1.0)})
                    .ok());
  }
  clock_.AdvanceToMicros(10'000'000);  // 10 s of history.

  // Key 1: popular AND frequently updated -> cheap.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        pdb_->ExecuteSql("UPDATE items SET v = 2.0 WHERE id = 1").ok());
    ASSERT_TRUE(
        pdb_->ExecuteSql("SELECT * FROM items WHERE id = 1").ok());
  }
  // Key 2: popular but never updated -> the update term dominates.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        pdb_->ExecuteSql("SELECT * FROM items WHERE id = 2").ok());
  }
  const double hot_both = pdb_->PeekDelay(1);
  const double hot_access_only = pdb_->PeekDelay(2);
  const double cold = pdb_->PeekDelay(40);
  EXPECT_LT(hot_both, 0.5);
  EXPECT_LT(hot_both, hot_access_only / 10);
  EXPECT_EQ(hot_access_only, 10.0);  // Never updated -> update cap wins.
  EXPECT_EQ(cold, 10.0);
}

// ---------- Gate attack simulator ----------

TEST_F(EndToEndTest, GateAttackSimulatorParallelSemantics) {
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1e9;  // Everything costs the 1 s cap.
  opts.popularity.bounds = {0.0, 1.0};
  opts.defer_delay_sleep = true;
  auto pdb =
      ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
  ASSERT_TRUE(pdb.ok());
  pdb_ = std::move(*pdb);
  ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  const uint64_t kN = 100;
  for (uint64_t i = 1; i <= kN; ++i) {
    ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                   Value(1.0)})
                    .ok());
  }

  QueryGateOptions gate_opts;
  gate_opts.registration_seconds_per_account = 0.0;
  gate_opts.registration_burst = 50.0;
  gate_opts.per_user_queries_per_second = 1e9;
  gate_opts.per_user_burst = 1e9;
  gate_opts.per_subnet_queries_per_second = 1e9;
  gate_opts.per_subnet_burst = 1e9;

  // Sequential: 100 tuples x 1 s = ~100 s.
  {
    QueryGate gate(pdb_.get(), gate_opts);
    GateAttackConfig attack;
    attack.n = kN;
    attack.identities = 1;
    VirtualClock* clock = &clock_;
    GateAttackReport r = RunGateExtraction(&gate, clock, attack);
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.attack_seconds, 100.0, 5.0);
  }
  // 10-way parallel with free identities: ~10 s.
  {
    QueryGate gate(pdb_.get(), gate_opts);
    GateAttackConfig attack;
    attack.n = kN;
    attack.identities = 10;
    GateAttackReport r = RunGateExtraction(&gate, &clock_, attack);
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.attack_seconds, 10.0, 2.0);
    EXPECT_EQ(r.identities_used, 10u);
  }
  // Registration limiting restores the cost: 10 ids at 60 s each.
  {
    QueryGateOptions limited = gate_opts;
    limited.registration_seconds_per_account = 60.0;
    limited.registration_burst = 1.0;
    QueryGate gate(pdb_.get(), limited);
    GateAttackConfig attack;
    attack.n = kN;
    attack.identities = 10;
    GateAttackReport r = RunGateExtraction(&gate, &clock_, attack);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.attack_seconds, 9 * 60.0);
  }
}

TEST_F(EndToEndTest, GateAttackRespectsLifetimeCaps) {
  ProtectedDatabaseOptions opts;
  opts.popularity.bounds = {0.0, 0.001};
  opts.defer_delay_sleep = true;
  auto pdb =
      ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
  ASSERT_TRUE(pdb.ok());
  pdb_ = std::move(*pdb);
  ASSERT_TRUE(pdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                   Value(1.0)})
                    .ok());
  }
  QueryGateOptions gate_opts;
  gate_opts.registration_seconds_per_account = 0.0;
  gate_opts.registration_burst = 5.0;
  gate_opts.per_user_queries_per_second = 1e9;
  gate_opts.per_user_burst = 1e9;
  gate_opts.per_subnet_queries_per_second = 1e9;
  gate_opts.per_subnet_burst = 1e9;
  gate_opts.per_user_lifetime_query_limit = 10;
  QueryGate gate(pdb_.get(), gate_opts);
  GateAttackConfig attack;
  attack.n = 50;
  attack.identities = 2;  // 2 ids x 10 queries = 20 tuples max.
  GateAttackReport r = RunGateExtraction(&gate, &clock_, attack);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.tuples_obtained, 20u);
}

// ---------- Concurrent serving ----------

class ConcurrentDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_conc_" +
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
  }

  void OpenDb(double cap_seconds) {
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 1e9;  // Everything hits the cap.
    opts.popularity.bounds = {0.0, cap_seconds};
    auto cdb = ConcurrentProtectedDatabase::Open(dir_.string(), "items",
                                                 &clock_, opts);
    ASSERT_TRUE(cdb.ok());
    cdb_ = std::move(*cdb);
    ASSERT_TRUE(cdb_->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    for (int i = 1; i <= 100; ++i) {
      ASSERT_TRUE(cdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
  }

  fs::path dir_;
  RealClock clock_;
  std::unique_ptr<ConcurrentProtectedDatabase> cdb_;
};

TEST_F(ConcurrentDbTest, ParallelSessionsStallConcurrently) {
  // Every retrieval costs a 20 ms cap. 4 threads x 10 keys each:
  // serialized stalls would take >= 800 ms of wall time; with stalls
  // served outside the lock the attack completes in roughly the
  // per-thread time (~200 ms) -- the parallel speedup that makes
  // registration rate limiting necessary.
  OpenDb(0.020);
  const int kThreads = 4, kPerThread = 10;
  std::atomic<int> errors{0};
  RealClock wall;
  const int64_t start = wall.NowMicros();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int key = 1 + t * kPerThread + i;
        auto r = cdb_->GetByKey(key);
        if (!r.ok()) ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double elapsed = (wall.NowMicros() - start) / 1e6;
  EXPECT_EQ(errors.load(), 0);
  // Generous bounds: must beat full serialization by at least 2x and
  // must have actually stalled at least one partition's worth.
  EXPECT_LT(elapsed, 0.8 * 0.020 * kThreads * kPerThread / 2);
  EXPECT_GE(elapsed, 0.020 * kPerThread * 0.9);
}

TEST_F(ConcurrentDbTest, ConcurrentMixedQueriesStayConsistent) {
  OpenDb(0.0);  // No stalls; stress the locking only.
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int key = 1 + (t * 200 + i) % 100;
        auto r = cdb_->ExecuteSql("SELECT * FROM items WHERE id = " +
                                  std::to_string(key));
        if (!r.ok() || r->result.rows.size() != 1) ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  // All 800 accesses were recorded exactly once.
  EXPECT_EQ(cdb_->unsafe_inner()->access_tracker()->total_requests(),
            800u);
}

}  // namespace
}  // namespace tarpit
