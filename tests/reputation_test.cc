// Reputation-escalating delay: penalty growth/decay, composition with
// the base policy stack, persistence across session churn, and the
// wiring through both front doors.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "core/delay_policy.h"
#include "core/protected_db.h"
#include "defense/identity.h"
#include "defense/query_gate.h"
#include "defense/reputation.h"
#include "defense/session_manager.h"
#include "obs/metrics.h"
#include "registry_series.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kAlice = 1;
constexpr uint64_t kBob = 2;
constexpr uint32_t kSubnetA = 0x0A000000;  // 10.0.0.0/24.
constexpr uint32_t kSubnetB = 0x0A000100;  // 10.0.1.0/24.

/// Signals of every source that `registry` has counted.
int64_t Signals(const obs::MetricRegistry& registry) {
  return registry.Snapshot().Total("tarpit_reputation_signals_total");
}

// ---------- ReputationStore core behavior ----------

TEST(ReputationStoreTest, BaselineIsExactlyOne) {
  ReputationStore store;
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(store.SubnetPenalty(kSubnetA, 0.0), 1.0);
}

TEST(ReputationStoreTest, PenaltyGrowsMonotonicallyUnderSignals) {
  ReputationOptions opts;
  opts.growth = 2.0;
  opts.max_penalty = 1024.0;
  ReputationStore store(opts);
  double prev = store.PenaltyFactor(kAlice, kSubnetA, 0.0);
  for (int i = 1; i <= 8; ++i) {
    store.RecordSignal(kAlice, kSubnetA, 0.0,
                       ReputationSignal::kExternal);
    const double factor = store.PenaltyFactor(kAlice, kSubnetA, 0.0);
    EXPECT_GT(factor, prev) << "signal " << i;
    prev = factor;
  }
  // Multiplicative: k signals of strength 1 at growth g -> g^k.
  EXPECT_NEAR(prev, 256.0, 256.0 * 1e-9);
}

TEST(ReputationStoreTest, PenaltyIsCapped) {
  ReputationOptions opts;
  opts.growth = 4.0;
  opts.max_penalty = 64.0;
  ReputationStore store(opts);
  for (int i = 0; i < 50; ++i) {
    store.RecordSignal(kAlice, kSubnetA, 0.0,
                       ReputationSignal::kExternal);
  }
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 0.0), 64.0, 1e-9);
}

TEST(ReputationStoreTest, DecaysExponentiallyWithHalfLife) {
  ReputationOptions opts;
  opts.growth = 16.0;
  opts.half_life_seconds = 100.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  const double f0 = store.IdentityPenalty(kAlice, 0.0);
  ASSERT_NEAR(f0, 16.0, 1e-9);
  // One half-life halves log(factor): 16 -> 4.
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 100.0), 4.0, 1e-6);
  // Two half-lives: 16 -> 2.
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 200.0), 2.0, 1e-6);
}

TEST(ReputationStoreTest, DecaysFullyBackToBaseline) {
  ReputationOptions opts;
  opts.growth = 8.0;
  opts.half_life_seconds = 10.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  ASSERT_GT(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  // After enough quiet half-lives the epsilon snap lands the factor on
  // EXACTLY 1.0, not asymptotically close.
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kAlice, kSubnetA, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(store.SubnetPenalty(kSubnetA, 1000.0), 1.0);
}

TEST(ReputationStoreTest, FactorNeverBelowOneEvenWhileDecaying) {
  ReputationOptions opts;
  opts.half_life_seconds = 1.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  for (double t = 0.0; t < 50.0; t += 0.7) {
    EXPECT_GE(store.PenaltyFactor(kAlice, kSubnetA, t), 1.0) << t;
  }
}

TEST(ReputationStoreTest, IdentityAndSubnetAreSeparatelyKeyed) {
  ReputationOptions opts;
  opts.growth = 4.0;
  opts.subnet_growth = 2.0;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  // Alice's identity carries growth; her subnet carries subnet_growth.
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 0.0), 4.0, 1e-9);
  EXPECT_NEAR(store.SubnetPenalty(kSubnetA, 0.0), 2.0, 1e-9);
  // Bob in the same subnet inherits the subnet factor but not Alice's
  // identity factor.
  EXPECT_NEAR(store.PenaltyFactor(kBob, kSubnetA, 0.0), 2.0, 1e-9);
  // Bob in a clean subnet is untouched.
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kBob, kSubnetB, 0.0), 1.0);
}

TEST(ReputationStoreTest, SubnetPenaltySurvivesIdentityChurn) {
  // The Sybil-churn case: shedding the identity sheds the identity
  // factor, but the subnet keeps escalating.
  ReputationOptions opts;
  opts.growth = 2.0;
  opts.subnet_growth = 2.0;
  opts.max_subnet_penalty = 1024.0;
  ReputationStore store(opts);
  for (uint64_t gen = 0; gen < 5; ++gen) {
    const uint64_t sybil = 100 + gen;  // Fresh identity each time.
    store.RecordSignal(sybil, kSubnetA, 0.0,
                       ReputationSignal::kExternal);
    // The fresh identity starts with the subnet's accumulated factor,
    // not 1.0.
    const double inherited =
        store.PenaltyFactor(200 + gen, kSubnetA, 0.0);
    EXPECT_NEAR(inherited, std::pow(2.0, gen + 1), 1e-6) << gen;
  }
}

TEST(ReputationStoreTest, BreadthSignalsFireAsCoverageGrows) {
  ReputationOptions opts;
  opts.breadth_free_fraction = 0.01;
  opts.breadth_signal_stride = 0.01;
  opts.growth = 2.0;
  opts.max_penalty = 1 << 30;
  obs::MetricRegistry registry;
  opts.metrics = &registry;
  ReputationStore store(opts);
  const uint64_t n = 10'000;
  // A narrow slice is free.
  for (int64_t key = 0; key < 50; ++key) {
    store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
  }
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 0.0), 1.0);
  // Walking 20% of the relation earns a geometric pile of signals.
  for (int64_t key = 0; key < 2000; ++key) {
    store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
  }
  EXPECT_GT(store.IdentityPenalty(kAlice, 0.0), 100.0);
  EXPECT_GT(Signals(registry), 10);
}

TEST(ReputationStoreTest, RepeatAccessesToSameKeysStayFree) {
  ReputationStore store;
  const uint64_t n = 10'000;
  // Hammering the same 20 keys is popularity-shaped, not
  // extraction-shaped: distinct coverage never grows.
  for (int round = 0; round < 100; ++round) {
    for (int64_t key = 0; key < 20; ++key) {
      store.ObserveAccess(kAlice, kSubnetA, key, n, 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(store.IdentityPenalty(kAlice, 0.0), 1.0);
}

// Pins the breadth behaviour the store shows for one fixed extraction
// walk: the access at which every breadth signal fires and the final
// penalties, exactly. An estimate that moves across a stride boundary
// moves a signal, and with it the decayed penalties.
TEST(ReputationStoreTest, BreadthWalkMatchesGolden) {
  // Defaults, with the caps out of the way so the final penalties
  // reflect every signal and its timing.
  ReputationOptions opts;
  opts.max_penalty = 1e300;
  opts.max_subnet_penalty = 1e300;
  obs::MetricRegistry registry;
  opts.metrics = &registry;
  ReputationStore store(opts);
  VirtualClock clock;
  const uint64_t n = 12'179;
  std::vector<std::pair<uint64_t, uint64_t>> fired;  // (access, signals)
  int64_t seen = 0;
  for (uint64_t i = 0; i < n; ++i) {
    clock.SleepForMicros(1000);
    // 7919 is coprime with 12,179 = 19 * 641: every key exactly once.
    const int64_t key = static_cast<int64_t>((i * 7919) % n);
    store.ObserveAccess(kAlice, kSubnetA, key, n,
                        static_cast<double>(clock.NowMicros()) / 1e6);
    const int64_t signals = Signals(registry);
    if (signals != seen) {
      fired.emplace_back(i, static_cast<uint64_t>(signals - seen));
      seen = signals;
    }
  }
  // Identity and subnet see the same keys, so each stride of coverage
  // fires one signal in each scope; at access 10054 the estimate
  // crosses two strides at once.
  const uint64_t kFiredAt[] = {
      246,   365,   484,   612,   739,   865,   989,   1111,  1237,
      1354,  1469,  1589,  1707,  1829,  1948,  2075,  2195,  2315,
      2436,  2556,  2688,  2802,  2928,  3036,  3160,  3278,  3406,
      3531,  3657,  3785,  3906,  4035,  4158,  4270,  4378,  4488,
      4598,  4738,  4877,  4983,  5122,  5220,  5325,  5472,  5580,
      5712,  5816,  5927,  6043,  6181,  6342,  6447,  6558,  6681,
      6810,  6936,  7060,  7203,  7310,  7464,  7601,  7704,  7853,
      7998,  8133,  8281,  8372,  8472,  8565,  8646,  8786,  8897,
      9001,  9115,  9205,  9353,  9483,  9601,  9715,  9824,  9948,
      10054, 10172, 10285, 10440, 10580, 10712, 10842, 10930, 11015,
      11122, 11287, 11400, 11535, 11649, 11786, 11922, 12037, 12162};
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (uint64_t at : kFiredAt) expected.emplace_back(at, at == 10054 ? 4 : 2);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(Signals(registry), 200);
  const double now = static_cast<double>(clock.NowMicros()) / 1e6;
  EXPECT_EQ(store.IdentityPenalty(kAlice, now), 0x1.756222cdaf89bp+99);
  EXPECT_EQ(store.SubnetPenalty(kSubnetA, now), 0x1.2c34aab5538d1p+58);
}

TEST(ReputationStoreTest, RateAnomalySelfSignalFiresOncePerWindow) {
  ReputationOptions opts;
  opts.rate_window_seconds = 1.0;
  opts.rate_threshold_per_second = 100.0;
  opts.growth = 3.0;
  ReputationStore store(opts);
  // 200 accesses inside one window: one signal, not 100.
  for (int i = 0; i < 200; ++i) {
    store.ObserveAccess(kAlice, kSubnetA, 1, 0, 0.5);
  }
  EXPECT_NEAR(store.IdentityPenalty(kAlice, 0.5), 3.0, 1e-9);
}

TEST(ReputationStoreTest, ForgetIsOperatorOverride) {
  ReputationStore store;
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  ASSERT_GT(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  store.ForgetIdentity(kAlice);
  store.ForgetSubnet(kSubnetA);
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(kAlice, kSubnetA, 0.0), 1.0);
  EXPECT_EQ(store.tracked_identities(), 0u);
  EXPECT_EQ(store.tracked_subnets(), 0u);
}

TEST(ReputationStoreTest, ShardBudgetEvictsClosestToBaseline) {
  ReputationOptions opts;
  opts.shards = 1;
  opts.max_identities_per_shard = 8;
  ReputationStore store(opts);
  // One hot identity and a crowd of cold ones.
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  for (uint64_t id = 100; id < 140; ++id) {
    store.ObserveAccess(id, kSubnetB, 1, 0, 0.0);
  }
  EXPECT_LE(store.tracked_identities(), 8u);
  // The hot identity survived the churn.
  EXPECT_GT(store.IdentityPenalty(kAlice, 0.0), 1.0);
}

TEST(ReputationStoreTest, PublishesMetrics) {
  obs::MetricRegistry registry;
  ReputationOptions opts;
  opts.metrics = &registry;
  ReputationStore store(opts);
  store.RecordSignal(kAlice, kSubnetA, 0.0, ReputationSignal::kExternal);
  store.ObserveAccess(kAlice, kSubnetA, 1, 0, 0.0);
  auto snapshot = registry.Snapshot();
  const auto* signals = snapshot.Find("tarpit_reputation_signals_total",
                                      {{"source", "external"}});
  ASSERT_NE(signals, nullptr);
  EXPECT_EQ(signals->value, 1);
  const auto* tracked =
      snapshot.Find("tarpit_reputation_tracked_principals",
                    {{"scope", "identity"}});
  ASSERT_NE(tracked, nullptr);
  EXPECT_EQ(tracked->value, 1);
}

// ---------- Persistence across session churn ----------

TEST(ReputationStoreTest, SurvivesSessionEvictionAndRelogin) {
  // The store keys by identity/subnet, never by session: logging out,
  // being TTL-evicted, and logging back in changes nothing.
  ReputationStore store;
  SessionManager sessions;
  Identity alice;
  alice.id = kAlice;
  alice.ipv4 = 0x0A000001;

  auto token = sessions.Login(alice, 0.0);
  ASSERT_TRUE(token.ok());
  store.RecordSignal(alice.id, alice.Subnet24(), 0.0,
                     ReputationSignal::kExternal);
  const double before = store.PenaltyFactor(alice.id, alice.Subnet24(), 0.0);
  ASSERT_GT(before, 1.0);

  // Explicit logout, TTL eviction sweep, then a fresh login.
  sessions.Logout(*token);
  sessions.ExpireStale(1e9);
  auto relogin = sessions.Login(alice, 1.0);
  ASSERT_TRUE(relogin.ok());
  // Same evaluation instant: bit-identical factor (only time decays
  // reputation, never session churn).
  EXPECT_DOUBLE_EQ(
      store.PenaltyFactor(alice.id, alice.Subnet24(), 0.0), before);
}

// ---------- Front-door wiring ----------

class ReputationGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_rep_gate_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ProtectedDatabaseOptions opts;
    opts.popularity.scale = 0.001;
    opts.popularity.bounds = {0.0, 10.0};
    auto pdb =
        ProtectedDatabase::Open(dir_.string(), "items", &clock_, opts);
    ASSERT_TRUE(pdb.ok());
    pdb_ = std::move(*pdb);
    ASSERT_TRUE(
        pdb_->ExecuteSql(
                "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
            .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(pdb_->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(i * 1.0)})
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

TEST_F(ReputationGateTest, PenalizedIdentityPaysMultipliedDelay) {
  // Breadth self-signaling off: on a 10-row table every access is 10%
  // coverage, which would drown the externally injected factor this
  // test measures.
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;
  ReputationStore store(ropts);
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 1e6;
  opts.per_user_burst = 1e6;
  opts.per_subnet_queries_per_second = 1e6;
  opts.per_subnet_burst = 1e6;
  opts.reputation = &store;
  gate_ = std::make_unique<QueryGate>(pdb_.get(), opts);

  auto alice = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(alice.ok());

  auto clean = gate_->ExecuteSql(*alice,
                                 "SELECT * FROM items WHERE id = 1");
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->delay_seconds, 0.0);

  // Penalize alice out-of-band by a known factor, then re-issue: the
  // second query's BASE delay (access count went 1 -> 2) times the
  // factor.
  store.RecordSignal(alice->id, alice->Subnet24(),
                     clock_.NowSeconds(), ReputationSignal::kExternal,
                     3.0);  // growth 2^3 = 8x.
  const double factor =
      store.PenaltyFactor(alice->id, alice->Subnet24(),
                          clock_.NowSeconds());
  ASSERT_NEAR(factor, 8.0, 1e-9);
  auto taxed = gate_->ExecuteSql(*alice,
                                 "SELECT * FROM items WHERE id = 1");
  ASSERT_TRUE(taxed.ok());
  // The engine charges from post-access stats; PeekDelay right after
  // the query reads the same snapshot the query was priced from.
  const double base = pdb_->PeekDelay(1);
  EXPECT_NEAR(taxed->delay_seconds, base * factor, 1e-9);
  EXPECT_EQ(gate_->events()->CountOfType(
                obs::DefenseEventType::kReputationEscalated),
            1u);
}

TEST_F(ReputationGateTest, RateDenialsFeedReputation) {
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;  // Count only the denials.
  obs::MetricRegistry registry;
  ropts.metrics = &registry;
  ReputationStore store(ropts);
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 0.1;
  opts.per_user_burst = 1.0;
  opts.reputation = &store;
  gate_ = std::make_unique<QueryGate>(pdb_.get(), opts);

  auto alice = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(
      gate_->ExecuteSql(*alice, "SELECT * FROM items WHERE id = 1")
          .ok());
  // Hammer through the empty bucket: every denial is a rate-anomaly
  // signal.
  for (int i = 0; i < 3; ++i) {
    auto r = gate_->ExecuteSql(*alice,
                               "SELECT * FROM items WHERE id = 1");
    ASSERT_TRUE(r.status().IsRateLimited());
  }
  EXPECT_GT(store.PenaltyFactor(alice->id, alice->Subnet24(),
                                clock_.NowSeconds()),
            1.0);
  EXPECT_EQ(Signals(registry), 3);  // One per denial.
  EXPECT_GT(store.IdentityPenalty(alice->id, clock_.NowSeconds()), 1.0);
}

TEST_F(ReputationGateTest, GateWithoutReputationIsUnchanged) {
  QueryGateOptions opts;
  opts.per_user_queries_per_second = 1e6;
  opts.per_user_burst = 1e6;
  gate_ = std::make_unique<QueryGate>(pdb_.get(), opts);
  auto alice = gate_->RegisterUser(0x0A000001);
  ASSERT_TRUE(alice.ok());
  auto r = gate_->ExecuteSql(*alice,
                             "SELECT * FROM items WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(gate_->events()->CountOfType(
                obs::DefenseEventType::kReputationEscalated),
            0u);
}

TEST(ReputationConcurrentDoorTest, EscalatesComputePhaseDelay) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("tarpit_rep_cdb_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  opts.popularity.bounds = {0.0, 10.0};
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;  // Isolate the injected factor.
  ReputationStore store(ropts);
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Measure, don't stall.
  copts.reputation = &store;
  auto open = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                &clock, opts, copts);
  ASSERT_TRUE(open.ok());
  auto cdb = std::move(*open);
  ASSERT_TRUE(
      cdb->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cdb->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                  Value(i * 1.0)})
                    .ok());
  }

  RequestPrincipal alice{kAlice, kSubnetA};
  auto clean = cdb->GetByKey(3, alice);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->delay_seconds, 0.0);

  store.RecordSignal(kAlice, kSubnetA, clock.NowSeconds(),
                     ReputationSignal::kExternal, 2.0);  // 4x.
  const double factor =
      store.PenaltyFactor(kAlice, kSubnetA, clock.NowSeconds());
  ASSERT_NEAR(factor, 4.0, 1e-9);

  // Same principal: escalated. Anonymous and clean principals: not.
  auto taxed = cdb->GetByKey(3, alice);
  ASSERT_TRUE(taxed.ok());
  auto anonymous = cdb->GetByKey(3);
  ASSERT_TRUE(anonymous.ok());
  RequestPrincipal bob{kBob, kSubnetB};
  auto clean_bob = cdb->GetByKey(3, bob);
  ASSERT_TRUE(clean_bob.ok());
  EXPECT_GT(taxed->delay_seconds, 2.0 * anonymous->delay_seconds);
  EXPECT_LT(clean_bob->delay_seconds, taxed->delay_seconds);

  // The async park path parks the POST-escalation delay.
  double parked = -1.0;
  cdb->GetByKeyAsync(3, alice,
                     [&](Result<ProtectedResult> r) {
                       ASSERT_TRUE(r.ok());
                       parked = r->delay_seconds;
                     });
  ASSERT_GE(parked, 0.0);  // serve_delays off: completes inline.
  EXPECT_GT(parked, 2.0 * anonymous->delay_seconds);

  // Metrics() equals the sum of caller-charged delays: the escalated
  // charge is the one that was accounted.
  const double charged = clean->delay_seconds + taxed->delay_seconds +
                         anonymous->delay_seconds +
                         clean_bob->delay_seconds + parked;
  cdb->QuiesceStats();
  auto metrics = cdb->Metrics();
  EXPECT_NEAR(metrics.total_delay_seconds, charged, 1e-12 * charged);

  cdb.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tarpit
