// Property test: for any interleaving (seeded schedule shuffling,
// random shard/epoch geometry, random thread counts), a quiesced
// ConcurrentCountTracker equals a serial CountTracker replay of the
// same multiset of keys -- rank, f_max, distinct_seen, per-key counts
// all equal. With decay disabled (delta = 1.0) the learned state is a
// pure function of the multiset, so equality is exact; a second
// property checks the decay>1 invariants (exact total mass, exact
// request counts) that hold for *any* order. A third property feeds
// one seeded sequential stream of point gets and pk SELECTs to the
// concurrent front door and to the serial engine: every per-request
// charge must be equal.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "stats/concurrent_count_tracker.h"
#include "stats/count_tracker.h"

namespace tarpit {
namespace {

int StressIters(int default_iters) {
  const char* env = std::getenv("TARPIT_STRESS_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

/// Seeded Fisher-Yates so the "interleaving" (both the partition into
/// threads and each thread's order) varies per seed.
void Shuffle(std::vector<int64_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

struct ScheduleParams {
  uint64_t n_keys;
  double alpha;
  int threads;
  size_t shards;
  size_t epoch;
  int total_ops;
};

ScheduleParams DrawParams(Rng* rng, int total_ops) {
  ScheduleParams p;
  p.n_keys = 16 + rng->Uniform(200);
  p.alpha = 0.6 + rng->NextDouble();  // [0.6, 1.6): mild to sharp skew.
  p.threads = 2 + static_cast<int>(rng->Uniform(4));  // 2..5
  p.shards = static_cast<size_t>(1) << rng->Uniform(6);  // 1..32
  p.epoch = 1 + rng->Uniform(128);
  p.total_ops = total_ops;
  return p;
}

/// Draws the multiset, shuffles it, and runs `threads` workers that
/// record their round-robin slices concurrently. Returns the multiset.
std::vector<int64_t> RunConcurrent(const ScheduleParams& p, Rng* rng,
                                   ConcurrentCountTracker* tracker) {
  ZipfDistribution zipf(p.n_keys, p.alpha);
  std::vector<int64_t> ops;
  ops.reserve(p.total_ops);
  for (int i = 0; i < p.total_ops; ++i) {
    ops.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  Shuffle(&ops, rng);

  std::vector<std::thread> workers;
  for (int t = 0; t < p.threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < ops.size();
           i += static_cast<size_t>(p.threads)) {
        tracker->Record(ops[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  tracker->FlushAll();
  return ops;
}

TEST(ConcurrentPropertyTest, QuiescedEqualsSerialReplayNoDecay) {
  const int seeds = StressIters(12);
  const int total_ops = StressIters(2500);
  for (int seed = 1; seed <= seeds; ++seed) {
    Rng rng(7919u * seed);
    const ScheduleParams p = DrawParams(&rng, total_ops);

    CountTracker inner(p.n_keys, /*decay=*/1.0);
    ConcurrentCountTrackerOptions topts;
    topts.num_shards = p.shards;
    topts.epoch_batch = p.epoch;
    ConcurrentCountTracker tracker(&inner, topts);
    const std::vector<int64_t> ops = RunConcurrent(p, &rng, &tracker);

    ASSERT_EQ(tracker.pending_records(), 0u) << "seed " << seed;
    ASSERT_EQ(tracker.total_requests(),
              static_cast<uint64_t>(p.total_ops))
        << "seed " << seed;

    // Serial replay of the same multiset (any order is equivalent when
    // decay is off; use the generation order).
    CountTracker serial(p.n_keys, /*decay=*/1.0);
    for (int64_t key : ops) serial.Record(key);

    ASSERT_EQ(inner.total_requests(), serial.total_requests())
        << "seed " << seed;
    ASSERT_EQ(inner.distinct_seen(), serial.distinct_seen())
        << "seed " << seed;

    const std::set<int64_t> distinct(ops.begin(), ops.end());
    for (int64_t key : distinct) {
      const PopularityStats got = tracker.Stats(key);
      const PopularityStats want = serial.Stats(key);
      ASSERT_DOUBLE_EQ(got.count, want.count)
          << "seed " << seed << " key " << key;
      ASSERT_EQ(got.rank, want.rank)
          << "seed " << seed << " key " << key;
      ASSERT_DOUBLE_EQ(got.max_count, want.max_count)
          << "seed " << seed << " key " << key;
      ASSERT_DOUBLE_EQ(got.total_count, want.total_count)
          << "seed " << seed << " key " << key;
    }
    // Never-seen keys share the bottom rank in both views.
    for (int64_t key = 1; key <= static_cast<int64_t>(p.n_keys); ++key) {
      if (distinct.count(key) > 0) continue;
      ASSERT_EQ(tracker.Stats(key).rank, serial.Stats(key).rank)
          << "seed " << seed << " key " << key;
      break;  // One representative is enough per seed.
    }
  }
}

TEST(ConcurrentPropertyTest, DecayInvariantsHoldForAnyInterleaving) {
  const int seeds = StressIters(6);
  const int total_ops = StressIters(2000);
  const double kDelta = 1.0002;
  for (int seed = 1; seed <= seeds; ++seed) {
    Rng rng(104729u * seed);
    const ScheduleParams p = DrawParams(&rng, total_ops);

    CountTracker inner(p.n_keys, kDelta);
    ConcurrentCountTrackerOptions topts;
    topts.num_shards = p.shards;
    topts.epoch_batch = p.epoch;
    ConcurrentCountTracker tracker(&inner, topts);
    const std::vector<int64_t> ops = RunConcurrent(p, &rng, &tracker);

    CountTracker serial(p.n_keys, kDelta);
    for (int64_t key : ops) serial.Record(key);

    // Request counts and distinct keys are order-independent.
    ASSERT_EQ(inner.total_requests(), serial.total_requests())
        << "seed " << seed;
    ASSERT_EQ(inner.distinct_seen(), serial.distinct_seen())
        << "seed " << seed;
    // Total decayed mass depends only on the request count, never the
    // order: sum_j delta^{-(R-j)} for j = 1..R.
    const double got_mass = tracker.Stats(1).total_count;
    const double want_mass = serial.Stats(1).total_count;
    ASSERT_NEAR(got_mass, want_mass, 1e-6 * want_mass) << "seed " << seed;
  }
}

struct DoorOp {
  bool select = false;
  int64_t key = 0;
};

/// Opens `items` (rows 1..rows) in `dir` through either door.
template <typename Db>
void LoadItems(Db* db, int rows) {
  ASSERT_TRUE(
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
          .ok());
  for (int k = 1; k <= rows; ++k) {
    ASSERT_TRUE(
        db->BulkLoadRow({Value(static_cast<int64_t>(k)), Value(k * 0.5)})
            .ok());
  }
}

template <typename Db>
Result<ProtectedResult> RunOp(Db* db, const DoorOp& op) {
  return op.select ? db->ExecuteSql("SELECT * FROM items WHERE id = " +
                                    std::to_string(op.key))
                   : db->GetByKey(op.key);
}

// The concurrent door charges what the serial engine charges: Eq. 1 in
// learned form (d = scale * rank^beta / count), ranked after the access
// is counted, for point gets and SELECTs alike. Each seed's stream
// starts with a fixed prefix that covers a pk SELECT after unmerged
// gets of its key, a first get (ranked among seen keys, not at the
// universe size) and a SELECT of a key not yet seen.
TEST(ConcurrentPropertyTest, DoorChargesEqualSerialEngine) {
  constexpr int kRows = 100;
  const int seeds = StressIters(6);
  const int tail_ops = StressIters(300);
  std::vector<DoorOp> prefix(9, DoorOp{false, 1});
  prefix.push_back({true, 1});
  prefix.push_back({false, 2});
  prefix.push_back({true, 3});
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("tarpit_door_differential_" + std::to_string(::getpid()));
  for (double beta : {0.0, 0.3}) {
    for (int seed = 1; seed <= seeds; ++seed) {
      std::filesystem::remove_all(base);
      std::filesystem::create_directories(base / "door");
      std::filesystem::create_directories(base / "serial");
      ProtectedDatabaseOptions opts;
      opts.popularity.beta = beta;
      opts.popularity.scale = 1.0;
      opts.popularity.bounds = {0.0, 1e9};
      opts.decay_per_request = 1.0;
      VirtualClock clock;
      ConcurrentDatabaseOptions copts;
      copts.serve_delays = false;
      auto door = ConcurrentProtectedDatabase::Open(
          (base / "door").string(), "items", &clock, opts, copts);
      ASSERT_TRUE(door.ok()) << door.status().ToString();
      ProtectedDatabaseOptions sopts = opts;
      sopts.defer_delay_sleep = true;  // Charge without sleeping.
      auto serial = ProtectedDatabase::Open((base / "serial").string(),
                                            "items", &clock, sopts);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_NO_FATAL_FAILURE(LoadItems(door->get(), kRows));
      ASSERT_NO_FATAL_FAILURE(LoadItems(serial->get(), kRows));

      Rng rng(6151u * seed);
      ZipfDistribution zipf(kRows, 1.1);
      std::vector<DoorOp> ops = prefix;
      for (int i = 0; i < tail_ops; ++i) {
        ops.push_back({rng.Uniform(10) < 3,
                       static_cast<int64_t>(zipf.Sample(&rng))});
      }
      for (size_t i = 0; i < ops.size(); ++i) {
        auto got = RunOp(door->get(), ops[i]);
        auto want = RunOp(serial->get(), ops[i]);
        ASSERT_TRUE(got.ok()) << "op " << i << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << "op " << i << ": "
                               << want.status().ToString();
        ASSERT_NEAR(got->delay_seconds, want->delay_seconds,
                    1e-12 * want->delay_seconds)
            << "beta " << beta << " seed " << seed << " op " << i << " ("
            << (ops[i].select ? "SELECT" : "get") << " of key "
            << ops[i].key << ")";
      }
    }
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace tarpit
