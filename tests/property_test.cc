// Property-based and failure-injection tests: randomized operation
// sequences checked against reference models, crash-point injection
// into the WAL, and convergence of the learned delay policy to the
// closed-form model.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/model.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/analytic_zipf_delay.h"
#include "core/delay_engine.h"
#include "core/popularity_delay.h"
#include "defense/reputation.h"
#include "sim/adversary.h"
#include "stats/count_tracker.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name) {
    path_ = fs::temp_directory_path() /
            ("tarpit_prop_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }
  std::string file(const std::string& f) const {
    return (path_ / f).string();
  }

 private:
  fs::path path_;
};

// ---------- B+tree vs std::map reference ----------

class BTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeFuzzTest, RandomOpsMatchReferenceModel) {
  TempDir dir("btfuzz" + std::to_string(GetParam()));
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("t.idx")).ok());
  BufferPool pool(&dm, 64);
  BTree tree(&pool);
  ASSERT_TRUE(tree.Open().ok());

  std::map<int64_t, RecordId> reference;
  Rng rng(GetParam());
  const int64_t key_space = 2000;

  for (int op = 0; op < 20000; ++op) {
    const int64_t key =
        static_cast<int64_t>(rng.Uniform(key_space)) - key_space / 2;
    switch (rng.Uniform(4)) {
      case 0: {  // Insert.
        RecordId rid{static_cast<PageId>(rng.Uniform(1000)),
                     static_cast<uint16_t>(rng.Uniform(100))};
        Status st = tree.Insert(key, rid);
        if (reference.count(key)) {
          EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << key;
        } else {
          EXPECT_TRUE(st.ok()) << key;
          reference[key] = rid;
        }
        break;
      }
      case 1: {  // Delete.
        Status st = tree.Delete(key);
        EXPECT_EQ(st.ok(), reference.erase(key) > 0) << key;
        break;
      }
      case 2: {  // Search.
        Result<RecordId> rid = tree.Search(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_TRUE(rid.status().IsNotFound()) << key;
        } else {
          ASSERT_TRUE(rid.ok()) << key;
          EXPECT_EQ(*rid, it->second) << key;
        }
        break;
      }
      case 3: {  // UpdateRid.
        RecordId rid{static_cast<PageId>(rng.Uniform(1000)), 7};
        Status st = tree.UpdateRid(key, rid);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_TRUE(st.IsNotFound()) << key;
        } else {
          EXPECT_TRUE(st.ok()) << key;
          it->second = rid;
        }
        break;
      }
    }
  }
  // Full-scan equivalence: same keys, same order, same rids.
  std::vector<std::pair<int64_t, RecordId>> scanned;
  ASSERT_TRUE(tree.RangeScan(INT64_MIN, INT64_MAX,
                             [&](int64_t k, RecordId r) {
                               scanned.emplace_back(k, r);
                               return Status::OK();
                             })
                  .ok());
  ASSERT_EQ(scanned.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, r] : reference) {
    EXPECT_EQ(scanned[i].first, k);
    EXPECT_EQ(scanned[i].second, r);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- SlottedPage vs reference ----------

class SlottedPageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlottedPageFuzzTest, RandomOpsPreserveLiveRecords) {
  char buf[kPageSize] = {};
  SlottedPage page(buf);
  page.Init();
  std::map<uint16_t, std::string> reference;  // slot -> payload.
  Rng rng(GetParam() * 77);

  for (int op = 0; op < 5000; ++op) {
    const uint64_t action = rng.Uniform(3);
    if (action == 0) {  // Insert.
      std::string payload(1 + rng.Uniform(300), ' ');
      for (char& c : payload) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      Result<uint16_t> slot = page.Insert(payload);
      if (slot.ok()) {
        EXPECT_EQ(reference.count(*slot), 0u);
        reference[*slot] = payload;
      } else {
        EXPECT_TRUE(slot.status().IsResourceExhausted());
      }
    } else if (action == 1 && !reference.empty()) {  // Delete random.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      EXPECT_TRUE(page.Delete(it->first).ok());
      reference.erase(it);
    } else if (!reference.empty()) {  // Update random.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      std::string payload(1 + rng.Uniform(300), 'z');
      Status st = page.Update(it->first, payload);
      if (st.ok()) {
        it->second = payload;
      } else {
        EXPECT_TRUE(st.IsResourceExhausted());
      }
    }
    // Periodically verify every live record.
    if (op % 500 == 0) {
      for (const auto& [slot, payload] : reference) {
        auto rec = page.Get(slot);
        ASSERT_TRUE(rec.ok()) << slot;
        EXPECT_EQ(*rec, payload) << slot;
      }
    }
  }
  for (const auto& [slot, payload] : reference) {
    EXPECT_EQ(*page.Get(slot), payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageFuzzTest,
                         ::testing::Values(1, 2, 3));

// ---------- WAL crash-point injection ----------

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kString}});
}

TEST(WalCrashTest, AnyTruncationPointRecoversAPrefix) {
  // Write a table, capture its WAL, then for many truncation points
  // verify the table opens and contains a *prefix* of the history with
  // no corruption (torn tails are silently dropped).
  TempDir dir("walcrash");
  const int kOps = 60;
  {
    TableOptions opts;
    opts.heap_pool_pages = 4;  // Force early page evictions too.
    auto table = Table::Create(dir.path(), "kv", KvSchema(), 0, opts);
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(
          (*table)
              ->Insert({Value(i), Value("v" + std::to_string(i))})
              .ok());
    }
  }
  const std::string wal_path = dir.file("kv.wal");
  std::ifstream wal_in(wal_path, std::ios::binary);
  std::string wal_bytes((std::istreambuf_iterator<char>(wal_in)),
                        std::istreambuf_iterator<char>());
  wal_in.close();
  ASSERT_GT(wal_bytes.size(), 100u);

  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t cut = rng.Uniform(wal_bytes.size() + 1);
    // Fresh copy of the state: empty heap/index (simulating a crash
    // before any checkpoint) plus the truncated WAL.
    TempDir crash_dir("walcrash_t" + std::to_string(trial));
    {
      std::ofstream out(crash_dir.file("kv.wal"), std::ios::binary);
      out.write(wal_bytes.data(), static_cast<std::streamsize>(cut));
    }
    auto table = Table::Open(crash_dir.path(), "kv", KvSchema(), 0);
    ASSERT_TRUE(table.ok()) << "cut=" << cut;
    // The recovered table must contain exactly rows 0..m-1 for some m.
    const uint64_t rows = (*table)->NumRows();
    EXPECT_LE(rows, static_cast<uint64_t>(kOps));
    for (int64_t i = 0; i < static_cast<int64_t>(rows); ++i) {
      auto row = (*table)->GetByKey(i);
      ASSERT_TRUE(row.ok()) << "cut=" << cut << " i=" << i;
      EXPECT_EQ((*row)[1].AsString(), "v" + std::to_string(i));
    }
    // And nothing beyond the prefix.
    EXPECT_TRUE(
        (*table)->GetByKey(static_cast<int64_t>(rows)).status()
            .IsNotFound());
  }
}

TEST(WalCrashTest, BitFlipLosesAtMostASuffix) {
  TempDir dir("walflip");
  const int kOps = 40;
  {
    auto table = Table::Create(dir.path(), "kv", KvSchema(), 0);
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(
          (*table)
              ->Insert({Value(i), Value("v" + std::to_string(i))})
              .ok());
    }
  }
  const std::string wal_path = dir.file("kv.wal");
  std::ifstream in(wal_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::string flipped = bytes;
    flipped[rng.Uniform(flipped.size())] ^= 0x40;
    TempDir crash_dir("walflip_t" + std::to_string(trial));
    {
      std::ofstream out(crash_dir.file("kv.wal"), std::ios::binary);
      out.write(flipped.data(),
                static_cast<std::streamsize>(flipped.size()));
    }
    auto table = Table::Open(crash_dir.path(), "kv", KvSchema(), 0);
    // Either replay stops at the corrupt record (prefix recovered) or,
    // if the flip forged a semantically invalid record, open fails
    // cleanly -- it must never succeed with wrong data.
    if (!table.ok()) continue;
    const uint64_t rows = (*table)->NumRows();
    for (int64_t i = 0; i < static_cast<int64_t>(rows); ++i) {
      auto row = (*table)->GetByKey(i);
      if (row.ok()) {
        EXPECT_EQ((*row)[1].AsString(), "v" + std::to_string(i))
            << "trial=" << trial;
      }
    }
  }
}

// ---------- Table random ops vs reference ----------

TEST(TableFuzzTest, RandomCrudMatchesReference) {
  TempDir dir("tablefuzz");
  TableOptions opts;
  opts.heap_pool_pages = 8;
  opts.index_pool_pages = 8;
  auto table = Table::Create(dir.path(), "kv", KvSchema(), 0, opts);
  ASSERT_TRUE(table.ok());
  std::map<int64_t, std::string> reference;
  Rng rng(123);

  for (int op = 0; op < 5000; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(300));
    switch (rng.Uniform(4)) {
      case 0: {
        std::string v(1 + rng.Uniform(200), 'x');
        Status st = (*table)->Insert({Value(key), Value(v)});
        if (reference.count(key)) {
          EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
        } else {
          ASSERT_TRUE(st.ok());
          reference[key] = v;
        }
        break;
      }
      case 1: {
        std::string v(1 + rng.Uniform(400), 'u');
        Status st = (*table)->UpdateByKey(key, {Value(key), Value(v)});
        if (reference.count(key)) {
          ASSERT_TRUE(st.ok());
          reference[key] = v;
        } else {
          EXPECT_TRUE(st.IsNotFound());
        }
        break;
      }
      case 2: {
        Status st = (*table)->DeleteByKey(key);
        EXPECT_EQ(st.ok(), reference.erase(key) > 0);
        break;
      }
      case 3: {
        auto row = (*table)->GetByKey(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_TRUE(row.status().IsNotFound());
        } else {
          ASSERT_TRUE(row.ok());
          EXPECT_EQ((*row)[1].AsString(), it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ((*table)->NumRows(), reference.size());
  // Survive a checkpoint + reopen with identical contents.
  ASSERT_TRUE((*table)->Checkpoint().ok());
  table->reset();
  auto reopened = Table::Open(dir.path(), "kv", KvSchema(), 0, opts);
  ASSERT_TRUE(reopened.ok());
  for (const auto& [k, v] : reference) {
    auto row = (*reopened)->GetByKey(k);
    ASSERT_TRUE(row.ok()) << k;
    EXPECT_EQ((*row)[1].AsString(), v);
  }
}

// ---------- Table + secondary index vs reference ----------

TEST(TableFuzzTest, SecondaryIndexStaysConsistentUnderChurn) {
  TempDir dir("secfuzz");
  Schema schema({{"id", ColumnType::kInt64},
                 {"color", ColumnType::kString}});
  auto table = Table::Create(dir.path(), "kv", schema, 0);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateSecondaryIndex("color").ok());

  const char* colors[4] = {"red", "green", "blue", "teal"};
  std::map<int64_t, std::string> reference;
  Rng rng(321);
  for (int op = 0; op < 4000; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(200));
    const std::string color = colors[rng.Uniform(4)];
    switch (rng.Uniform(3)) {
      case 0: {
        Status st = (*table)->Insert({Value(key), Value(color)});
        if (!reference.count(key)) {
          ASSERT_TRUE(st.ok());
          reference[key] = color;
        }
        break;
      }
      case 1: {
        Status st =
            (*table)->UpdateByKey(key, {Value(key), Value(color)});
        if (reference.count(key)) {
          ASSERT_TRUE(st.ok());
          reference[key] = color;
        }
        break;
      }
      case 2:
        if ((*table)->DeleteByKey(key).ok()) {
          reference.erase(key);
        }
        break;
    }
    if (op % 400 == 0) {
      // Cross-check the index against the reference, per color.
      for (const char* c : colors) {
        std::set<int64_t> via_index;
        ASSERT_TRUE((*table)
                        ->LookupBySecondary(1, Value(c),
                                            [&](const Row& row) {
                                              via_index.insert(
                                                  row[0].AsInt());
                                              return Status::OK();
                                            })
                        .ok());
        std::set<int64_t> truth;
        for (const auto& [k, v] : reference) {
          if (v == c) truth.insert(k);
        }
        ASSERT_EQ(via_index, truth) << "color " << c << " op " << op;
      }
    }
  }
}

// ---------- Learned policy converges to the closed form ----------

class ConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(ConvergenceTest, LearnedDelaysTrackAnalyticShape) {
  // After enough Zipf(alpha) samples, the learned policy's delay as a
  // function of true rank must track Eq. 1's power law: ratios between
  // head ranks should match i^(alpha+beta) within sampling noise.
  const double alpha = GetParam();
  const uint64_t n = 2'000;
  const double beta = 1.0;
  CountTracker tracker(n, 1.0);
  ZipfDistribution zipf(n, alpha);
  Rng rng(31);
  for (int i = 0; i < 2'000'000; ++i) {
    tracker.Record(static_cast<int64_t>(zipf.Sample(&rng)));
  }
  PopularityDelayParams params;
  params.scale = 1.0;
  params.beta = beta;
  params.bounds = {0.0, 1e18};
  PopularityDelayPolicy learned(&tracker, params);

  // d(i)/d(1) should be ~ i^(alpha+beta).
  const double d1 = learned.DelayFor(1);
  for (uint64_t i : {2ull, 4ull, 8ull, 16ull}) {
    const double expected =
        std::pow(static_cast<double>(i), alpha + beta);
    const double observed = learned.DelayFor(static_cast<int64_t>(i)) / d1;
    EXPECT_NEAR(observed / expected, 1.0, 0.15)
        << "alpha=" << alpha << " rank=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ConvergenceTest,
                         ::testing::Values(0.8, 1.0, 1.5));

TEST(ConvergenceTest, SimulatedExtractionMatchesClosedForm) {
  // The analytic policy + sequential extraction must equal Eq. 6
  // exactly (they are two independent implementations of the sum).
  ZipfModelParams model;
  model.n = 50'000;
  model.alpha = 1.2;
  model.beta = 0.8;
  model.fmax = 3.0;
  model.dmax = 10.0;

  AnalyticZipfParams policy_params;
  policy_params.n = model.n;
  policy_params.alpha = model.alpha;
  policy_params.beta = model.beta;
  policy_params.fmax = model.fmax;
  policy_params.bounds = {0.0, model.dmax};
  AnalyticZipfDelayPolicy policy(policy_params);

  ExtractionReport report = RunSequentialExtraction(policy, model.n);
  const double closed_form = AdversaryDelayCapped(model);
  EXPECT_NEAR(report.total_delay_seconds, closed_form,
              closed_form * 1e-3);
}

// ---------- Reputation store properties ----------

class ReputationPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ReputationPropertyTest, ComposedDelayNeverBelowBaseForAnyHistory) {
  // Against random signal/decay/access histories, for every (key,
  // principal, time) probe: the engine's escalated charge
  // Charge(key, PenaltyFactor) >= the base policy's DelayFor(key), and
  // PenaltyFactor >= 1.
  Rng rng(GetParam());
  ReputationOptions opts;
  opts.growth = 1.0 + rng.NextDouble() * 3.0;
  opts.subnet_growth = 1.0 + rng.NextDouble() * 2.0;
  opts.half_life_seconds = 1.0 + rng.NextDouble() * 100.0;
  opts.breadth_free_fraction = rng.NextDouble() * 0.1;
  ReputationStore store(opts);
  CountTracker tracker(500, 1.0);
  PopularityDelayParams params;
  params.scale = rng.NextDouble() * 10.0;
  params.bounds = {0.0, 100.0};
  PopularityDelayPolicy policy(&tracker, params);
  DelayEngine engine(&policy);

  double now = 0.0;
  for (int step = 0; step < 2000; ++step) {
    now += rng.Exponential(1.0);
    const uint64_t identity = rng.Uniform(8);
    const uint32_t subnet = static_cast<uint32_t>(rng.Uniform(4)) << 8;
    switch (rng.Uniform(3)) {
      case 0:
        store.RecordSignal(identity, subnet, now,
                           ReputationSignal::kExternal,
                           rng.NextDouble() * 2.0);
        break;
      case 1: {
        const int64_t key = static_cast<int64_t>(rng.Uniform(500));
        tracker.Record(key);
        store.ObserveAccess(identity, subnet, key, 500, now);
        break;
      }
      case 2:
        store.RecordBenign(identity, subnet, now);
        break;
    }
    const int64_t key = static_cast<int64_t>(rng.Uniform(500));
    const double charged =
        engine.Charge(key, store.PenaltyFactor(identity, subnet, now));
    ASSERT_GE(charged, policy.DelayFor(key)) << "step " << step;
    ASSERT_GE(store.PenaltyFactor(identity, subnet, now), 1.0)
        << "step " << step;
  }
}

TEST_P(ReputationPropertyTest, MonotoneGrowthAndFullDecay) {
  // Sustained extraction-shaped signals grow the factor monotonically
  // (decay between signals never outruns growth at dt=0), and any
  // history decays all the way back to EXACTLY baseline.
  Rng rng(GetParam());
  ReputationOptions opts;
  opts.growth = 2.0;
  opts.half_life_seconds = 50.0;
  opts.max_penalty = 1e6;
  ReputationStore store(opts);

  double prev = 1.0;
  const int signals = 5 + static_cast<int>(rng.Uniform(20));
  for (int i = 0; i < signals; ++i) {
    store.RecordSignal(1, 0x0A000000, 0.0, ReputationSignal::kExternal,
                       0.1 + rng.NextDouble());
    const double factor = store.PenaltyFactor(1, 0x0A000000, 0.0);
    ASSERT_GT(factor, prev) << i;
    prev = factor;
  }
  // log-penalty halves every half-life and snaps to zero inside
  // baseline_epsilon; 60 half-lives is past the snap for any capped
  // penalty.
  const double quiet = 60.0 * opts.half_life_seconds;
  EXPECT_DOUBLE_EQ(store.PenaltyFactor(1, 0x0A000000, quiet), 1.0);
}

TEST_P(ReputationPropertyTest, ChurnedIdentitiesCannotShedSubnetPenalty) {
  // However the fleet churns identities, the subnet factor is
  // non-decreasing at a fixed instant: rebirth sheds only the identity
  // component.
  Rng rng(GetParam());
  ReputationOptions opts;
  opts.subnet_growth = 1.5;
  opts.max_subnet_penalty = 1e9;
  ReputationStore store(opts);
  const uint32_t subnet = 0x0A000000;

  double floor = 1.0;
  for (int gen = 0; gen < 50; ++gen) {
    const uint64_t identity = 1000 + gen;
    store.RecordSignal(identity, subnet, 0.0,
                       ReputationSignal::kExternal);
    if (rng.Bernoulli(0.5)) store.ForgetIdentity(identity);  // Churn.
    const uint64_t fresh = 100000 + gen;
    const double inherited = store.PenaltyFactor(fresh, subnet, 0.0);
    ASSERT_GE(inherited, floor) << gen;
    floor = inherited;
  }
  EXPECT_GT(floor, 100.0);  // 1.5^50 capped by max_subnet_penalty.
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReputationPropertyTest,
                         ::testing::Values(11u, 23u, 37u));

}  // namespace
}  // namespace tarpit
