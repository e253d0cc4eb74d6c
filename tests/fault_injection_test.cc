// Crash-safety and overload-survival suite (PR 8): deterministic fail
// points, the fault-injection disk, WAL/page self-healing recovery, the
// durable delay ledger, and the resource governor's shed-before-collapse
// semantics. Registered under the `fault` ctest label.
//
// The centerpiece is CrashTortureTest.SeededKillPoints: >=1000 seeded
// crash simulations (arbitrary torn WAL tails over a fault-injection
// disk) across insert/update/delete, fsync-per-record, group-commit,
// checkpoint and media-corruption regimes, each checked against a
// serial std::map oracle for zero committed-data loss and clean
// torn-tail truncation.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/delay_ledger.h"
#include "core/delay_scheduler.h"
#include "core/protected_db.h"
#include "core/resource_governor.h"
#include "defense/identity.h"
#include "defense/query_gate.h"
#include "defense/reputation.h"
#include "obs/failpoint_metrics.h"
#include "obs/metrics.h"
#include "registry_series.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection_disk.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/wal.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

/// Iteration budget for stress-ish loops: TARPIT_STRESS_ITERS caps the
/// default so sanitizer runs stay fast.
int StressIters(int default_iters) {
  const char* env = std::getenv("TARPIT_STRESS_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name) {
    path_ = fs::temp_directory_path() /
            ("tarpit_fault_" + name + "_" + std::to_string(::getpid()));
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

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"score", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
}

// ---------- FailPoints registry ----------

/// Every test in this file may enable process-global fail points;
/// the fixture guarantees none leak into the next test.
class FailPointsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPoints::Instance().DisableAll();
    FailPoints::Instance().SetObserver(nullptr);
  }
};

TEST_F(FailPointsTest, DisabledIsInert) {
  ASSERT_FALSE(FailPoints::AnyActive());
  EXPECT_FALSE(TARPIT_FAILPOINT("fp.never_enabled").has_value());
  // Hits on never-enabled points are not even tracked (fast path).
  EXPECT_EQ(FailPoints::Instance().hits("fp.never_enabled"), 0u);
}

TEST_F(FailPointsTest, AlwaysFiresUntilDisabled) {
  FailPointSpec spec;  // kAlways.
  FailPoints::Instance().Enable("fp.always", spec);
  EXPECT_TRUE(FailPoints::AnyActive());
  EXPECT_TRUE(TARPIT_FAILPOINT("fp.always").has_value());
  EXPECT_TRUE(TARPIT_FAILPOINT("fp.always").has_value());
  EXPECT_EQ(FailPoints::Instance().hits("fp.always"), 2u);
  EXPECT_EQ(FailPoints::Instance().fires("fp.always"), 2u);
  FailPoints::Instance().Disable("fp.always");
  EXPECT_FALSE(FailPoints::AnyActive());
  EXPECT_FALSE(TARPIT_FAILPOINT("fp.always").has_value());
}

TEST_F(FailPointsTest, NthHitFiresExactlyOnce) {
  FailPointSpec spec;
  spec.trigger = FailPointSpec::Trigger::kNthHit;
  spec.nth = 3;
  FailPoints::Instance().Enable("fp.nth", spec);
  EXPECT_FALSE(TARPIT_FAILPOINT("fp.nth").has_value());
  EXPECT_FALSE(TARPIT_FAILPOINT("fp.nth").has_value());
  EXPECT_TRUE(TARPIT_FAILPOINT("fp.nth").has_value());   // Hit #3.
  EXPECT_FALSE(TARPIT_FAILPOINT("fp.nth").has_value());  // Capped at 1.
  EXPECT_EQ(FailPoints::Instance().fires("fp.nth"), 1u);
}

TEST_F(FailPointsTest, MaxFiresCapsAlways) {
  FailPointSpec spec;
  spec.max_fires = 2;
  FailPoints::Instance().Enable("fp.capped", spec);
  EXPECT_TRUE(TARPIT_FAILPOINT("fp.capped").has_value());
  EXPECT_TRUE(TARPIT_FAILPOINT("fp.capped").has_value());
  EXPECT_FALSE(TARPIT_FAILPOINT("fp.capped").has_value());
  EXPECT_EQ(FailPoints::Instance().fires("fp.capped"), 2u);
  EXPECT_EQ(FailPoints::Instance().hits("fp.capped"), 3u);
}

TEST_F(FailPointsTest, ProbabilityIsSeedDeterministic) {
  auto pattern = [](uint64_t seed) {
    FailPointSpec spec;
    spec.trigger = FailPointSpec::Trigger::kProbability;
    spec.probability = 0.5;
    spec.seed = seed;
    FailPoints::Instance().Enable("fp.prob", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(TARPIT_FAILPOINT("fp.prob").has_value());
    }
    FailPoints::Instance().Disable("fp.prob");
    return fired;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b);  // Same seed replays identically.
  EXPECT_NE(a, c);  // Different seed is a different trace.
  // And the rate is actually probabilistic, not all-or-nothing.
  int fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 8);
  EXPECT_LT(fires, 56);
}

TEST_F(FailPointsTest, ArgIsDeliveredToTheSite) {
  FailPointSpec spec;
  spec.arg = 1234;
  FailPoints::Instance().Enable("fp.arg", spec);
  auto fired = TARPIT_FAILPOINT("fp.arg");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, 1234);
}

TEST_F(FailPointsTest, MetricsObserverMirrorsHitsAndFires) {
  obs::MetricRegistry registry;
  obs::BindFailPointMetrics(&registry);
  FailPointSpec spec;
  spec.trigger = FailPointSpec::Trigger::kNthHit;
  spec.nth = 2;
  FailPoints::Instance().Enable("fp.metered", spec);
  (void)TARPIT_FAILPOINT("fp.metered");
  (void)TARPIT_FAILPOINT("fp.metered");
  (void)TARPIT_FAILPOINT("fp.metered");
  EXPECT_EQ(registry
                .GetCounter("tarpit_failpoint_hits_total",
                            {{"point", "fp.metered"}})
                ->Value(),
            3);
  EXPECT_EQ(registry
                .GetCounter("tarpit_failpoint_fires_total",
                            {{"point", "fp.metered"}})
                ->Value(),
            1);
  // Uninstall before the registry goes out of scope.
  FailPoints::Instance().SetObserver(nullptr);
}

// ---------- FaultInjectionDiskManager ----------

class FaultDiskTest : public FailPointsTest {};

TEST_F(FaultDiskTest, VolatileOverlayLostWithoutSync) {
  auto state = std::make_shared<FaultDiskState>();
  {
    FaultInjectionDiskManager dm(state);
    ASSERT_TRUE(dm.Open("x.db").ok());
    char page[kPageSize] = {};
    std::memcpy(page, "unsynced", 8);
    ASSERT_TRUE(dm.WritePage(0, page).ok());
    EXPECT_EQ(dm.PageCount(), 1u);
    // No Sync: the write never leaves the volatile overlay.
  }
  FaultInjectionDiskManager dm2(state);
  ASSERT_TRUE(dm2.Open("x.db").ok());
  EXPECT_EQ(dm2.PageCount(), 0u);  // The crash ate it.
}

TEST_F(FaultDiskTest, SyncPromotesToDurable) {
  auto state = std::make_shared<FaultDiskState>();
  char page[kPageSize] = {};
  std::memcpy(page, "durable", 7);
  {
    FaultInjectionDiskManager dm(state);
    ASSERT_TRUE(dm.Open("x.db").ok());
    ASSERT_TRUE(dm.WritePage(0, page).ok());
    ASSERT_TRUE(dm.Sync().ok());
  }
  EXPECT_EQ(state->syncs, 1u);
  FaultInjectionDiskManager dm2(state);
  ASSERT_TRUE(dm2.Open("x.db").ok());
  ASSERT_EQ(dm2.PageCount(), 1u);
  char out[kPageSize];
  ASSERT_TRUE(dm2.ReadPage(0, out).ok());
  EXPECT_EQ(std::memcmp(out, page, kPageUsableSize), 0);
}

TEST_F(FaultDiskTest, PlantedCorruptionFailsChecksum) {
  auto state = std::make_shared<FaultDiskState>();
  FaultInjectionDiskManager dm(state);
  ASSERT_TRUE(dm.Open("x.db").ok());
  char page[kPageSize] = {};
  std::memcpy(page, "victim", 6);
  ASSERT_TRUE(dm.WritePage(0, page).ok());
  ASSERT_TRUE(dm.Sync().ok());
  ASSERT_TRUE(state->CorruptDurablePage(0, 100, 0x5A));
  FaultInjectionDiskManager dm2(state);
  ASSERT_TRUE(dm2.Open("x.db").ok());
  char out[kPageSize];
  Status st = dm2.ReadPage(0, out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(FaultDiskTest, InjectedWriteAndSyncFaults) {
  auto state = std::make_shared<FaultDiskState>();
  FaultInjectionDiskManager dm(state);
  ASSERT_TRUE(dm.Open("x.db").ok());
  char page[kPageSize] = {};
  std::memcpy(page, "baseline", 8);
  ASSERT_TRUE(dm.WritePage(0, page).ok());

  // ENOSPC: the overwrite fails before anything lands.
  FailPoints::Instance().Enable("disk.pwrite_enospc", FailPointSpec{});
  EXPECT_TRUE(dm.WritePage(0, page).IsIOError());
  FailPoints::Instance().Disable("disk.pwrite_enospc");
  char out[kPageSize];
  EXPECT_TRUE(dm.ReadPage(0, out).ok());  // Baseline image intact.

  // Torn page: only `arg` leading bytes of the NEW image hit, leaving
  // a frankenstein of new prefix + stale suffix whose trailer the
  // read-side checksum catches. The new content must differ from the
  // baseline or the torn image is byte-identical and still valid.
  std::memcpy(page, "overwrite", 9);
  FailPointSpec torn;
  torn.arg = 100;
  FailPoints::Instance().Enable("disk.pwrite_short", torn);
  EXPECT_TRUE(dm.WritePage(0, page).IsIOError());
  FailPoints::Instance().Disable("disk.pwrite_short");
  EXPECT_TRUE(dm.ReadPage(0, out).IsCorruption());

  // fsync failure surfaces instead of silently losing the promote.
  FailPoints::Instance().Enable("disk.fsync_fail", FailPointSpec{});
  EXPECT_TRUE(dm.Sync().IsIOError());
  FailPoints::Instance().Disable("disk.fsync_fail");

  // EIO on read.
  ASSERT_TRUE(dm.WritePage(0, page).ok());
  FailPoints::Instance().Enable("disk.pread_eio", FailPointSpec{});
  EXPECT_TRUE(dm.ReadPage(0, out).IsIOError());
  FailPoints::Instance().Disable("disk.pread_eio");
  EXPECT_TRUE(dm.ReadPage(0, out).ok());
}

// ---------- WAL recovery ----------

class WalRecoveryTest : public FailPointsTest {};

TEST_F(WalRecoveryTest, RecoverTruncatesTornTail) {
  TempDir dir("wal_torn");
  const std::string path = dir.file("t.wal");
  uint64_t intact_bytes = 0;
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "alpha").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, "beta").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kDelete, "12345678").ok());
    intact_bytes = wal.synced_bytes() + wal.unsynced_bytes();
    ASSERT_TRUE(wal.Close().ok());
  }
  // Simulate a crash mid-append: garbage (a plausible-looking partial
  // frame) after the last intact record.
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    const char garbage[] = "\x10\x00\x00\x00\x01torn";
    f.write(garbage, sizeof(garbage) - 1);
  }
  Wal wal2;
  ASSERT_TRUE(wal2.Open(path).ok());
  // Replay is read-only: it stops at the tear but leaves it in place.
  int replayed = 0;
  ASSERT_TRUE(wal2
                  .Replay([&](WalRecordType, std::string_view) {
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 3);
  ASSERT_GT(*wal2.SizeBytes(), intact_bytes);
  // Recover replays the same prefix AND physically discards the tail.
  replayed = 0;
  ASSERT_TRUE(wal2
                  .Recover([&](WalRecordType, std::string_view) {
                    ++replayed;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(replayed, 3);
  EXPECT_EQ(wal2.last_recovery_records(), 3u);
  EXPECT_GT(wal2.last_recovery_truncated_bytes(), 0u);
  EXPECT_EQ(*wal2.SizeBytes(), intact_bytes);
}

TEST_F(WalRecoveryTest, CorruptedPayloadStopsReplayAtLastIntact) {
  TempDir dir("wal_crc");
  const std::string path = dir.file("t.wal");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "first").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "second").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip a byte inside the SECOND record's payload: its CRC fails, so
  // recovery keeps record one and truncates from the tear onward.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(5 + 5 + 4 + 5 + 2));
    char b = 'X';
    f.write(&b, 1);
  }
  Wal wal2;
  ASSERT_TRUE(wal2.Open(path).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal2
                  .Recover([&](WalRecordType, std::string_view p) {
                    seen.emplace_back(p);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_GT(wal2.last_recovery_truncated_bytes(), 0u);
}

TEST_F(WalRecoveryTest, AppendShortLeavesTornFrame) {
  TempDir dir("wal_short");
  const std::string path = dir.file("t.wal");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "kept").ok());
    FailPointSpec spec;
    spec.arg = 3;  // Three bytes of the frame land, then power loss.
    FailPoints::Instance().Enable("wal.append_short", spec);
    EXPECT_TRUE(
        wal.Append(WalRecordType::kInsert, "lost").IsIOError());
    FailPoints::Instance().Disable("wal.append_short");
    ASSERT_TRUE(wal.Close().ok());
  }
  Wal wal2;
  ASSERT_TRUE(wal2.Open(path).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal2
                  .Recover([&](WalRecordType, std::string_view p) {
                    seen.emplace_back(p);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "kept");
  EXPECT_EQ(wal2.last_recovery_truncated_bytes(), 3u);
}

TEST_F(WalRecoveryTest, FsyncFailureSurfaces) {
  TempDir dir("wal_fsync");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  FailPoints::Instance().Enable("wal.fsync_fail", FailPointSpec{});
  EXPECT_TRUE(
      wal.Append(WalRecordType::kInsert, "x", /*sync=*/true).IsIOError());
  FailPoints::Instance().Disable("wal.fsync_fail");
  EXPECT_TRUE(wal.Append(WalRecordType::kInsert, "y", true).ok());
  ASSERT_TRUE(wal.Close().ok());
}

// ---------- Table-level recovery (quarantine + rebuild) ----------

/// Routes every table data file onto a fault-injection disk whose
/// durable state (keyed by path, so multi-table databases get one
/// "device" per file) survives instance destruction. The WAL stays a
/// real file whose torn tail the tests control directly.
struct FaultTableRig {
  std::map<std::string, std::shared_ptr<FaultDiskState>> states;

  std::shared_ptr<FaultDiskState> StateFor(const std::string& path) {
    auto& s = states[path];
    if (!s) s = std::make_shared<FaultDiskState>();
    return s;
  }

  /// The crash-surviving state of the first file ending in `suffix`
  /// (e.g. "t.tbl"); null until that file has been opened once.
  std::shared_ptr<FaultDiskState> ForSuffix(const std::string& suffix) {
    for (auto& [path, state] : states) {
      if (path.size() >= suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        return state;
      }
    }
    return nullptr;
  }

  TableOptions Options() {
    TableOptions t;
    t.disk_factory =
        [this](const std::string& path) -> std::unique_ptr<DiskManager> {
      return std::make_unique<FaultInjectionDiskManager>(StateFor(path));
    };
    return t;
  }
};

Row MakeRow(int64_t key, double score) {
  return {Value(key), Value(score), Value("k" + std::to_string(key))};
}

TEST_F(FailPointsTest, CorruptHeapPageQuarantinedAndHealedFromWal) {
  TempDir dir("tbl_heal");
  FaultTableRig rig;
  {
    auto t = Table::Create(dir.path(), "t", TestSchema(), 0,
                           rig.Options());
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    for (int64_t k = 1; k <= 20; ++k) {
      ASSERT_TRUE((*t)->Insert(MakeRow(k, k * 1.5)).ok());
    }
    // Push the page images to "disk" but keep the log authoritative.
    ASSERT_TRUE((*t)->FlushPools().ok());
  }
  // Media corruption on a durable heap page AND a durable index page.
  auto heap = rig.ForSuffix("t.tbl");
  auto index = rig.ForSuffix("t.idx");
  ASSERT_NE(heap, nullptr);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(heap->CorruptDurablePage(0, 321, 0x7F));
  ASSERT_FALSE(index->durable_pages.empty());
  ASSERT_TRUE(index->CorruptDurablePage(
      index->durable_pages.rbegin()->first, 55, 0x11));

  auto t = Table::Open(dir.path(), "t", TestSchema(), 0, rig.Options());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->quarantined_pages(), 1u);
  EXPECT_EQ((*t)->index_rebuilds(), 1u);
  EXPECT_GT((*t)->recovered_wal_records(), 0u);
  ASSERT_EQ((*t)->NumRows(), 20u);
  for (int64_t k = 1; k <= 20; ++k) {
    auto row = (*t)->GetByKey(k);
    ASSERT_TRUE(row.ok()) << "key " << k << ": "
                          << row.status().ToString();
    EXPECT_EQ((*row)[1].AsDouble(), k * 1.5);
  }
}

TEST_F(FailPointsTest, BufferPoolFetchCorruptionSurfaces) {
  TempDir dir("tbl_fetch");
  TableOptions topt;
  // Tiny pools (but big enough for the B+tree's pinned root-to-leaf
  // path) so point reads actually fetch from disk.
  topt.heap_pool_pages = 2;
  topt.index_pool_pages = 8;
  auto t = Table::Create(dir.path(), "t", TestSchema(), 0, topt);
  ASSERT_TRUE(t.ok());
  // Enough rows that the heap spans many more pages than the 2-frame
  // pool holds, so point reads MUST fetch from disk.
  for (int64_t k = 1; k <= 2000; ++k) {
    ASSERT_TRUE((*t)->Insert(MakeRow(k, 1.0)).ok());
  }
  FailPointSpec spec;
  spec.trigger = FailPointSpec::Trigger::kNthHit;
  spec.nth = 1;
  FailPoints::Instance().Enable("bufpool.fetch_corrupt", spec);
  // Some fetch in this sweep hits the injected rot and must surface
  // Corruption instead of returning a bogus row.
  bool saw_corruption = false;
  for (int64_t k = 1; k <= 2000 && !saw_corruption; ++k) {
    auto row = (*t)->GetByKey(k);
    if (!row.ok()) {
      EXPECT_TRUE(row.status().IsCorruption())
          << row.status().ToString();
      saw_corruption = true;
    }
  }
  FailPoints::Instance().Disable("bufpool.fetch_corrupt");
  EXPECT_TRUE(saw_corruption);
  // The failure is transient (injected at fetch, not on media): the
  // same keys read fine on retry.
  for (int64_t k = 1; k <= 2000; ++k) {
    EXPECT_TRUE((*t)->GetByKey(k).ok());
  }
}

// ---------- Crash torture ----------

/// One logical mutation plus where the log stood after it.
struct TortureOp {
  enum Kind { kInsert, kUpdate, kDelete } kind;
  int64_t key;
  double score;
  uint64_t appended_after;  // WAL bytes (since last truncate) after op.
};

/// >=1000 seeded crash points. Per seed: build a table on
/// fault-injection disks, apply a random op sequence under one of three
/// durability regimes, "crash" by dropping every volatile page overlay
/// and truncating the real WAL at a random physically-possible offset,
/// reopen, and compare against the op-prefix oracle:
///   * zero committed-data loss: every op whose WAL frame survived (and
///     everything below the durability floor) is present;
///   * no phantom ops: nothing beyond the surviving prefix is applied;
///   * clean torn-tail truncation: recovery reports exactly the bytes
///     past the last intact frame.
TEST(CrashTortureTest, SeededKillPoints) {
  const int seeds = StressIters(1000);
  TempDir dir("torture");
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(0x9E3779B97F4A7C15ULL ^ static_cast<uint64_t>(seed));
    const int style = seed % 3;  // 0: no-sync, 1: group-commit, 2: ckpt.
    const std::string sub = dir.file("s" + std::to_string(seed));
    fs::create_directories(sub);

    FaultTableRig rig;
    TableOptions topt = rig.Options();
    topt.heap_pool_pages = 8;
    topt.index_pool_pages = 8;
    if (style == 1) {
      topt.wal_sync = true;
      topt.wal_group_commit_window_micros = int64_t{1} << 40;
    }

    std::vector<TortureOp> ops;
    std::map<int64_t, double> live;  // Working state while generating.
    size_t committed_floor = 0;      // Ops made durable by Checkpoint.
    uint64_t flush_floor_bytes = 0;  // WAL offset at last FlushPools.
    size_t checkpoint_at = style == 2 ? 3 + rng.Uniform(10) : SIZE_MAX;

    {
      auto created =
          Table::Create(sub, "t", TestSchema(), 0, topt);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      std::unique_ptr<Table> table = std::move(*created);
      // Make the formatted-empty baseline durable, as a real mkfs-and-
      // sync would; everything after is at the mercy of the crash.
      ASSERT_TRUE(table->FlushPools().ok());

      const int n_ops = 12 + static_cast<int>(rng.Uniform(20));
      for (int i = 0; i < n_ops; ++i) {
        const int64_t key = static_cast<int64_t>(rng.Uniform(50));
        TortureOp op;
        op.key = key;
        op.score = static_cast<double>(rng.Uniform(1000)) / 8.0;
        auto it = live.find(key);
        if (it == live.end()) {
          op.kind = TortureOp::kInsert;
          ASSERT_TRUE(table->Insert(MakeRow(key, op.score)).ok());
          live[key] = op.score;
        } else if (rng.Uniform(3) == 0) {
          op.kind = TortureOp::kDelete;
          ASSERT_TRUE(table->DeleteByKey(key).ok());
          live.erase(it);
        } else {
          op.kind = TortureOp::kUpdate;
          ASSERT_TRUE(
              table->UpdateByKey(key, MakeRow(key, op.score)).ok());
          it->second = op.score;
        }
        op.appended_after =
            table->wal()->synced_bytes() + table->wal()->unsynced_bytes();
        ops.push_back(op);

        if (style == 1 && rng.Uniform(4) == 0) {
          ASSERT_TRUE(table->SyncWal().ok());
        }
        if (style == 0 && rng.Uniform(8) == 0) {
          // Base pages go durable but the log is NOT truncated: any
          // crash point at or past this offset is physically possible.
          ASSERT_TRUE(table->FlushPools().ok());
          flush_floor_bytes = op.appended_after;
        }
        if (static_cast<size_t>(i) == checkpoint_at) {
          ASSERT_TRUE(table->Checkpoint().ok());
          committed_floor = ops.size();
          flush_floor_bytes = 0;  // Log restarted at offset zero.
        }
      }

      // Choose the kill point: everything fsync'd (WAL synced offset,
      // checkpoint, base flush) must survive; anything after is fair
      // game, including mid-frame.
      const uint64_t synced = table->wal()->synced_bytes();
      const uint64_t appended = synced + table->wal()->unsynced_bytes();
      const uint64_t floor = std::max(synced, flush_floor_bytes);
      const uint64_t kept = floor + rng.Uniform(appended - floor + 1);
      // "Crash": drop the table (volatile page overlays evaporate),
      // then tear the real log at the kill point.
      table.reset();
      fs::resize_file(fs::path(sub) / "t.wal", kept);

      // Optional media corruption on top of the crash -- only while the
      // un-truncated log still covers every row, so replay heals the
      // quarantined page exactly.
      auto heap = rig.ForSuffix("t.tbl");
      if (committed_floor == 0 && flush_floor_bytes == 0 && heap &&
          rng.Uniform(4) == 0 && !heap->durable_pages.empty()) {
        auto it = heap->durable_pages.begin();
        std::advance(it, rng.Uniform(heap->durable_pages.size()));
        ASSERT_TRUE(heap->CorruptDurablePage(it->first, 77, 0x3C));
      }

      // Oracle: the committed prefix is every checkpointed op plus
      // every later op whose full WAL frame fits in the kept bytes.
      size_t k = committed_floor;
      uint64_t last_boundary = 0;
      for (size_t i = committed_floor; i < ops.size(); ++i) {
        if (ops[i].appended_after <= kept) {
          k = i + 1;
          last_boundary = ops[i].appended_after;
        } else {
          break;
        }
      }
      std::map<int64_t, double> oracle;
      for (size_t i = 0; i < k; ++i) {
        const TortureOp& op = ops[i];
        if (op.kind == TortureOp::kDelete) {
          oracle.erase(op.key);
        } else {
          oracle[op.key] = op.score;
        }
      }

      auto reopened = Table::Open(sub, "t", TestSchema(), 0, topt);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      std::unique_ptr<Table> after = std::move(*reopened);
      EXPECT_EQ(after->recovered_wal_records(), k - committed_floor);
      EXPECT_EQ(after->wal_truncated_bytes(), kept - last_boundary);

      std::map<int64_t, double> actual;
      ASSERT_TRUE(after
                      ->ScanAll([&](const Row& row) {
                        actual[row[0].AsInt()] = row[1].AsDouble();
                        return Status::OK();
                      })
                      .ok());
      EXPECT_EQ(actual, oracle)
          << "style=" << style << " kept=" << kept << " k=" << k
          << " of " << ops.size();
      EXPECT_EQ(after->NumRows(), oracle.size());
    }
    fs::remove_all(sub);
  }
}

/// Group-commit batches + DDL fences through the concurrent front
/// door, then a crash that loses every base page written since create:
/// the commit-time WAL records alone must reconstruct the exact logical
/// state (idempotent replay over an arbitrary reclaim prefix).
TEST(CrashTortureTest, MvccGroupCommitReplaysIdempotently) {
  TempDir dir("mvcc_crash");
  RealClock clock;
  FaultTableRig rig;

  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  opts.popularity.bounds = {0.0, 10.0};
  opts.table_options = rig.Options();
  ConcurrentDatabaseOptions copts;
  copts.mode = ConcurrencyMode::kSharded;
  copts.mvcc_reclaim_every_commits = 4;  // Partial reclaim guaranteed.
  copts.serve_delays = false;
  obs::MetricRegistry metrics;
  copts.metrics = &metrics;

  std::map<int64_t, double> oracle;
  {
    auto cdb = ConcurrentProtectedDatabase::Open(dir.path(), "items",
                                                 &clock, opts, copts);
    ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();
    ASSERT_TRUE((*cdb)
                    ->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    ASSERT_TRUE(
        (*cdb)->unsafe_inner()->table()->FlushPools().ok());

    Rng rng(7);
    for (int i = 0; i < 120; ++i) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(30));
      const double v = static_cast<double>(i);
      auto it = oracle.find(key);
      std::string sql;
      if (it == oracle.end()) {
        sql = "INSERT INTO items VALUES (" + std::to_string(key) + ", " +
              std::to_string(v) + ")";
        oracle[key] = v;
      } else if (rng.Uniform(3) == 0) {
        sql = "DELETE FROM items WHERE id = " + std::to_string(key);
        oracle.erase(it);
      } else {
        sql = "UPDATE items SET v = " + std::to_string(v) +
              " WHERE id = " + std::to_string(key);
        it->second = v;
      }
      auto r = (*cdb)->ExecuteSql(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      if (i == 40) {
        // DDL fence: drains the version store through the exclusive
        // path mid-stream.
        ASSERT_TRUE((*cdb)
                        ->ExecuteSql("CREATE TABLE side (id INT "
                                     "PRIMARY KEY, x DOUBLE)")
                        .ok());
      }
      if (i == 80) {
        // SELECT barrier: another drain flavor.
        ASSERT_TRUE((*cdb)->ExecuteSql("SELECT * FROM items").ok());
      }
    }
    EXPECT_GT((*cdb)->mvcc_commits(), 0u);
    EXPECT_GT(SeriesValue(metrics, "tarpit_mvcc_ddl_fences_total"), 0);
    // Crash: no checkpoint. Every base page written since create was
    // only in the volatile overlays and dies with the instance.
  }

  VirtualClock vclock;
  auto pdb = ProtectedDatabase::Open(dir.path(), "items", &vclock, opts);
  ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
  Table* table = (*pdb)->table();
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->recovered_wal_records(), 0u);
  std::map<int64_t, double> actual;
  ASSERT_TRUE(table
                  ->ScanAll([&](const Row& row) {
                    actual[row[0].AsInt()] = row[1].AsDouble();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(actual, oracle);
}

// ---------- Delay-ledger recovery ----------

TEST(DelayLedgerTest, LastIntactSnapshotWinsAndTornTailHeals) {
  TempDir dir("ledger");
  const std::string path = dir.file("d.ledger");
  {
    DelayLedger ledger;
    ASSERT_TRUE(ledger.Open(path).ok());
    ASSERT_TRUE(ledger.Append(1.5, 3, /*sync=*/false).ok());
    ASSERT_TRUE(ledger.Append(7.25, 11, /*sync=*/true).ok());
    ASSERT_TRUE(ledger.Close().ok());
  }
  // Torn tail: half a record of garbage.
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f.write("\x01garbage", 8);
  }
  DelayLedger ledger2;
  ASSERT_TRUE(ledger2.Open(path).ok());
  EXPECT_EQ(ledger2.recovered_total_delay(), 7.25);
  EXPECT_EQ(ledger2.recovered_charges(), 11u);
  EXPECT_EQ(ledger2.truncated_bytes(), 8u);
  ASSERT_TRUE(ledger2.Close().ok());
  // The heal is physical: a third open sees a clean file.
  DelayLedger ledger3;
  ASSERT_TRUE(ledger3.Open(path).ok());
  EXPECT_EQ(ledger3.recovered_charges(), 11u);
  EXPECT_EQ(ledger3.truncated_bytes(), 0u);
}

/// The delay debt survives crash/restart: after a checkpointed
/// shutdown the recovered totals drift 0 (well under the 0.01% bar),
/// and after an unclean crash they fall back to the last cadence
/// snapshot -- never below it.
TEST(RecoveryDriftTest, ChargedDelaySurvivesRestart) {
  TempDir dir("drift");
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  opts.popularity.bounds = {0.0, 10.0};
  opts.persist_delay_ledger = true;
  opts.delay_ledger_snapshot_every = 4;

  double oracle_delay = 0;
  uint64_t oracle_charges = 0;
  {
    auto pdb = ProtectedDatabase::Open(dir.path(), "items", &clock, opts);
    ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
    ASSERT_TRUE((*pdb)
                    ->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          (*pdb)
              ->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
              .ok());
    }
    for (int i = 0; i < 25; ++i) {
      auto r = (*pdb)->GetByKey(i % 10);
      ASSERT_TRUE(r.ok());
      oracle_delay += r->delay_seconds;
      ++oracle_charges;
    }
    ASSERT_TRUE((*pdb)->Checkpoint().ok());  // Synced snapshot.
  }

  {
    auto pdb = ProtectedDatabase::Open(dir.path(), "items", &clock, opts);
    ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
    auto m = (*pdb)->Metrics();
    EXPECT_EQ(m.delays_charged, oracle_charges);
    ASSERT_GT(oracle_delay, 0.0);
    // Drift bound from the issue: <= 0.01% against the serial oracle.
    EXPECT_NEAR(m.total_delay_seconds, oracle_delay,
                1e-4 * oracle_delay);

    // Second generation: 7 more charges, cadence 4, then an UNCLEAN
    // crash (no checkpoint). The cadence snapshot at +4 is the floor.
    for (int i = 0; i < 7; ++i) {
      auto r = (*pdb)->GetByKey(i % 10);
      ASSERT_TRUE(r.ok());
      oracle_delay += r->delay_seconds;
    }
    EXPECT_EQ((*pdb)->Metrics().delays_charged, oracle_charges + 7);
  }

  auto pdb = ProtectedDatabase::Open(dir.path(), "items", &clock, opts);
  ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
  auto m = (*pdb)->Metrics();
  // The cadence snapshot after the 4th post-restart charge was the last
  // one appended before the crash; charges 5..7 were still in memory.
  EXPECT_EQ(m.delays_charged, oracle_charges + 4);
  EXPECT_GE((*pdb)->ledger_base_charges(), oracle_charges);
}

// ---------- One charge: what callers pay is what the ledger holds ----------

/// Runs the sharded door through: 50 point gets (charged in its
/// accounting stripes), Checkpoint, one pk SELECT (charged in the inner
/// engine), then a crash without a checkpoint. Returns the totals a
/// reopen recovers; `appends` is the ledger records written.
struct DoorLedgerRun {
  double charged = 0;
  double recovered = 0;
  uint64_t recovered_charges = 0;
  uint64_t appends = 0;
};

DoorLedgerRun RunShardedDoorThenCrash(const std::string& dir,
                                      uint64_t snapshot_every) {
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.01;  // First access to a key: 0.01 s.
  opts.popularity.bounds = {0.0, 10.0};
  opts.persist_delay_ledger = true;
  opts.delay_ledger_snapshot_every = snapshot_every;
  DoorLedgerRun run;
  {
    ConcurrentDatabaseOptions copts;
    copts.mode = ConcurrencyMode::kSharded;
    auto cdb = ConcurrentProtectedDatabase::Open(dir, "items", &clock, opts,
                                                 copts);
    EXPECT_TRUE(cdb.ok()) << cdb.status().ToString();
    if (!cdb.ok()) return run;
    EXPECT_TRUE((*cdb)
                    ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                                 "v DOUBLE)")
                    .ok());
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE((*cdb)
                      ->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
    for (int i = 0; i < 50; ++i) {
      auto r = (*cdb)->GetByKey(i);
      EXPECT_TRUE(r.ok());
      if (r.ok()) run.charged += r->delay_seconds;
    }
    EXPECT_TRUE((*cdb)->Checkpoint().ok());
    auto r = (*cdb)->ExecuteSql("SELECT * FROM items WHERE id = 55");
    EXPECT_TRUE(r.ok());
    if (r.ok()) run.charged += r->delay_seconds;
    run.appends = (*cdb)->unsafe_inner()->delay_ledger().appends();
  }  // Crash: no checkpoint after the SELECT.
  auto pdb = ProtectedDatabase::Open(dir, "items", &clock, opts);
  EXPECT_TRUE(pdb.ok()) << pdb.status().ToString();
  if (!pdb.ok()) return run;
  run.recovered = (*pdb)->ledger_base_delay_seconds();
  run.recovered_charges = (*pdb)->ledger_base_charges();
  return run;
}

TEST(DoorLedgerTest, SnapshotAfterCheckpointKeepsStripeCharges) {
  TempDir dir("door_ledger");
  // Cadence 1: the SELECT's charge reaches the ledger at once, on top
  // of the stripe charges the checkpoint reported.
  const DoorLedgerRun run = RunShardedDoorThenCrash(dir.path(), 1);
  EXPECT_NEAR(run.charged, 0.51, 1e-12);
  EXPECT_NEAR(run.recovered, run.charged, 1e-12 * run.charged);
  EXPECT_EQ(run.recovered_charges, 51u);
  // One synced record at the checkpoint, one cadence record at the
  // SELECT -- no stray record from a cadence counter that underflowed.
  EXPECT_EQ(run.appends, 2u);
}

TEST(DoorLedgerTest, DefaultCadenceKeepsCheckpointedCharges) {
  TempDir dir("door_ledger_default");
  const DoorLedgerRun run = RunShardedDoorThenCrash(dir.path(), 256);
  // The checkpointed 0.50 s survives; the one SELECT charge since is
  // inside the cadence window a crash may lose.
  EXPECT_NEAR(run.recovered, 0.50, 1e-12);
  EXPECT_EQ(run.recovered_charges, 50u);
  EXPECT_EQ(run.appends, 1u);
}

constexpr uint64_t kAliceId = 42;
constexpr uint32_t kAliceSubnet = 0x0A000100;  // 10.0.1.0/24

enum class Door { kGate, kGateDeferred, kGlobalLock, kSharded };
enum class Shape { kPoint, kRange3 };

std::string DoorName(Door d) {
  switch (d) {
    case Door::kGate: return "Gate";
    case Door::kGateDeferred: return "GateDeferred";
    case Door::kGlobalLock: return "GlobalLock";
    case Door::kSharded: return "Sharded";
  }
  return "?";
}

class ChargedEqualsLedgerTest
    : public ::testing::TestWithParam<std::tuple<Door, Shape>> {};

TEST_P(ChargedEqualsLedgerTest, EscalatedPrincipal) {
  const auto [door, shape] = GetParam();
  TempDir dir("charged_" + DoorName(door) +
              (shape == Shape::kPoint ? "_point" : "_range"));
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.003;
  opts.popularity.bounds = {0.0, 10.0};
  opts.persist_delay_ledger = true;
  opts.defer_delay_sleep = door == Door::kGateDeferred;
  ReputationOptions ropts;
  ropts.breadth_free_fraction = 1.0;  // Only the injected signal counts.
  ReputationStore store(ropts);
  store.RecordSignal(kAliceId, kAliceSubnet, 0.0,
                     ReputationSignal::kExternal, 2.0);  // 4x.
  ASSERT_GT(store.PenaltyFactor(kAliceId, kAliceSubnet, 0.0), 1.0);

  auto sql_for = [&](int i) {
    const int k = (i * 7) % 40;
    return shape == Shape::kPoint
               ? "SELECT * FROM items WHERE id = " + std::to_string(k)
               : "SELECT * FROM items WHERE id >= " + std::to_string(k) +
                     " AND id < " + std::to_string(k + 3);
  };
  const char* kCreate = "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)";
  double charged = 0;
  uint64_t tuples = 0;
  double metrics_total = 0;
  if (door == Door::kGate || door == Door::kGateDeferred) {
    auto pdb = ProtectedDatabase::Open(dir.path(), "items", &clock, opts);
    ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
    ASSERT_TRUE((*pdb)->ExecuteSql(kCreate).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*pdb)
                      ->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
    QueryGateOptions qopts;
    qopts.per_user_queries_per_second = 1e6;
    qopts.per_user_burst = 1e6;
    qopts.per_subnet_queries_per_second = 1e6;
    qopts.per_subnet_burst = 1e6;
    qopts.coverage_escalation = true;  // Escalates from the 2nd query.
    qopts.reputation = &store;
    QueryGate gate(pdb->get(), qopts);
    Identity alice;
    alice.id = kAliceId;
    alice.ipv4 = kAliceSubnet | 7;
    for (int i = 0; i < 20; ++i) {
      auto r = gate.ExecuteSql(alice, sql_for(i));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      charged += r->delay_seconds;
      tuples += r->result.touched_keys.size();
    }
    EXPECT_GT(gate.events()->CountOfType(
                  obs::DefenseEventType::kCoverageEscalated),
              0u);
    EXPECT_GT(gate.events()->CountOfType(
                  obs::DefenseEventType::kReputationEscalated),
              0u);
    metrics_total = (*pdb)->Metrics().total_delay_seconds;
    ASSERT_TRUE((*pdb)->Checkpoint().ok());
  } else {
    ConcurrentDatabaseOptions copts;
    copts.mode = door == Door::kGlobalLock ? ConcurrencyMode::kGlobalLock
                                           : ConcurrencyMode::kSharded;
    copts.reputation = &store;
    auto cdb = ConcurrentProtectedDatabase::Open(dir.path(), "items",
                                                 &clock, opts, copts);
    ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();
    ASSERT_TRUE((*cdb)->ExecuteSql(kCreate).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*cdb)
                      ->BulkLoadRow({Value(static_cast<int64_t>(i)),
                                     Value(1.0)})
                      .ok());
    }
    const RequestPrincipal alice{kAliceId, kAliceSubnet};
    for (int i = 0; i < 20; ++i) {
      auto r = shape == Shape::kPoint
                   ? (*cdb)->GetByKey((i * 7) % 40, alice)
                   : (*cdb)->ExecuteSql(sql_for(i), alice);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      charged += r->delay_seconds;
      tuples += r->result.touched_keys.size();
    }
    metrics_total = (*cdb)->Metrics().total_delay_seconds;
    ASSERT_TRUE((*cdb)->Checkpoint().ok());
  }
  ASSERT_EQ(tuples, shape == Shape::kPoint ? 20u : 60u);
  ASSERT_GT(charged, 0.0);
  EXPECT_NEAR(metrics_total, charged, 1e-12 * charged);

  // The checkpointed ledger recovers the same bill.
  auto reopened = ProtectedDatabase::Open(dir.path(), "items", &clock, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NEAR((*reopened)->ledger_base_delay_seconds(), charged,
              1e-12 * charged);
  EXPECT_EQ((*reopened)->ledger_base_charges(), tuples);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDoor, ChargedEqualsLedgerTest,
    ::testing::Combine(::testing::Values(Door::kGate, Door::kGateDeferred,
                                         Door::kGlobalLock, Door::kSharded),
                       ::testing::Values(Shape::kPoint, Shape::kRange3)),
    [](const ::testing::TestParamInfo<std::tuple<Door, Shape>>& info) {
      return DoorName(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Shape::kPoint ? "Point" : "Range3");
    });

// ---------- Resource governor ----------

TEST(ResourceGovernorTest, BudgetsAndSheddingReasons) {
  obs::MetricRegistry registry;
  ResourceGovernorOptions go;
  go.max_parked_stalls = 2;
  go.max_parked_bytes = 10000;
  go.stall_bytes_estimate = 4096;
  go.max_wal_backlog_bytes = 100;
  go.max_live_versions = 10;
  go.metrics = &registry;
  ResourceGovernor gov(go);

  EXPECT_TRUE(gov.AdmitStall(0).ok());
  EXPECT_TRUE(gov.AdmitStall(0).ok());
  EXPECT_EQ(gov.parked_stalls(), 2u);
  EXPECT_EQ(gov.parked_bytes(), 8192u);
  // Third stall trips the count budget.
  EXPECT_TRUE(gov.AdmitStall(0).IsOverloaded());
  gov.ReleaseStall(0);
  // Count budget now has room, but 4096 + 8192 > 10000: bytes budget.
  EXPECT_TRUE(gov.AdmitStall(8192).IsOverloaded());
  EXPECT_TRUE(gov.AdmitStall(1000).ok());
  gov.ReleaseStall(1000);
  gov.ReleaseStall(0);
  EXPECT_EQ(gov.parked_stalls(), 0u);
  EXPECT_EQ(gov.parked_bytes(), 0u);

  EXPECT_TRUE(gov.CheckWrite(99, 9).ok());
  EXPECT_TRUE(gov.CheckWrite(101, 0).IsOverloaded());
  EXPECT_TRUE(gov.CheckWrite(0, 11).IsOverloaded());

  EXPECT_EQ(SeriesValue(registry, "tarpit_governor_admitted_total"), 3);
  EXPECT_EQ(registry.Snapshot().Total("tarpit_governor_shed_total"), 4);
  EXPECT_EQ(registry.GetGauge("tarpit_governor_parked_stalls")->Value(),
            0);
  for (const char* reason :
       {"parked_stalls", "parked_bytes", "wal_backlog", "live_versions"}) {
    EXPECT_EQ(SeriesValue(registry, "tarpit_governor_shed_total",
                          {{"reason", reason}}),
              1)
        << reason;
  }
}

TEST(ResourceGovernorTest, ConcurrentDoorShedsAfterCharge) {
  TempDir dir("gov_cdb");
  RealClock clock;
  obs::MetricRegistry registry;
  ResourceGovernorOptions go;
  go.max_parked_stalls = 1;
  go.metrics = &registry;
  ResourceGovernor gov(go);

  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;  // ~1ms stalls when actually served.
  opts.popularity.bounds = {0.0, 10.0};
  ConcurrentDatabaseOptions copts;
  copts.mode = ConcurrencyMode::kSharded;
  copts.async_stalls = true;
  copts.governor = &gov;
  auto cdb = ConcurrentProtectedDatabase::Open(dir.path(), "items",
                                               &clock, opts, copts);
  ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();
  ASSERT_TRUE((*cdb)
                  ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*cdb)
            ->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
            .ok());
  }

  // Fill the only parking slot by hand, so the next stall MUST shed
  // (deterministic: nothing depends on wheel timing).
  ASSERT_TRUE(gov.AdmitStall(0).ok());
  auto r = (*cdb)->GetByKey(1);
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  // Keep-the-charge: the shed request's delay is on the books.
  auto m = (*cdb)->Metrics();
  EXPECT_EQ(m.delays_charged, 1u);
  EXPECT_GT(m.total_delay_seconds, 0.0);
  EXPECT_EQ(registry.Snapshot().Total("tarpit_governor_shed_total"), 1);

  // The async path sheds identically, completing inline.
  std::atomic<bool> overloaded{false};
  (*cdb)->GetByKeyAsync(2, [&](Result<ProtectedResult> res) {
    overloaded = res.status().IsOverloaded();
  });
  EXPECT_TRUE(overloaded.load());

  // Release the slot: the same request is admitted and served.
  gov.ReleaseStall(0);
  auto ok = (*cdb)->GetByKey(1);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(gov.parked_stalls(), 0u);
}

TEST(ResourceGovernorTest, WriteShedsOnWalBacklog) {
  TempDir dir("gov_wal");
  RealClock clock;
  ResourceGovernorOptions go;
  go.max_wal_backlog_bytes = 1;  // Any unsynced byte sheds the NEXT write.
  ResourceGovernor gov(go);

  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  ConcurrentDatabaseOptions copts;
  copts.mode = ConcurrencyMode::kSharded;
  copts.serve_delays = false;
  copts.governor = &gov;
  auto cdb = ConcurrentProtectedDatabase::Open(dir.path(), "items",
                                               &clock, opts, copts);
  ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();
  ASSERT_TRUE((*cdb)
                  ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  // First write: backlog 0 at submit, admitted; its WAL frame is never
  // fdatasync'd, so the second write sees a positive backlog and sheds.
  ASSERT_TRUE((*cdb)->ExecuteSql("INSERT INTO items VALUES (1, 1.0)").ok());
  auto r = (*cdb)->ExecuteSql("INSERT INTO items VALUES (2, 2.0)");
  EXPECT_TRUE(r.status().IsOverloaded()) << r.status().ToString();
  // Checkpoint drains the backlog; writes are admitted again.
  ASSERT_TRUE((*cdb)->Checkpoint().ok());
  EXPECT_TRUE((*cdb)->ExecuteSql("INSERT INTO items VALUES (2, 2.0)").ok());
}

TEST(ResourceGovernorTest, GateShedAuditsAndKeepsCharge) {
  TempDir dir("gov_gate");
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  opts.popularity.bounds = {0.0, 10.0};
  opts.defer_delay_sleep = true;  // The gate parks the stall itself.
  auto pdb = ProtectedDatabase::Open(dir.path(), "items", &clock, opts);
  ASSERT_TRUE(pdb.ok());
  ASSERT_TRUE((*pdb)
                  ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                               "v DOUBLE)")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*pdb)
            ->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
            .ok());
  }

  ResourceGovernorOptions go;
  go.max_parked_stalls = 1;
  ResourceGovernor gov(go);
  obs::MetricRegistry registry;
  QueryGateOptions qopts;
  qopts.governor = &gov;
  qopts.metrics = &registry;
  QueryGate gate(pdb->get(), qopts);
  auto user = gate.RegisterUser(Ipv4FromString("10.0.0.1"));
  ASSERT_TRUE(user.ok());
  DelayScheduler scheduler(&clock);

  ASSERT_TRUE(gov.AdmitStall(0).ok());  // Exhaust the parking budget.
  bool completed = false;
  Status st;
  gate.ExecuteSqlAsync(*user, "SELECT * FROM items WHERE id = 3",
                       &scheduler, [&](Result<ProtectedResult> r) {
                         completed = true;  // Inline: no race.
                         st = r.status();
                       });
  EXPECT_TRUE(completed);
  EXPECT_TRUE(st.IsOverloaded()) << st.ToString();
  EXPECT_EQ(scheduler.parked(), 0u);
  // The shed is audited and counted...
  EXPECT_EQ(gate.events()->CountOfType(obs::DefenseEventType::kOverloadShed),
            1u);
  EXPECT_EQ(registry
                .GetCounter("tarpit_gate_denials_total",
                            {{"reason", "overload"}})
                ->Value(),
            1);
  // ...and the charge stuck: shedding is not a free tuple.
  auto m = (*pdb)->Metrics();
  EXPECT_GE(m.delays_charged, 1u);
  EXPECT_GT(m.total_delay_seconds, 0.0);
  gov.ReleaseStall(0);
}

/// Satellite regression (PR 8): stalls cancelled by scheduler shutdown
/// still REPORT their charged delay -- the tarpit_delay_charged_ns
/// histogram must match the accounting stripes, which always kept the
/// charge (accounting happens in the compute phase; cancellation cuts
/// the serving short, not the bill).
TEST(ResourceGovernorTest, ShutdownCancelledStallKeepsCharge) {
  TempDir dir("gov_shutdown");
  RealClock clock;
  obs::MetricRegistry registry;
  ResourceGovernor gov;  // Unlimited: tracks parked counts only.

  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 1000.0;  // ~1000s stall: never expires here.
  opts.popularity.bounds = {5.0, 3600.0};
  ConcurrentDatabaseOptions copts;
  copts.mode = ConcurrencyMode::kSharded;
  copts.async_stalls = true;
  copts.governor = &gov;
  copts.metrics = &registry;

  std::atomic<bool> completed{false};
  std::atomic<bool> cancelled{false};
  // Every completed request (including the zero-delay CREATE TABLE /
  // bulk load below) lands a histogram sample, so assert deltas.
  obs::Histogram* h = registry.GetHistogram(
      "tarpit_delay_charged_ns", {{"policy", "access-popularity"}});
  int64_t baseline = 0;
  {
    auto cdb = ConcurrentProtectedDatabase::Open(dir.path(), "items",
                                                 &clock, opts, copts);
    ASSERT_TRUE(cdb.ok()) << cdb.status().ToString();
    ASSERT_TRUE((*cdb)
                    ->ExecuteSql("CREATE TABLE items (id INT PRIMARY "
                                 "KEY, v DOUBLE)")
                    .ok());
    ASSERT_TRUE((*cdb)->BulkLoadRow({Value(int64_t{1}), Value(1.0)}).ok());

    baseline = h->Count();
    (*cdb)->GetByKeyAsync(1, [&](Result<ProtectedResult> r) {
      cancelled = r.status().IsCancelled();
      completed = true;
    });
    // Parked (the stall is minutes long); charged already.
    EXPECT_FALSE(completed.load());
    EXPECT_EQ(gov.parked_stalls(), 1u);
    auto m = (*cdb)->Metrics();
    EXPECT_EQ(m.delays_charged, 1u);
    EXPECT_GE(m.total_delay_seconds, 5.0);
    EXPECT_EQ(h->Count(), baseline);  // Not reported until completion.
    // Destructor shuts the wheel down, cancelling the parked stall.
  }
  EXPECT_TRUE(completed.load());
  EXPECT_TRUE(cancelled.load());
  EXPECT_EQ(gov.parked_stalls(), 0u);  // Released on cancellation.
  // The regression: the delta was 0 when cancelled completions skipped
  // the histogram, silently under-reporting every shutdown-drained
  // charge. The ~1000s stall dwarfs the zero-delay setup samples, so
  // Sum() also pins the cancelled charge specifically.
  EXPECT_EQ(h->Count(), baseline + 1);
  EXPECT_GE(static_cast<double>(h->Sum()), 5e9);  // >= 5s in ns.
}

}  // namespace
}  // namespace tarpit
