// Multi-thread tests for the sharded buffer pool: 8 threads racing
// fetch / evict / pin over a pool far smaller than the page universe,
// with exact hit+miss accounting.
//
// Primary ThreadSanitizer target: run with -DTARPIT_SANITIZE=thread.
// Honors TARPIT_STRESS_ITERS (see tests/CMakeLists.txt).

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "registry_series.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

int StressIters(int default_iters) {
  const char* env = std::getenv("TARPIT_STRESS_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, default_iters);
  }
  return default_iters;
}

/// Deterministic per-thread sequence (splitmix64).
uint64_t NextRand(uint64_t* state) {
  uint64_t x = (*state += 0x9E3779B97F4A7C15ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Every page carries its id at offset 0 and a derived fill byte, so a
/// torn or misdirected read is detectable.
void StampPage(char* data, PageId id) {
  std::memcpy(data, &id, sizeof(id));
  std::memset(data + sizeof(id), static_cast<int>(0x40 + id % 101),
              64);
}

bool CheckPage(const char* data, PageId id) {
  PageId stored = 0;
  std::memcpy(&stored, data, sizeof(stored));
  if (stored != id) return false;
  const char expect = static_cast<char>(0x40 + id % 101);
  for (size_t i = sizeof(id); i < sizeof(id) + 64; ++i) {
    if (data[i] != expect) return false;
  }
  return true;
}

class BufferPoolConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_bufpool_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ASSERT_TRUE(disk_.Open((dir_ / "pages.db").string()).ok());
  }
  void TearDown() override {
    disk_.Close();
    fs::remove_all(dir_);
  }

  /// Seeds `n` stamped pages through a temporary pool (allocation is
  /// writer-serialized by design, so seeding is single-threaded).
  void SeedPages(size_t n) {
    BufferPool seeder(&disk_, /*capacity=*/4);
    for (size_t i = 0; i < n; ++i) {
      Result<PageGuard> guard = seeder.NewPage();
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      StampPage(guard->data(), guard->page_id());
      guard->MarkDirty();
    }
    ASSERT_TRUE(seeder.FlushAll().ok());
  }

  /// Binds `pool`'s pool-wide and per-shard counters to metrics_.
  void Bind(BufferPool* pool) {
    pool->BindMetrics(metrics_.GetCounter("tarpit_bufferpool_hits_total"),
                      metrics_.GetCounter("tarpit_bufferpool_misses_total"),
                      metrics_.GetCounter(
                          "tarpit_bufferpool_evictions_total"));
    pool->BindShardMetrics(&metrics_, {});
  }
  int64_t Hits() const {
    return SeriesValue(metrics_, "tarpit_bufferpool_hits_total");
  }
  int64_t Misses() const {
    return SeriesValue(metrics_, "tarpit_bufferpool_misses_total");
  }

  fs::path dir_;
  DiskManager disk_;
  obs::MetricRegistry metrics_;
};

// 8 threads hammer a 64-page universe through an 8-frame pool: every
// fetch either hits or evicts, pins are held briefly (forcing the
// clock hand to skip pinned frames), and page images must never tear.
TEST_F(BufferPoolConcurrencyTest, RacingFetchEvictPin) {
  constexpr size_t kPages = 64;
  constexpr int kThreads = 8;
  const int iters = StressIters(4000);
  SeedPages(kPages);

  BufferPool pool(&disk_, /*capacity=*/8);
  Bind(&pool);
  std::atomic<int> corrupt{0};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> extra_lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x1234567ULL * (t + 1);
      std::vector<PageGuard> held;
      for (int i = 0; i < iters; ++i) {
        const PageId id =
            static_cast<PageId>(NextRand(&rng) % kPages);
        Result<PageGuard> guard = pool.FetchPage(id);
        if (!guard.ok()) {
          // ResourceExhausted is legitimate: 8 threads x up to 2 pins
          // can transiently cover all 8 frames. Drop held pins and
          // retry until the other threads release theirs. Every failed
          // attempt still counted one lookup (a miss).
          held.clear();
          int attempts = 0;
          while (!guard.ok() && ++attempts <= 1000) {
            extra_lookups.fetch_add(1);
            std::this_thread::yield();
            guard = pool.FetchPage(id);
          }
          if (!guard.ok()) {
            errors.fetch_add(1);
            continue;
          }
        }
        if (!CheckPage(guard->data(), id)) corrupt.fetch_add(1);
        // Keep a trailing pin alive across iterations so eviction
        // races against pinned frames, not just unpinned ones.
        if ((i & 3) == 0) {
          held.clear();
          held.push_back(std::move(*guard));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  // Exact accounting: every FetchPage call is exactly one hit or one
  // miss -- duplicate concurrent loads must not double count, and
  // failed (then retried) attempts count each attempt.
  const int64_t total_fetches = Hits() + Misses();
  const int64_t expected =
      static_cast<int64_t>(kThreads) * iters +
      static_cast<int64_t>(extra_lookups.load());
  EXPECT_EQ(total_fetches, expected);
  // Per-shard counters must tile the totals exactly.
  const int64_t shard_sum =
      metrics_.Snapshot().Total("tarpit_bufpool_shard_hits_total") +
      metrics_.Snapshot().Total("tarpit_bufpool_shard_misses_total");
  EXPECT_EQ(shard_sum, total_fetches);

  // All pins must be gone: a full flush + sequential re-read succeeds
  // and sees untorn images.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId id = 0; id < kPages; ++id) {
    Result<PageGuard> guard = pool.FetchPage(id);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    EXPECT_TRUE(CheckPage(guard->data(), id)) << "page " << id;
  }
}

// All threads converge on one page: the duplicate-load race (several
// threads missing simultaneously) must resolve to a single mapped
// frame, and hits + misses must still equal the fetch count exactly.
TEST_F(BufferPoolConcurrencyTest, DuplicateLoadSinglePage) {
  constexpr int kThreads = 8;
  const int iters = StressIters(2000);
  SeedPages(4);

  BufferPool pool(&disk_, /*capacity=*/8);
  Bind(&pool);
  std::atomic<int> corrupt{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        Result<PageGuard> guard = pool.FetchPage(2);
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        if (!CheckPage(guard->data(), 2)) corrupt.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(Hits() + Misses(), static_cast<int64_t>(kThreads) * iters);
  // With no eviction pressure the page is unmapped only at startup:
  // the initial stampede misses (each racer counts its lookup miss
  // even if it loses the install race), everything after hits.
  EXPECT_GE(Misses(), 1);
  EXPECT_LE(Misses(), kThreads);
}

// Warm pool, capacity >= universe: concurrent readers never miss, and
// concurrent dirty writes through MarkDirty survive FlushAll intact.
TEST_F(BufferPoolConcurrencyTest, WarmPoolAllHits) {
  constexpr size_t kPages = 16;
  constexpr int kThreads = 8;
  const int iters = StressIters(2000);
  SeedPages(kPages);

  BufferPool pool(&disk_, /*capacity=*/32);
  Bind(&pool);
  for (PageId id = 0; id < kPages; ++id) {
    Result<PageGuard> guard = pool.FetchPage(id);
    ASSERT_TRUE(guard.ok());
  }
  const int64_t warm_misses = Misses();
  ASSERT_EQ(warm_misses, static_cast<int64_t>(kPages));

  std::vector<std::thread> threads;
  std::atomic<int> corrupt{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0xABCDEFULL * (t + 1);
      for (int i = 0; i < iters; ++i) {
        const PageId id =
            static_cast<PageId>(NextRand(&rng) % kPages);
        Result<PageGuard> guard = pool.FetchPage(id);
        ASSERT_TRUE(guard.ok());
        if (!CheckPage(guard->data(), id)) corrupt.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(Misses(), warm_misses);  // No evictions possible.
  EXPECT_EQ(Hits(), static_cast<int64_t>(kThreads) * iters);
}

}  // namespace
}  // namespace tarpit
