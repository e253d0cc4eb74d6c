#ifndef TARPIT_STORAGE_BUFFER_POOL_H_
#define TARPIT_STORAGE_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace tarpit {

class BufferPool;

/// Latch mode a PageGuard currently holds on its page image.
enum class PageLatchMode : uint8_t { kNone, kShared, kExclusive };

/// RAII pin on a buffer-pool page. Unpins on destruction; call
/// MarkDirty() after mutating the page image.
///
/// Guards are safe to hold and release from any thread: release is a
/// single atomic decrement on the frame's pin count. A guard may also
/// hold the page's image latch (LatchShared / LatchExclusive); the
/// latch travels with the guard on move and is dropped before the pin
/// on Release, so latch-coupled descents ("crab" by move-assigning the
/// child guard over the parent) release parent latches in order.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return page_ != nullptr; }
  PageId page_id() const { return page_->page_id(); }
  char* data() { return page_->data(); }
  const char* data() const { return page_->data(); }
  void MarkDirty();

  /// Acquires the page image latch (blocking). Requires a valid pin
  /// and no latch already held by this guard.
  void LatchShared();
  void LatchExclusive();
  /// Drops the held latch, if any (idempotent).
  void Unlatch();
  PageLatchMode latch_mode() const { return latch_; }

  /// Explicit early release (idempotent): unlatch, then unpin.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  PageLatchMode latch_ = PageLatchMode::kNone;
};

/// Fixed-capacity page cache over one DiskManager, safe for concurrent
/// readers.
///
/// Layout: the page table is striped over kShards independently locked
/// maps (PageId -> frame index); frames live in one flat array shared
/// by every shard. Eviction is clock-style second chance over that
/// array with an atomic hand, replacing the old global LRU list.
///
/// Locking protocol (the invariants everything else leans on):
///   - A frame's pin count is only ever *incremented* while holding the
///     lock of the shard that maps its page. Decrements (guard release)
///     are lock-free. Hence "pin == 0 observed under the shard lock,
///     then erased from the map" claims the frame exclusively: any
///     future pinner must go through the map and will miss.
///   - Dirty write-back during eviction and flush happens under the
///     shard lock, so a concurrent miss on the same page cannot re-read
///     the stale on-disk image mid-write-back.
///   - Frames on the free list have page_id == kInvalidPageId and are
///     invisible to the clock sweep.
///   - No thread ever holds two shard locks.
///
/// Concurrent misses on the same page are resolved optimistically: each
/// loser re-checks the shard map after its disk read, returns its frame
/// to the free list, and pins the winner's copy.
class BufferPool {
 public:
  static constexpr size_t kShards = 16;

  BufferPool(DiskManager* disk, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on miss.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh page on disk and pins it. Callers that create
  /// pages are serialized by the engine's writer lock.
  Result<PageGuard> NewPage();

  /// Writes back every dirty page (leaves them cached).
  Status FlushAll();

  /// Flushes one page if cached and dirty.
  Status FlushPage(PageId id);

  size_t capacity() const { return capacity_; }
  DiskManager* disk() const { return disk_; }

  /// Counts hits, misses and evictions in registry counters (any may
  /// be null: that event is not counted). The counters must outlive
  /// the pool.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions) {
    m_hits_ = hits;
    m_misses_ = misses;
    m_evictions_ = evictions;
  }

  /// Per-shard lookup counters in the registry, labelled
  /// {base..., shard=i}: tarpit_bufpool_shard_{hits,misses}_total.
  /// Counters must outlive the pool.
  void BindShardMetrics(obs::MetricRegistry* registry,
                        const obs::Labels& base_labels);

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    // Clock reference bit: set on pin, cleared (second chance) by the
    // sweep before a frame becomes a victim.
    std::atomic<bool> referenced{false};
  };

  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<PageId, size_t> map;  // PageId -> frame index.
    obs::Counter* m_hits = nullptr;
    obs::Counter* m_misses = nullptr;
  };

  Shard& ShardFor(PageId id) {
    // Pages of one table interleave across shards; splitmix-style
    // scramble keeps sequential ids from hammering one stripe.
    uint64_t x = id + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return shards_[(x ^ (x >> 31)) % kShards];
  }

  void Unpin(Page* page);

  /// Returns a frame index exclusively owned by the caller (page reset,
  /// unmapped, unpinned): free-list pop, else clock eviction.
  Result<size_t> GetFreeFrame();

  /// Returns the claimed frame to the free list.
  void ReleaseFrame(size_t idx);

  DiskManager* disk_;
  size_t capacity_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::array<Shard, kShards> shards_;

  std::mutex free_mu_;
  std::vector<size_t> free_frames_;

  std::atomic<size_t> clock_hand_{0};

  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_STORAGE_BUFFER_POOL_H_
