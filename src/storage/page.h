#ifndef TARPIT_STORAGE_PAGE_H_
#define TARPIT_STORAGE_PAGE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <shared_mutex>

// TARPIT_TSAN: this translation unit is built with ThreadSanitizer
// (GCC defines __SANITIZE_THREAD__, Clang has the feature test).
#if defined(__SANITIZE_THREAD__)
#define TARPIT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TARPIT_TSAN 1
#endif
#endif
#ifdef TARPIT_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace tarpit {

/// All on-disk structures use fixed 4 KiB pages.
inline constexpr uint32_t kPageSize = 4096;

/// The last four bytes of every page hold a little-endian CRC32 of the
/// first kPageUsableSize bytes. The trailer is sealed by
/// DiskManager::WritePage and verified by DiskManager::ReadPage — page
/// formats (slotted pages, B+tree nodes) must lay out their contents
/// within kPageUsableSize and never touch the trailer. A page that is
/// all zeroes end to end (a file hole that was never written) is also
/// accepted as valid on read.
inline constexpr uint32_t kPageChecksumSize = 4;
inline constexpr uint32_t kPageUsableSize = kPageSize - kPageChecksumSize;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Identifies a record within a heap file: page plus slot number.
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }

  friend bool operator==(const RecordId& a, const RecordId& b) {
    return a.page_id == b.page_id && a.slot == b.slot;
  }
  friend bool operator<(const RecordId& a, const RecordId& b) {
    if (a.page_id != b.page_id) return a.page_id < b.page_id;
    return a.slot < b.slot;
  }
};

/// In-memory image of one disk page, held in a buffer-pool frame.
///
/// Pin count and dirty bit are atomics so concurrent readers can pin,
/// unpin and flush without a frame lock. The page *image* is protected
/// by a per-page reader/writer latch: readers decode under a shared
/// latch, image writers mutate under the exclusive latch (B+tree
/// crabbing and heap record ops go through PageGuard::LatchShared /
/// LatchExclusive). Latch holders always hold a pin, so eviction
/// (which requires pin == 0 under the shard lock) never races a
/// latched image; pool-level flush paths run only from quiesced
/// contexts (checkpoint under the DDL exclusive lock, destruction).
class Page {
 public:
  Page() { Reset(); }

  char* data() { return data_; }
  const char* data() const { return data_; }

  std::shared_mutex& latch() { return latch_; }

  PageId page_id() const {
    return page_id_.load(std::memory_order_acquire);
  }
  bool is_dirty() const {
    return is_dirty_.load(std::memory_order_acquire);
  }
  int pin_count() const {
    return pin_count_.load(std::memory_order_acquire);
  }

  /// Only safe while the frame is exclusively owned (freshly claimed
  /// for reuse, or single-threaded setup).
  void Reset() {
    std::memset(data_, 0, kPageSize);
    page_id_.store(kInvalidPageId, std::memory_order_release);
    is_dirty_.store(false, std::memory_order_relaxed);
    pin_count_.store(0, std::memory_order_relaxed);
#ifdef TARPIT_TSAN
    // The frame is about to hold another page, so its latch becomes
    // another page's latch. Tell TSan it is a new mutex: otherwise its
    // lock-order graph joins the old page's edges to the new page's
    // (meta -> root on one page, root -> child on the frame's next)
    // and reports inversions the B+tree's latch order cannot form.
    // Only sanitizer builds compile this.
    __tsan_mutex_destroy(&latch_, 0);
    __tsan_mutex_create(&latch_, 0);
#endif
  }

 private:
  friend class BufferPool;
  friend class PageGuard;

  char data_[kPageSize];
  std::atomic<PageId> page_id_{kInvalidPageId};
  std::atomic<bool> is_dirty_{false};
  std::atomic<int> pin_count_{0};
  // Never held across frame recycling: holders keep a pin, and a frame
  // is only reclaimed once its pin count is observed at zero.
  std::shared_mutex latch_;
};

}  // namespace tarpit

#endif  // TARPIT_STORAGE_PAGE_H_
