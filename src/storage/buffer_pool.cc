#include "storage/buffer_pool.h"

#include <cassert>
#include <string>

#include "common/failpoint.h"

namespace tarpit {

PageGuard::~PageGuard() { Release(); }

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_ = other.page_;
    latch_ = other.latch_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    other.latch_ = PageLatchMode::kNone;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  assert(page_ != nullptr);
  page_->is_dirty_.store(true, std::memory_order_release);
}

void PageGuard::LatchShared() {
  assert(page_ != nullptr && latch_ == PageLatchMode::kNone);
  page_->latch_.lock_shared();
  latch_ = PageLatchMode::kShared;
}

void PageGuard::LatchExclusive() {
  assert(page_ != nullptr && latch_ == PageLatchMode::kNone);
  page_->latch_.lock();
  latch_ = PageLatchMode::kExclusive;
}

void PageGuard::Unlatch() {
  if (page_ == nullptr) return;
  switch (latch_) {
    case PageLatchMode::kNone:
      break;
    case PageLatchMode::kShared:
      page_->latch_.unlock_shared();
      break;
    case PageLatchMode::kExclusive:
      page_->latch_.unlock();
      break;
  }
  latch_ = PageLatchMode::kNone;
}

void PageGuard::Release() {
  if (page_ != nullptr) {
    Unlatch();
    pool_->Unpin(page_);
    page_ = nullptr;
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity) {
  assert(capacity >= 1);
  frames_.reserve(capacity);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    free_frames_.push_back(capacity - 1 - i);
  }
}

void BufferPool::BindShardMetrics(obs::MetricRegistry* registry,
                                  const obs::Labels& base_labels) {
  if (registry == nullptr) return;
  for (size_t i = 0; i < kShards; ++i) {
    obs::Labels labels = base_labels;
    labels.emplace_back("shard", std::to_string(i));
    shards_[i].m_hits =
        registry->GetCounter("tarpit_bufpool_shard_hits_total", labels);
    shards_[i].m_misses =
        registry->GetCounter("tarpit_bufpool_shard_misses_total", labels);
  }
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      Frame& f = *frames_[it->second];
      // Pin under the shard lock: eviction claims require pin == 0
      // observed under this same lock.
      f.page.pin_count_.fetch_add(1, std::memory_order_acq_rel);
      f.referenced.store(true, std::memory_order_relaxed);
      if (m_hits_ != nullptr) m_hits_->Increment();
      if (shard.m_hits != nullptr) shard.m_hits->Increment();
      return PageGuard(this, &f.page);
    }
  }
  if (m_misses_ != nullptr) m_misses_->Increment();
  if (shard.m_misses != nullptr) shard.m_misses->Increment();

  // Load outside any lock; claim a frame first so the disk read goes
  // straight into its image.
  TARPIT_ASSIGN_OR_RETURN(size_t idx, GetFreeFrame());
  Frame& f = *frames_[idx];
  Status read = disk_->ReadPage(id, f.page.data());
  // `bufpool.fetch_corrupt`: pretend the verified read came back rotten,
  // driving the fetch-time quarantine path without touching real disk.
  if (read.ok() && TARPIT_FAILPOINT("bufpool.fetch_corrupt")) {
    read = Status::Corruption("page " + std::to_string(id) +
                              " failed checksum [injected]");
  }
  if (!read.ok()) {
    ReleaseFrame(idx);
    return read;
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    // Another thread loaded the page while we read from disk. Pin the
    // winner's copy and hand our frame back.
    Frame& theirs = *frames_[it->second];
    theirs.page.pin_count_.fetch_add(1, std::memory_order_acq_rel);
    theirs.referenced.store(true, std::memory_order_relaxed);
    ReleaseFrame(idx);
    return PageGuard(this, &theirs.page);
  }
  f.page.pin_count_.store(1, std::memory_order_release);
  f.page.is_dirty_.store(false, std::memory_order_relaxed);
  f.page.page_id_.store(id, std::memory_order_release);
  f.referenced.store(true, std::memory_order_relaxed);
  shard.map[id] = idx;
  return PageGuard(this, &f.page);
}

Result<PageGuard> BufferPool::NewPage() {
  TARPIT_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  TARPIT_ASSIGN_OR_RETURN(size_t idx, GetFreeFrame());
  Frame& f = *frames_[idx];
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  // `id` is fresh from the allocator, so no duplicate-load race here.
  f.page.pin_count_.store(1, std::memory_order_release);
  f.page.page_id_.store(id, std::memory_order_release);
  f.referenced.store(true, std::memory_order_relaxed);
  shard.map[id] = idx;
  return PageGuard(this, &f.page);
}

Status BufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [id, idx] : shard.map) {
      Frame& f = *frames_[idx];
      if (f.page.is_dirty_.load(std::memory_order_acquire)) {
        TARPIT_RETURN_IF_ERROR(disk_->WritePage(id, f.page.data()));
        f.page.is_dirty_.store(false, std::memory_order_release);
      }
    }
  }
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it == shard.map.end()) return Status::OK();
  Frame& f = *frames_[it->second];
  if (f.page.is_dirty_.load(std::memory_order_acquire)) {
    TARPIT_RETURN_IF_ERROR(disk_->WritePage(id, f.page.data()));
    f.page.is_dirty_.store(false, std::memory_order_release);
  }
  return Status::OK();
}

void BufferPool::Unpin(Page* page) {
  int prev = page->pin_count_.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  (void)prev;
}

Result<size_t> BufferPool::GetFreeFrame() {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!free_frames_.empty()) {
      size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return idx;
    }
  }
  // Clock sweep. Two full revolutions clear every reference bit at
  // least once; the generous bound only trips when (nearly) all frames
  // stay pinned for the whole sweep.
  const size_t max_steps = capacity_ * 8 + 8;
  for (size_t step = 0; step < max_steps; ++step) {
    size_t idx =
        clock_hand_.fetch_add(1, std::memory_order_relaxed) % capacity_;
    Frame& f = *frames_[idx];
    PageId pid = f.page.page_id_.load(std::memory_order_acquire);
    if (pid == kInvalidPageId) continue;  // Free or mid-setup.
    if (f.page.pin_count_.load(std::memory_order_acquire) > 0) continue;
    if (f.referenced.exchange(false, std::memory_order_acq_rel)) {
      continue;  // Second chance.
    }
    Shard& shard = ShardFor(pid);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(pid);
    if (it == shard.map.end() || it->second != idx) continue;  // Reused.
    if (f.page.pin_count_.load(std::memory_order_acquire) != 0) continue;
    // pin == 0 under the shard lock and pins only grow under it: the
    // frame is ours once unmapped. Write back before unmapping so a
    // concurrent miss on `pid` (blocked on this shard lock) re-reads
    // the fresh image.
    if (f.page.is_dirty_.load(std::memory_order_acquire)) {
      TARPIT_RETURN_IF_ERROR(disk_->WritePage(pid, f.page.data()));
    }
    shard.map.erase(it);
    if (m_evictions_ != nullptr) m_evictions_->Increment();
    f.page.Reset();
    return idx;
  }
  return Status::ResourceExhausted(
      "buffer pool: all frames pinned (capacity " +
      std::to_string(capacity_) + ")");
}

void BufferPool::ReleaseFrame(size_t idx) {
  frames_[idx]->page.Reset();
  std::lock_guard<std::mutex> lock(free_mu_);
  free_frames_.push_back(idx);
}

}  // namespace tarpit
