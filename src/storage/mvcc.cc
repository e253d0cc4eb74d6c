#include "storage/mvcc.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <thread>

namespace tarpit {

EpochManager::EpochManager(size_t slots) : slots_(slots) {
  assert(slots >= 1);
}

EpochManager::Snapshot& EpochManager::Snapshot::operator=(
    Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    slot_ = other.slot_;
    epoch_ = other.epoch_;
    other.slot_ = nullptr;
    other.epoch_ = 0;
  }
  return *this;
}

void EpochManager::Snapshot::Release() {
  if (slot_ != nullptr) {
    slot_->store(kFreeSlot, std::memory_order_release);
    slot_ = nullptr;
  }
}

EpochManager::Snapshot EpochManager::Pin() {
  if (m_pins_ != nullptr) m_pins_->Increment();
  const size_t n = slots_.size();
  // Start probing at a per-thread offset so unrelated readers don't
  // fight over slot 0.
  const size_t start =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % n;
  while (true) {
    for (size_t i = 0; i < n; ++i) {
      std::atomic<uint64_t>& slot = slots_[(start + i) % n].epoch;
      uint64_t expected = kFreeSlot;
      // Claim first (sentinel), then load the epoch: a sweep that
      // catches the sentinel stalls instead of missing us.
      if (slot.compare_exchange_strong(expected, kPinningSentinel,
                                       std::memory_order_seq_cst)) {
        const uint64_t e = epoch_.load(std::memory_order_seq_cst);
        slot.store(e, std::memory_order_seq_cst);
        return Snapshot(&slot, e);
      }
    }
    // More simultaneous readers than slots; yield until one frees.
    std::this_thread::yield();
  }
}

uint64_t EpochManager::MinActiveLowerBound() const {
  uint64_t min_epoch = UINT64_MAX;
  for (const Slot& s : slots_) {
    const uint64_t v = s.epoch.load(std::memory_order_seq_cst);
    if (v == kFreeSlot) continue;
    if (v == kPinningSentinel) return 0;  // Caught mid-publication.
    if (v < min_epoch) min_epoch = v;
  }
  if (min_epoch == UINT64_MAX) return current();
  return min_epoch;
}

VersionStore::VersionStore(size_t stripes) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void VersionStore::Install(int64_t key, uint64_t begin, bool tombstone,
                           Row row) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  std::vector<Version>& chain = stripe.chains[key];
  assert(chain.empty() || chain.back().begin < begin);
  chain.push_back(Version{begin, tombstone, std::move(row)});
  live_versions_.fetch_add(1, std::memory_order_relaxed);
  if (m_installed_ != nullptr) m_installed_->Increment();
}

VersionLookup VersionStore::Lookup(int64_t key, uint64_t snapshot,
                                   Row* out) const {
  const Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.chains.find(key);
  if (it == stripe.chains.end()) return VersionLookup::kMiss;
  const std::vector<Version>& chain = it->second;
  // Chains are begin-ascending and short; newest-first linear scan.
  for (auto v = chain.rbegin(); v != chain.rend(); ++v) {
    if (v->begin <= snapshot) {
      if (v->tombstone) return VersionLookup::kTombstone;
      if (out != nullptr) *out = v->row;
      return VersionLookup::kRow;
    }
  }
  return VersionLookup::kMiss;
}

VersionLookup VersionStore::Head(int64_t key, Row* out) const {
  return Lookup(key, UINT64_MAX, out);
}

Status VersionStore::Reclaim(
    uint64_t boundary,
    const std::function<Status(int64_t key, bool tombstone, const Row& row)>&
        apply) {
  // Collect candidate keys across every stripe; the per-key work
  // below revalidates under the stripe lock. Applying in sorted key
  // order makes consecutive applies land on the same B+tree leaf, so
  // a pass touches O(leaves) pages instead of O(keys) when the buffer
  // pool is smaller than the index.
  std::vector<int64_t> keys;
  for (auto& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [key, chain] : stripe.chains) {
      if (!chain.empty() && chain.front().begin <= boundary) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  for (int64_t key : keys) {
    Stripe& stripe = StripeFor(key);
    // Copy the newest qualifying version out, apply it to base with
    // the stripe unlocked, then unlink everything up to it. The
    // chain still holds the version during the base write, so a
    // concurrent reader sees it on the chain before the unlink and
    // in base after (apply-before-unlink invariant).
    Version to_apply;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      auto it = stripe.chains.find(key);
      if (it == stripe.chains.end()) continue;
      for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
        if (v->begin <= boundary) {
          to_apply = *v;
          found = true;
          break;
        }
      }
    }
    if (!found) continue;
    TARPIT_RETURN_IF_ERROR(
        apply(key, to_apply.tombstone, to_apply.row));
    if (m_applied_ != nullptr) m_applied_->Increment();
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      auto it = stripe.chains.find(key);
      if (it == stripe.chains.end()) continue;
      std::vector<Version>& chain = it->second;
      size_t removed = 0;
      while (removed < chain.size() &&
             chain[removed].begin <= to_apply.begin) {
        ++removed;
      }
      chain.erase(chain.begin(), chain.begin() + removed);
      if (m_reclaimed_ != nullptr) {
        m_reclaimed_->Increment(static_cast<int64_t>(removed));
      }
      live_versions_.fetch_sub(removed, std::memory_order_relaxed);
      if (chain.empty()) stripe.chains.erase(it);
    }
  }
  return Status::OK();
}

}  // namespace tarpit
