#ifndef TARPIT_STORAGE_MVCC_H_
#define TARPIT_STORAGE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/value.h"

namespace tarpit {

/// Epoch clock + snapshot registry for the MVCC write path.
///
/// Lifecycle: the (single, externally serialized) commit leader
/// installs versions stamped `current() + 1` into the version store,
/// then calls Publish() to make that epoch visible. Readers Pin() a
/// snapshot; every version with begin <= snapshot is visible to them.
/// The reclaimer moves versions whose begin epoch no active snapshot
/// can still need (begin <= MinActiveLowerBound()) into base storage.
///
/// Pin protocol (the race this class exists to win): a reader first
/// claims a slot by CAS-ing the kPinningSentinel into it, *then* reads
/// the current epoch and stores it. A reclaim sweep that observes the
/// sentinel cannot know which epoch that reader is about to load, so
/// MinActiveLowerBound() returns 0 ("no progress this pass") — always
/// safe, because the previously reclaimed boundary was validated by an
/// earlier sweep and boundaries only move forward. A reader that pins
/// *after* a sweep loads an epoch >= the sweep's boundary, so versions
/// the sweep freed were never visible to it.
class EpochManager {
 public:
  static constexpr uint64_t kFreeSlot = UINT64_MAX;
  static constexpr uint64_t kPinningSentinel = 0;  // Epochs start at 1.

  explicit EpochManager(size_t slots = 128);

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Latest published commit epoch.
  uint64_t current() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Makes `epoch` (== current() + 1, single leader) visible to new
  /// snapshots. Versions stamped with it must already be installed.
  void Publish(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_seq_cst);
  }

  /// RAII snapshot pin. Movable; unpins on destruction.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }
    Snapshot& operator=(Snapshot&& other) noexcept;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    ~Snapshot() { Release(); }

    uint64_t epoch() const { return epoch_; }
    bool valid() const { return slot_ != nullptr; }
    void Release();

   private:
    friend class EpochManager;
    Snapshot(std::atomic<uint64_t>* slot, uint64_t epoch)
        : slot_(slot), epoch_(epoch) {}
    std::atomic<uint64_t>* slot_ = nullptr;
    uint64_t epoch_ = 0;
  };

  /// Pins the current epoch. Spins (yielding) in the pathological case
  /// where more readers than slots are simultaneously pinned.
  Snapshot Pin();

  /// A lower bound on the oldest epoch any active snapshot observes:
  /// the minimum pinned epoch, current() when nothing is pinned, or 0
  /// when a pin was caught mid-publication (callers must treat 0 as
  /// "no reclaim progress this pass").
  uint64_t MinActiveLowerBound() const;

  /// Counts every Pin() in `pins` (may be null; must outlive this).
  void BindMetrics(obs::Counter* pins) { m_pins_ = pins; }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kFreeSlot};
  };

  std::atomic<uint64_t> epoch_{1};
  std::vector<Slot> slots_;
  obs::Counter* m_pins_ = nullptr;
};

/// Outcome of a version-store lookup.
enum class VersionLookup {
  kMiss,       // No visible version; the caller reads base storage.
  kRow,        // A visible row image was copied out.
  kTombstone,  // The key is deleted as of the snapshot.
};

/// Sharded in-memory version store: the *write front* of the MVCC
/// engine. Commits install full row images (or tombstones) here; base
/// storage (heap + B+tree) is only ever written by the reclaimer, so a
/// reader that misses the chain can always fall through to base — base
/// never holds state newer than the reclaim boundary, which is never
/// ahead of any pinned snapshot.
///
/// Install() is single-writer (the group-commit leader); Lookup() is
/// concurrent. Reclaim() must be serialized with Install() by the
/// caller (both run under the engine's writer mutex).
class VersionStore {
 public:
  explicit VersionStore(size_t stripes = 16);

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Appends a version for `key` with commit epoch `begin` (strictly
  /// increasing per key). `tombstone` marks a delete; `row` is the
  /// full post-image otherwise.
  void Install(int64_t key, uint64_t begin, bool tombstone, Row row);

  /// Newest version with begin <= `snapshot`. Copies the row into
  /// `*out` on kRow.
  VersionLookup Lookup(int64_t key, uint64_t snapshot, Row* out) const;

  /// Newest version regardless of snapshot (the leader's
  /// read-your-writes view when preparing the next commit).
  VersionLookup Head(int64_t key, Row* out) const;

  /// Moves every version with begin <= `boundary` into base storage:
  /// for each key, `apply` is invoked once with the newest qualifying
  /// version, then all versions up to it are unlinked. `apply` runs
  /// with the key's stripe unlocked; the chain still holds the version
  /// while base is being written, so readers always find an image at
  /// least as new as their snapshot on either side. Stops and
  /// propagates the first non-OK from `apply` (already-applied keys
  /// stay removed; the rest retry on the next pass).
  Status Reclaim(uint64_t boundary,
                 const std::function<Status(int64_t key, bool tombstone,
                                            const Row& row)>& apply);

  /// Versions currently chained (gauge).
  uint64_t live_versions() const {
    return live_versions_.load(std::memory_order_relaxed);
  }
  /// Counts versions installed, versions applied to base by Reclaim(),
  /// and versions unlinked by Reclaim() (applied + superseded) in
  /// these counters (any may be null; they must outlive the store).
  void BindMetrics(obs::Counter* installed, obs::Counter* applied,
                   obs::Counter* reclaimed) {
    m_installed_ = installed;
    m_applied_ = applied;
    m_reclaimed_ = reclaimed;
  }

 private:
  struct Version {
    uint64_t begin = 0;
    bool tombstone = false;
    Row row;
  };

  // Plain mutex, not shared_mutex: every critical section here is a
  // sub-microsecond hash probe or vector push, and under a steady
  // stream of reader probes a pthread rwlock (reader-preferring by
  // default) starves Install's exclusive acquisition -- measured as a
  // 3x per-commit inflation on the group-commit leader. A fair futex
  // keeps the writer's latency flat.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<int64_t, std::vector<Version>> chains;
  };

  Stripe& StripeFor(int64_t key) const {
    uint64_t x = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return *stripes_[(x ^ (x >> 31)) % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> live_versions_{0};
  obs::Counter* m_installed_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_reclaimed_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_STORAGE_MVCC_H_
