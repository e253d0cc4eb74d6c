#ifndef TARPIT_STORAGE_BTREE_H_
#define TARPIT_STORAGE_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace tarpit {

/// One decoded leaf entry, as surfaced by batched range scans.
struct BTreeEntry {
  int64_t key = 0;
  RecordId rid;
};

/// Disk-backed B+tree mapping int64 keys to RecordIds, used as the
/// primary-key index of a table. Unique keys only. Deletes remove
/// entries without rebalancing (underfull nodes are tolerated, as in
/// several production engines); the paper's workloads never shrink
/// tables, so space reclamation is not on the critical path.
///
/// Concurrency: every descent latch-couples ("crabs") per-page
/// reader/writer latches top-down — meta, then root, then each child
/// is latched before the parent latch drops. Readers take shared
/// latches throughout. Writers take shared latches on internal nodes
/// and an exclusive latch on the target leaf (optimistic descent); an
/// insert that finds its leaf full restarts pessimistically with
/// exclusive latches and *preemptive* splits (any full node met on the
/// way down is split while its guaranteed-non-full parent is still
/// held), so no writer ever needs to re-ascend. Readers therefore run
/// concurrently with writers page-wise instead of behind a tree-wide
/// exclusive lock. Concurrent *writers* must still be serialized
/// externally (the engine's write path funnels them through a single
/// group-commit leader): leaves carry no fence keys, so two racing
/// optimistic inserts could not re-validate leaf boundaries after a
/// concurrent split.
class BTree {
 public:
  explicit BTree(BufferPool* pool) : pool_(pool) {}

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Formats a fresh index (empty file) or opens an existing one.
  Status Open();

  /// Inserts a unique key. AlreadyExists if the key is present.
  Status Insert(int64_t key, RecordId rid);

  /// Looks up a key.
  Result<RecordId> Search(int64_t key) const;

  /// Re-points an existing key at a new RecordId (after heap
  /// relocation). NotFound if absent.
  Status UpdateRid(int64_t key, RecordId rid);

  /// Removes a key. NotFound if absent.
  Status Delete(int64_t key);

  /// Calls `fn(key, rid)` for every entry with key in [lo, hi],
  /// ascending. Stops early and propagates non-OK from fn.
  Status RangeScan(
      int64_t lo, int64_t hi,
      const std::function<Status(int64_t, RecordId)>& fn) const;

  /// Batched range scan: decodes each leaf's qualifying entries under a
  /// single pin, releases the pin, then hands the whole block to `fn`
  /// (ascending, never empty). Stops after `max_entries` total entries
  /// (UINT64_MAX = unbounded); stops early and propagates non-OK from
  /// fn. One pin + one shard lookup per leaf instead of per tuple.
  Status RangeScanBatched(
      int64_t lo, int64_t hi, uint64_t max_entries,
      const std::function<Status(const std::vector<BTreeEntry>&)>& fn)
      const;

  /// Number of entries (walks the leaf chain).
  Result<uint64_t> CountEntries() const;

  /// Height of the tree (1 = just a root leaf).
  Result<int> Height() const;

  /// Forward cursor over the leaf chain. Valid() is false once
  /// exhausted. The cursor pins no pages between calls (it re-fetches
  /// by page id), so it stays correct across unrelated reads but, like
  /// most B+tree cursors, must not straddle concurrent structural
  /// modification of the tree it walks.
  class Cursor {
   public:
    bool Valid() const { return valid_; }
    int64_t key() const { return key_; }
    RecordId rid() const { return rid_; }

    /// Advances to the next entry. Returns an error only on I/O
    /// failure; running off the end just invalidates the cursor.
    Status Next();

   private:
    friend class BTree;
    Cursor(const BTree* tree, PageId leaf, int index)
        : tree_(tree), leaf_(leaf), index_(index) {}

    /// Loads (key_, rid_) from the current position, hopping to the
    /// next leaf if the index ran off this one.
    Status LoadCurrent();

    const BTree* tree_ = nullptr;
    PageId leaf_ = kInvalidPageId;
    int index_ = 0;
    bool valid_ = false;
    int64_t key_ = 0;
    RecordId rid_;
  };

  /// Positions a cursor at the first entry with key >= `key`.
  Result<Cursor> SeekGE(int64_t key) const;

  /// Counts optimistic writer descents that found their leaf full and
  /// restarted with exclusive latches + preemptive splits (may be
  /// null; must outlive the tree).
  void BindMetrics(obs::Counter* write_restarts) {
    m_write_restarts_ = write_restarts;
  }

 private:
  /// Descends to the leaf that owns `key`, latch-coupling top-down,
  /// and returns it pinned and latched (shared, or exclusive when
  /// `exclusive_leaf` — the cached height says which level is the leaf
  /// level before the leaf is ever latched). The parent's latch and
  /// pin are held until the child is latched and pinned, so neither a
  /// concurrent eviction nor a concurrent split can repurpose a node
  /// mid-descent.
  Result<PageGuard> DescendToLeaf(int64_t key, bool exclusive_leaf) const;

  /// Exclusive-latched descent that preemptively splits every full
  /// node encountered (classic top-down crabbing insert).
  Status InsertPessimistic(int64_t key, RecordId rid);

  BufferPool* pool_;
  /// Levels from root to leaf (1 = root is a leaf). Exact: read under
  /// the meta page's shared latch, written only by root splits holding
  /// the meta page's exclusive latch.
  std::atomic<int> height_{1};
  obs::Counter* m_write_restarts_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_STORAGE_BTREE_H_
