#include "storage/btree.h"

#include <cassert>
#include <cstring>

namespace tarpit {

namespace {

// Meta page (page 0): [magic:u32][root:u32].
constexpr uint32_t kBTreeMagic = 0x54425431;  // "TBT1"

// Node header: [is_leaf:u8][pad:u8][count:u16][next:u32] = 8 bytes.
constexpr size_t kNodeHeaderSize = 8;

// Leaf entry: key:i64, page:u32, slot:u16 = 14 bytes. Nodes fit in
// kPageUsableSize — the page's final 4 bytes are the DiskManager's
// CRC32 trailer (page.h).
constexpr size_t kLeafEntrySize = 14;
constexpr int kLeafCapacity =
    static_cast<int>((kPageUsableSize - kNodeHeaderSize) / kLeafEntrySize);

// Internal layout: child0:u32 at offset 8, then count x {key:i64,
// child:u32} (12 bytes each).
constexpr size_t kInternalEntrySize = 12;
constexpr int kInternalCapacity = static_cast<int>(
    (kPageUsableSize - kNodeHeaderSize - 4) / kInternalEntrySize);

uint16_t LoadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
int64_t LoadI64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
void StoreU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }
void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void StoreI64(char* p, int64_t v) { std::memcpy(p, &v, 8); }

// Typed view over a node page image.
struct Node {
  char* d;

  bool is_leaf() const { return d[0] != 0; }
  void set_is_leaf(bool v) { d[0] = v ? 1 : 0; }
  int count() const { return LoadU16(d + 2); }
  void set_count(int c) { StoreU16(d + 2, static_cast<uint16_t>(c)); }
  PageId next() const { return LoadU32(d + 4); }
  void set_next(PageId p) { StoreU32(d + 4, p); }

  // --- Leaf accessors ---
  char* leaf_entry(int i) const {
    return d + kNodeHeaderSize + i * kLeafEntrySize;
  }
  int64_t leaf_key(int i) const { return LoadI64(leaf_entry(i)); }
  RecordId leaf_rid(int i) const {
    const char* e = leaf_entry(i);
    return RecordId{LoadU32(e + 8), LoadU16(e + 12)};
  }
  void set_leaf(int i, int64_t key, RecordId rid) {
    char* e = leaf_entry(i);
    StoreI64(e, key);
    StoreU32(e + 8, rid.page_id);
    StoreU16(e + 12, rid.slot);
  }
  void leaf_shift_right(int from) {
    std::memmove(leaf_entry(from + 1), leaf_entry(from),
                 (count() - from) * kLeafEntrySize);
  }
  void leaf_shift_left(int from) {
    std::memmove(leaf_entry(from), leaf_entry(from + 1),
                 (count() - from - 1) * kLeafEntrySize);
  }
  // First index with key >= k (binary search).
  int leaf_lower_bound(int64_t k) const {
    int lo = 0, hi = count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (leaf_key(mid) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // --- Internal accessors ---
  PageId child(int i) const {  // i in [0, count()].
    if (i == 0) return LoadU32(d + kNodeHeaderSize);
    const char* e =
        d + kNodeHeaderSize + 4 + (i - 1) * kInternalEntrySize;
    return LoadU32(e + 8);
  }
  void set_child0(PageId p) { StoreU32(d + kNodeHeaderSize, p); }
  int64_t internal_key(int i) const {  // i in [0, count()-1].
    return LoadI64(d + kNodeHeaderSize + 4 + i * kInternalEntrySize);
  }
  void set_internal(int i, int64_t key, PageId child) {
    char* e = d + kNodeHeaderSize + 4 + i * kInternalEntrySize;
    StoreI64(e, key);
    StoreU32(e + 8, child);
  }
  void internal_shift_right(int from) {
    char* base = d + kNodeHeaderSize + 4;
    std::memmove(base + (from + 1) * kInternalEntrySize,
                 base + from * kInternalEntrySize,
                 (count() - from) * kInternalEntrySize);
  }
  // Index of the child to descend into for key k: the first key
  // strictly greater than k bounds the child.
  int internal_descend_index(int64_t k) const {
    int lo = 0, hi = count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (internal_key(mid) <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  bool full() const {
    return count() >= (is_leaf() ? kLeafCapacity : kInternalCapacity);
  }
};

// Splits a full leaf in `leftg` into left + right halves (left keeps
// the lower half, leaf chain spliced) and returns the separator key
// (right's first key). Both guards must be exclusively latched.
int64_t SplitLeafPage(PageGuard& leftg, PageGuard& rightg) {
  Node left{leftg.data()};
  Node right{rightg.data()};
  right.set_is_leaf(true);
  const int total = left.count();
  const int keep = total / 2;
  right.set_count(total - keep);
  std::memcpy(right.leaf_entry(0), left.leaf_entry(keep),
              (total - keep) * kLeafEntrySize);
  left.set_count(keep);
  right.set_next(left.next());
  left.set_next(rightg.page_id());
  leftg.MarkDirty();
  rightg.MarkDirty();
  return right.leaf_key(0);
}

// Splits a full internal node in `leftg`, promoting (and returning)
// the middle key; the right half takes the children above it.
int64_t SplitInternalPage(PageGuard& leftg, PageGuard& rightg) {
  Node left{leftg.data()};
  Node right{rightg.data()};
  right.set_is_leaf(false);
  right.set_next(kInvalidPageId);
  const int total = left.count();
  const int mid = total / 2;
  const int64_t promote = left.internal_key(mid);
  const int right_count = total - mid - 1;
  right.set_count(right_count);
  right.set_child0(left.child(mid + 1));
  for (int i = 0; i < right_count; ++i) {
    right.set_internal(i, left.internal_key(mid + 1 + i),
                       left.child(mid + 2 + i));
  }
  left.set_count(mid);
  leftg.MarkDirty();
  rightg.MarkDirty();
  return promote;
}

}  // namespace

Status BTree::Open() {
  if (pool_->disk()->PageCount() == 0) {
    // Page 0: meta. Page 1: empty root leaf.
    TARPIT_ASSIGN_OR_RETURN(PageGuard meta, pool_->NewPage());
    TARPIT_ASSIGN_OR_RETURN(PageGuard rootp, pool_->NewPage());
    Node root{rootp.data()};
    root.set_is_leaf(true);
    root.set_count(0);
    root.set_next(kInvalidPageId);
    rootp.MarkDirty();
    StoreU32(meta.data(), kBTreeMagic);
    StoreU32(meta.data() + 4, rootp.page_id());
    meta.MarkDirty();
    height_.store(1, std::memory_order_relaxed);
    return Status::OK();
  }
  TARPIT_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(0));
  if (LoadU32(meta.data()) != kBTreeMagic) {
    return Status::Corruption("not a btree file");
  }
  // Derive the cached height (exact from here on: root splits bump it
  // under the meta page's exclusive latch). Open runs single-threaded.
  PageId cur = LoadU32(meta.data() + 4);
  int h = 1;
  while (true) {
    TARPIT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    Node node{guard.data()};
    if (node.is_leaf()) break;
    cur = node.child(0);
    ++h;
  }
  height_.store(h, std::memory_order_relaxed);
  return Status::OK();
}

Result<PageGuard> BTree::DescendToLeaf(int64_t key,
                                       bool exclusive_leaf) const {
  TARPIT_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(0));
  meta.LatchShared();
  const PageId root_id = LoadU32(meta.data() + 4);
  // Read under the meta latch, so it is consistent with root_id: the
  // leaf level is known before any node is latched, which is what lets
  // a writer take shared latches on internals and exclusive only on
  // the leaf.
  const int leaf_level = height_.load(std::memory_order_relaxed);
  TARPIT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(root_id));
  if (exclusive_leaf && leaf_level == 1) {
    guard.LatchExclusive();
  } else {
    guard.LatchShared();
  }
  meta.Release();
  int level = 1;
  while (true) {
    Node node{guard.data()};
    if (node.is_leaf()) return guard;
    int idx = node.internal_descend_index(key);
    PageId child = node.child(idx);
    // Crab: latch + pin the child before the parent's latch and pin
    // drop (the move assignment releases the parent only after the
    // child guard is fully acquired), so neither eviction nor a
    // concurrent split can touch a node we are standing on.
    TARPIT_ASSIGN_OR_RETURN(PageGuard child_guard,
                            pool_->FetchPage(child));
    ++level;
    if (exclusive_leaf && level == leaf_level) {
      child_guard.LatchExclusive();
    } else {
      child_guard.LatchShared();
    }
    guard = std::move(child_guard);
  }
}

Result<RecordId> BTree::Search(int64_t key) const {
  TARPIT_ASSIGN_OR_RETURN(PageGuard guard,
                          DescendToLeaf(key, /*exclusive_leaf=*/false));
  Node leaf{guard.data()};
  int i = leaf.leaf_lower_bound(key);
  if (i < leaf.count() && leaf.leaf_key(i) == key) {
    return leaf.leaf_rid(i);
  }
  return Status::NotFound("key " + std::to_string(key));
}

Status BTree::Insert(int64_t key, RecordId rid) {
  {
    // Optimistic descent: shared latches on internals, exclusive on
    // the leaf. Wins whenever the leaf has room (the common case).
    TARPIT_ASSIGN_OR_RETURN(PageGuard guard,
                            DescendToLeaf(key, /*exclusive_leaf=*/true));
    Node leaf{guard.data()};
    int i = leaf.leaf_lower_bound(key);
    if (i < leaf.count() && leaf.leaf_key(i) == key) {
      return Status::AlreadyExists("key " + std::to_string(key));
    }
    if (leaf.count() < kLeafCapacity) {
      leaf.leaf_shift_right(i);
      leaf.set_leaf(i, key, rid);
      leaf.set_count(leaf.count() + 1);
      guard.MarkDirty();
      return Status::OK();
    }
  }
  // Leaf full: restart with exclusive latches and preemptive splits.
  if (m_write_restarts_ != nullptr) m_write_restarts_->Increment();
  return InsertPessimistic(key, rid);
}

Status BTree::InsertPessimistic(int64_t key, RecordId rid) {
  TARPIT_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(0));
  meta.LatchExclusive();
  const PageId root_id = LoadU32(meta.data() + 4);
  TARPIT_ASSIGN_OR_RETURN(PageGuard cur, pool_->FetchPage(root_id));
  cur.LatchExclusive();
  if (Node{cur.data()}.full()) {
    // Preemptive root split: grow the tree by one level while the meta
    // latch holds every other descent at the door.
    TARPIT_ASSIGN_OR_RETURN(PageGuard rightg, pool_->NewPage());
    rightg.LatchExclusive();
    const bool was_leaf = Node{cur.data()}.is_leaf();
    const int64_t sep = was_leaf ? SplitLeafPage(cur, rightg)
                                 : SplitInternalPage(cur, rightg);
    TARPIT_ASSIGN_OR_RETURN(PageGuard newrootg, pool_->NewPage());
    Node newroot{newrootg.data()};
    newroot.set_is_leaf(false);
    newroot.set_count(1);
    newroot.set_next(kInvalidPageId);
    newroot.set_child0(root_id);
    newroot.set_internal(0, sep, rightg.page_id());
    newrootg.MarkDirty();
    StoreU32(meta.data() + 4, newrootg.page_id());
    meta.MarkDirty();
    height_.fetch_add(1, std::memory_order_relaxed);
    if (key < sep) {
      rightg.Release();
    } else {
      cur = std::move(rightg);
    }
  }
  meta.Release();
  // Invariant from here down: `cur` is exclusively latched and not
  // full, so a child split always has room to push its separator up.
  while (true) {
    Node node{cur.data()};
    if (node.is_leaf()) {
      int i = node.leaf_lower_bound(key);
      if (i < node.count() && node.leaf_key(i) == key) {
        return Status::AlreadyExists("key " + std::to_string(key));
      }
      node.leaf_shift_right(i);
      node.set_leaf(i, key, rid);
      node.set_count(node.count() + 1);
      cur.MarkDirty();
      return Status::OK();
    }
    int idx = node.internal_descend_index(key);
    TARPIT_ASSIGN_OR_RETURN(PageGuard child,
                            pool_->FetchPage(node.child(idx)));
    child.LatchExclusive();
    if (Node{child.data()}.full()) {
      TARPIT_ASSIGN_OR_RETURN(PageGuard rightg, pool_->NewPage());
      rightg.LatchExclusive();
      const bool child_leaf = Node{child.data()}.is_leaf();
      const int64_t sep = child_leaf ? SplitLeafPage(child, rightg)
                                     : SplitInternalPage(child, rightg);
      node.internal_shift_right(idx);
      node.set_internal(idx, sep, rightg.page_id());
      node.set_count(node.count() + 1);
      cur.MarkDirty();
      if (key < sep) {
        rightg.Release();
      } else {
        child = std::move(rightg);
      }
    }
    cur = std::move(child);
  }
}

Status BTree::UpdateRid(int64_t key, RecordId rid) {
  TARPIT_ASSIGN_OR_RETURN(PageGuard guard,
                          DescendToLeaf(key, /*exclusive_leaf=*/true));
  Node leaf{guard.data()};
  int i = leaf.leaf_lower_bound(key);
  if (i >= leaf.count() || leaf.leaf_key(i) != key) {
    return Status::NotFound("key " + std::to_string(key));
  }
  leaf.set_leaf(i, key, rid);
  guard.MarkDirty();
  return Status::OK();
}

Status BTree::Delete(int64_t key) {
  // Deletes never merge or rebalance, so an exclusive leaf latch is
  // the whole footprint.
  TARPIT_ASSIGN_OR_RETURN(PageGuard guard,
                          DescendToLeaf(key, /*exclusive_leaf=*/true));
  Node leaf{guard.data()};
  int i = leaf.leaf_lower_bound(key);
  if (i >= leaf.count() || leaf.leaf_key(i) != key) {
    return Status::NotFound("key " + std::to_string(key));
  }
  leaf.leaf_shift_left(i);
  leaf.set_count(leaf.count() - 1);
  guard.MarkDirty();
  return Status::OK();
}

Status BTree::RangeScanBatched(
    int64_t lo, int64_t hi, uint64_t max_entries,
    const std::function<Status(const std::vector<BTreeEntry>&)>& fn)
    const {
  if (lo > hi || max_entries == 0) return Status::OK();
  TARPIT_ASSIGN_OR_RETURN(PageGuard guard,
                          DescendToLeaf(lo, /*exclusive_leaf=*/false));
  std::vector<BTreeEntry> batch;
  batch.reserve(kLeafCapacity);
  uint64_t remaining = max_entries;
  while (true) {
    Node leaf{guard.data()};
    batch.clear();
    bool done = false;
    for (int i = leaf.leaf_lower_bound(lo); i < leaf.count(); ++i) {
      int64_t k = leaf.leaf_key(i);
      if (k > hi) {
        done = true;
        break;
      }
      batch.push_back({k, leaf.leaf_rid(i)});
      if (--remaining == 0) {
        done = true;
        break;
      }
    }
    PageId next = leaf.next();
    // Single pin + shared latch per leaf: drop both before user code
    // runs so callbacks that fetch heap pages never stack pins against
    // tiny pools. A hop after the latch drops is still safe: if the
    // next leaf splits before we arrive, we land on its left half and
    // follow the spliced chain through the new right sibling.
    guard.Release();
    if (!batch.empty()) TARPIT_RETURN_IF_ERROR(fn(batch));
    if (done || next == kInvalidPageId) return Status::OK();
    TARPIT_ASSIGN_OR_RETURN(guard, pool_->FetchPage(next));
    guard.LatchShared();
  }
}

Status BTree::RangeScan(
    int64_t lo, int64_t hi,
    const std::function<Status(int64_t, RecordId)>& fn) const {
  return RangeScanBatched(
      lo, hi, UINT64_MAX,
      [&fn](const std::vector<BTreeEntry>& batch) -> Status {
        for (const BTreeEntry& e : batch) {
          TARPIT_RETURN_IF_ERROR(fn(e.key, e.rid));
        }
        return Status::OK();
      });
}

Result<BTree::Cursor> BTree::SeekGE(int64_t key) const {
  TARPIT_ASSIGN_OR_RETURN(PageGuard guard,
                          DescendToLeaf(key, /*exclusive_leaf=*/false));
  Node leaf{guard.data()};
  Cursor cursor(this, guard.page_id(), leaf.leaf_lower_bound(key));
  guard.Release();
  TARPIT_RETURN_IF_ERROR(cursor.LoadCurrent());
  return cursor;
}

Status BTree::Cursor::LoadCurrent() {
  valid_ = false;
  PageId page = leaf_;
  int index = index_;
  while (page != kInvalidPageId) {
    TARPIT_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->FetchPage(page));
    guard.LatchShared();
    Node leaf{guard.data()};
    if (index < leaf.count()) {
      leaf_ = page;
      index_ = index;
      key_ = leaf.leaf_key(index);
      rid_ = leaf.leaf_rid(index);
      valid_ = true;
      return Status::OK();
    }
    // Ran past this (possibly empty) leaf: hop along the chain.
    page = leaf.next();
    index = 0;
  }
  return Status::OK();
}

Status BTree::Cursor::Next() {
  if (!valid_) return Status::OK();
  ++index_;
  return LoadCurrent();
}

Result<uint64_t> BTree::CountEntries() const {
  uint64_t n = 0;
  TARPIT_RETURN_IF_ERROR(RangeScan(
      INT64_MIN, INT64_MAX, [&n](int64_t, RecordId) {
        ++n;
        return Status::OK();
      }));
  return n;
}

Result<int> BTree::Height() const {
  // The cached height is exact (see header); no descent needed.
  return height_.load(std::memory_order_relaxed);
}

}  // namespace tarpit
