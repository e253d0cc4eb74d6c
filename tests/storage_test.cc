#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>
#include <fstream>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/schema.h"
#include "storage/slotted_page.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/wal.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name) {
    path_ = fs::temp_directory_path() /
            ("tarpit_test_" + name + "_" + std::to_string(::getpid()));
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

// ---------- DiskManager ----------

TEST(DiskManagerTest, AllocateReadWrite) {
  TempDir dir("disk");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  EXPECT_EQ(dm.PageCount(), 0u);
  auto p0 = dm.AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(dm.PageCount(), 1u);

  char out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(0, out).ok());
  for (size_t i = 0; i < kPageUsableSize; ++i) ASSERT_EQ(out[i], 0);

  char data[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) data[i] = static_cast<char>(i);
  ASSERT_TRUE(dm.WritePage(0, data).ok());
  ASSERT_TRUE(dm.ReadPage(0, out).ok());
  // The usable prefix round-trips; the trailer belongs to the disk
  // manager (CRC32 of the prefix), not to the caller's bytes.
  EXPECT_EQ(std::memcmp(out, data, kPageUsableSize), 0);
}

TEST(DiskManagerTest, ChecksumDetectsCorruption) {
  TempDir dir("disk-crc");
  const std::string path = dir.file("a.db");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path).ok());
  char data[kPageSize] = {};
  std::memcpy(data, "hello", 5);
  ASSERT_TRUE(dm.WritePage(0, data).ok());
  ASSERT_TRUE(dm.Sync().ok());
  ASSERT_TRUE(dm.Close().ok());

  // Flip one byte in the middle of the page, behind the manager's back.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(100);
    char b = 0x5A;
    f.write(&b, 1);
  }
  DiskManager dm2;
  ASSERT_TRUE(dm2.Open(path).ok());
  char out[kPageSize];
  Status st = dm2.ReadPage(0, out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(dm2.checksum_failures(), 1u);
}

// Bit-at-a-time CRC-32, the bytewise definition earlier builds sealed
// page trailers with.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(DiskManagerTest, PageSealedByBytewiseCrcStillVerifies) {
  TempDir dir("disk-oldcrc");
  const std::string path = dir.file("old.db");
  unsigned char image[kPageSize];
  for (size_t i = 0; i < kPageUsableSize; ++i) {
    image[i] = static_cast<unsigned char>((i * 7 + 3) & 0xFF);
  }
  const uint32_t crc = ReferenceCrc32(image, kPageUsableSize);
  std::memcpy(image + kPageUsableSize, &crc, sizeof(crc));
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(image), kPageSize);
    ASSERT_TRUE(f.good());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(path).ok());
  char out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(0, out).ok());
  EXPECT_EQ(std::memcmp(out, image, kPageUsableSize), 0);
  EXPECT_EQ(dm.checksum_failures(), 0u);

  // One flipped byte at offsets 0-15 (every lane of a 16-byte step) and
  // 4,076-4,091 (the end of the last step and the 12-byte tail).
  std::vector<size_t> offsets;
  for (size_t i = 0; i < 16; ++i) offsets.push_back(i);
  for (size_t i = kPageUsableSize - 16; i < kPageUsableSize; ++i) {
    offsets.push_back(i);
  }
  uint64_t failures = 0;
  for (size_t off : offsets) {
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(off));
      const char flipped = static_cast<char>(image[off] ^ 0x01);
      f.write(&flipped, 1);
      ASSERT_TRUE(f.good());
    }
    Status st = dm.ReadPage(0, out);
    EXPECT_TRUE(st.IsCorruption()) << "offset " << off << ": "
                                   << st.ToString();
    EXPECT_EQ(dm.checksum_failures(), ++failures) << "offset " << off;
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(off));
      f.write(reinterpret_cast<const char*>(image + off), 1);
      ASSERT_TRUE(f.good());
    }
  }
  ASSERT_TRUE(dm.ReadPage(0, out).ok());
}

TEST(DiskManagerTest, ReadPastEndFails) {
  TempDir dir("disk2");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  char out[kPageSize];
  EXPECT_FALSE(dm.ReadPage(3, out).ok());
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  TempDir dir("disk3");
  char data[kPageSize] = {'x', 'y', 'z'};
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
    ASSERT_TRUE(dm.AllocatePage().ok());
    ASSERT_TRUE(dm.WritePage(0, data).ok());
    ASSERT_TRUE(dm.Close().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  EXPECT_EQ(dm.PageCount(), 1u);
  char out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(0, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(out[2], 'z');
}

// ---------- BufferPool ----------

TEST(BufferPoolTest, FetchCachesPages) {
  TempDir dir("bp1");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  BufferPool pool(&dm, 4);
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = 'a';
    guard->MarkDirty();
  }
  {
    auto guard = pool.FetchPage(0);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], 'a');
  }
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBack) {
  TempDir dir("bp2");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  BufferPool pool(&dm, 2);
  for (int i = 0; i < 5; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = static_cast<char>('a' + i);
    guard->MarkDirty();
  }
  // All five pages must be readable with correct content despite
  // the two-frame pool.
  for (int i = 0; i < 5; ++i) {
    auto guard = pool.FetchPage(i);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<char>('a' + i)) << i;
  }
}

TEST(BufferPoolTest, AllPinnedFails) {
  TempDir dir("bp3");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  BufferPool pool(&dm, 2);
  auto g1 = pool.NewPage();
  auto g2 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.NewPage();
  EXPECT_FALSE(g3.ok());
  EXPECT_TRUE(g3.status().IsResourceExhausted());
}

TEST(BufferPoolTest, FlushAllPersists) {
  TempDir dir("bp4");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("a.db")).ok());
  BufferPool pool(&dm, 4);
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->data()[7] = 'q';
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  char out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(0, out).ok());
  EXPECT_EQ(out[7], 'q');
}

// ---------- SlottedPage ----------

TEST(SlottedPageTest, InsertGet) {
  char buf[kPageSize] = {};
  SlottedPage sp(buf);
  sp.Init();
  auto s1 = sp.Insert("hello");
  auto s2 = sp.Insert("world!");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ(*sp.Get(*s1), "hello");
  EXPECT_EQ(*sp.Get(*s2), "world!");
  EXPECT_EQ(sp.slot_count(), 2);
}

TEST(SlottedPageTest, DeleteAndSlotReuse) {
  char buf[kPageSize] = {};
  SlottedPage sp(buf);
  sp.Init();
  auto s1 = sp.Insert("aaa");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(sp.Delete(*s1).ok());
  EXPECT_FALSE(sp.Get(*s1).ok());
  EXPECT_FALSE(sp.IsLive(*s1));
  EXPECT_FALSE(sp.Delete(*s1).ok());  // Double delete.
  auto s2 = sp.Insert("bbb");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s1);  // Tombstone reused.
  EXPECT_EQ(sp.slot_count(), 1);
}

TEST(SlottedPageTest, UpdateInPlaceAndGrow) {
  char buf[kPageSize] = {};
  SlottedPage sp(buf);
  sp.Init();
  auto s = sp.Insert("abcdef");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(sp.Update(*s, "xy").ok());
  EXPECT_EQ(*sp.Get(*s), "xy");
  ASSERT_TRUE(sp.Update(*s, "longer than before").ok());
  EXPECT_EQ(*sp.Get(*s), "longer than before");
}

TEST(SlottedPageTest, FillsUpThenFails) {
  char buf[kPageSize] = {};
  SlottedPage sp(buf);
  sp.Init();
  std::string rec(100, 'r');
  int inserted = 0;
  while (true) {
    auto s = sp.Insert(rec);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 4096 / (100 + 4 slot bytes) ~ 39.
  EXPECT_GE(inserted, 35);
  EXPECT_LE(inserted, 40);
}

TEST(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  char buf[kPageSize] = {};
  SlottedPage sp(buf);
  sp.Init();
  std::string rec(1000, 'x');
  auto a = sp.Insert(rec);
  auto b = sp.Insert(rec);
  auto c = sp.Insert(rec);
  auto d = sp.Insert(rec);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_FALSE(sp.Insert(rec).ok());
  ASSERT_TRUE(sp.Delete(*b).ok());
  ASSERT_TRUE(sp.Delete(*d).ok());
  // Two holes of 1000 bytes exist; a fresh 1800-byte record only fits
  // after compaction.
  std::string big(1800, 'y');
  auto e = sp.Insert(big);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*sp.Get(*e), big);
  EXPECT_EQ(*sp.Get(*a), rec);
  EXPECT_EQ(*sp.Get(*c), rec);
}

TEST(SlottedPageTest, RecordTooLargeRejected) {
  char buf[kPageSize] = {};
  SlottedPage sp(buf);
  sp.Init();
  std::string rec(kPageSize, 'z');
  EXPECT_TRUE(sp.Insert(rec).status().IsInvalidArgument());
}

// ---------- HeapFile ----------

TEST(HeapFileTest, InsertGetAcrossPages) {
  TempDir dir("heap1");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 8);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());

  std::vector<RecordId> rids;
  for (int i = 0; i < 500; ++i) {
    std::string rec = "record-" + std::to_string(i) + std::string(50, 'p');
    auto rid = heap.Insert(rec);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_GT(heap.PageCount(), 1u);  // Spilled past one page.
  EXPECT_EQ(heap.live_records(), 500u);
  for (int i = 0; i < 500; ++i) {
    auto rec = heap.Get(rids[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->substr(0, 7 + std::to_string(i).size()),
              "record-" + std::to_string(i));
  }
}

TEST(HeapFileTest, UpdateInPlaceKeepsRid) {
  TempDir dir("heap2");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 8);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());
  auto rid = heap.Insert("original-record");
  ASSERT_TRUE(rid.ok());
  auto new_rid = heap.Update(*rid, "shorter");
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(*new_rid, *rid);
  EXPECT_EQ(*heap.Get(*rid), "shorter");
}

TEST(HeapFileTest, UpdateRelocatesWhenPageFull) {
  TempDir dir("heap3");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 8);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());
  // Fill page 0 nearly full.
  auto first = heap.Insert(std::string(1300, 'a'));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(heap.Insert(std::string(1300, 'b')).ok());
  ASSERT_TRUE(heap.Insert(std::string(1300, 'c')).ok());
  // Growing the first record cannot fit in page 0 anymore.
  auto moved = heap.Update(*first, std::string(3000, 'A'));
  ASSERT_TRUE(moved.ok());
  EXPECT_FALSE(*moved == *first);
  EXPECT_EQ(heap.Get(*moved)->size(), 3000u);
  EXPECT_EQ(heap.live_records(), 3u);
}

TEST(HeapFileTest, ScanVisitsLiveOnly) {
  TempDir dir("heap4");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 8);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());
  auto a = heap.Insert("keep-a");
  auto b = heap.Insert("drop-b");
  auto c = heap.Insert("keep-c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(heap.Delete(*b).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(heap.Scan([&](RecordId, std::string_view rec) {
                    seen.emplace_back(rec);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "keep-a");
  EXPECT_EQ(seen[1], "keep-c");
}

TEST(HeapFileTest, DeletedSpaceIsReusedNotGrown) {
  TempDir dir("heap_reuse");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 16);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());
  // Fill several pages, remember rids.
  std::vector<RecordId> rids;
  for (int i = 0; i < 300; ++i) {
    auto rid = heap.Insert(std::string(100, 'a'));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  const uint32_t pages_after_fill = heap.PageCount();
  // Delete everything, then refill with same-size records: the file
  // must not grow (freed pages get reused).
  for (RecordId rid : rids) ASSERT_TRUE(heap.Delete(rid).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(heap.Insert(std::string(100, 'b')).ok());
  }
  EXPECT_EQ(heap.PageCount(), pages_after_fill);
  EXPECT_EQ(heap.live_records(), 300u);
}

TEST(HeapFileTest, FreeSpaceMapSurvivesReopen) {
  TempDir dir("heap_reuse2");
  std::vector<RecordId> rids;
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
    BufferPool pool(&dm, 16);
    HeapFile heap(&pool);
    ASSERT_TRUE(heap.Open().ok());
    for (int i = 0; i < 200; ++i) {
      auto rid = heap.Insert(std::string(100, 'a'));
      ASSERT_TRUE(rid.ok());
      rids.push_back(*rid);
    }
    // Punch holes in early pages.
    for (size_t i = 0; i < rids.size(); i += 2) {
      ASSERT_TRUE(heap.Delete(rids[i]).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 16);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());
  const uint32_t pages_before = heap.PageCount();
  // New inserts land in the holes rather than growing the file.
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(heap.Insert(std::string(100, 'c')).ok());
  }
  EXPECT_EQ(heap.PageCount(), pages_before);
}

TEST(HeapFileTest, ReopenRecountsLiveRecords) {
  TempDir dir("heap5");
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
    BufferPool pool(&dm, 8);
    HeapFile heap(&pool);
    ASSERT_TRUE(heap.Open().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(heap.Insert("r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("h.db")).ok());
  BufferPool pool(&dm, 8);
  HeapFile heap(&pool);
  ASSERT_TRUE(heap.Open().ok());
  EXPECT_EQ(heap.live_records(), 10u);
}

// ---------- Value & Schema ----------

TEST(ValueTest, TypesAndNull) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{3}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(int64_t{3}).AsDouble(), 3.0);
}

TEST(ValueTest, CompareSemantics) {
  EXPECT_EQ(Value(int64_t{1}).Compare(Value(int64_t{2})), -1);
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_EQ(Value(2.5).Compare(Value(int64_t{2})), 1);
  EXPECT_EQ(Value("a").Compare(Value("b")), -1);
  EXPECT_EQ(Value().Compare(Value(int64_t{0})), -1);  // NULL first.
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_EQ(Value(int64_t{5}).Compare(Value("5")), -1);  // num < str.
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{-7}).ToString(), "-7");
  EXPECT_EQ(Value("x").ToString(), "'x'");
}

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"score", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = TestSchema();
  Row row = {Value(int64_t{42}), Value(3.14), Value("alpha")};
  std::string bytes;
  ASSERT_TRUE(s.EncodeRow(row, &bytes).ok());
  auto decoded = s.DecodeRow(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], row[0]);
  EXPECT_EQ((*decoded)[1], row[1]);
  EXPECT_EQ((*decoded)[2], row[2]);
}

TEST(SchemaTest, NullsRoundTrip) {
  Schema s = TestSchema();
  Row row = {Value(int64_t{1}), Value::Null(), Value::Null()};
  std::string bytes;
  ASSERT_TRUE(s.EncodeRow(row, &bytes).ok());
  auto decoded = s.DecodeRow(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)[1].is_null());
  EXPECT_TRUE((*decoded)[2].is_null());
}

TEST(SchemaTest, IntWidensToDouble) {
  Schema s = TestSchema();
  Row row = {Value(int64_t{1}), Value(int64_t{9}), Value("x")};
  std::string bytes;
  ASSERT_TRUE(s.EncodeRow(row, &bytes).ok());
  auto decoded = s.DecodeRow(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)[1].is_double());
  EXPECT_EQ((*decoded)[1].AsDouble(), 9.0);
}

TEST(SchemaTest, ValidateRejectsBadArityAndTypes) {
  Schema s = TestSchema();
  EXPECT_FALSE(s.Validate({Value(int64_t{1})}).ok());
  EXPECT_FALSE(
      s.Validate({Value("wrong"), Value(1.0), Value("x")}).ok());
}

TEST(SchemaTest, DecodeRejectsCorruption) {
  Schema s = TestSchema();
  Row row = {Value(int64_t{42}), Value(3.14), Value("alpha")};
  std::string bytes;
  ASSERT_TRUE(s.EncodeRow(row, &bytes).ok());
  EXPECT_FALSE(s.DecodeRow(bytes.substr(0, bytes.size() - 2)).ok());
  EXPECT_FALSE(s.DecodeRow(bytes + "tail").ok());
  EXPECT_FALSE(s.DecodeRow("").ok());
}

TEST(SchemaTest, SerializeRoundTrip) {
  Schema s = TestSchema();
  auto back = Schema::Deserialize(s.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == s);
  EXPECT_FALSE(Schema::Deserialize("id:BOGUS").ok());
  EXPECT_FALSE(Schema::Deserialize("").ok());
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.ColumnIndex("name"), 2u);
  EXPECT_FALSE(s.ColumnIndex("absent").ok());
}

// ---------- BTree ----------

struct BTreeFixture {
  TempDir dir;
  DiskManager dm;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;

  explicit BTreeFixture(const std::string& name, size_t pool_pages = 64)
      : dir(name) {
    EXPECT_TRUE(dm.Open(dir.file("t.idx")).ok());
    pool = std::make_unique<BufferPool>(&dm, pool_pages);
    tree = std::make_unique<BTree>(pool.get());
    EXPECT_TRUE(tree->Open().ok());
  }
};

TEST(BTreeTest, InsertSearchSmall) {
  BTreeFixture f("bt1");
  for (int64_t k : {5, 3, 9, 1, 7}) {
    ASSERT_TRUE(f.tree->Insert(k, RecordId{static_cast<PageId>(k), 0}).ok());
  }
  for (int64_t k : {1, 3, 5, 7, 9}) {
    auto rid = f.tree->Search(k);
    ASSERT_TRUE(rid.ok()) << k;
    EXPECT_EQ(rid->page_id, static_cast<PageId>(k));
  }
  EXPECT_TRUE(f.tree->Search(4).status().IsNotFound());
}

TEST(BTreeTest, DuplicateRejected) {
  BTreeFixture f("bt2");
  ASSERT_TRUE(f.tree->Insert(1, RecordId{1, 0}).ok());
  EXPECT_EQ(f.tree->Insert(1, RecordId{2, 0}).code(),
            StatusCode::kAlreadyExists);
}

TEST(BTreeTest, ManyKeysCauseSplitsAndStaySearchable) {
  BTreeFixture f("bt3", 128);
  const int n = 20000;
  Rng rng(99);
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back(i * 7 % n);  // Permutation.
  for (int64_t k : keys) {
    ASSERT_TRUE(
        f.tree->Insert(k, RecordId{static_cast<PageId>(k), 1}).ok())
        << k;
  }
  auto height = f.tree->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2);  // Must have split at least once.
  auto count = f.tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<uint64_t>(n));
  for (int i = 0; i < 200; ++i) {
    int64_t k = static_cast<int64_t>(rng.Uniform(n));
    auto rid = f.tree->Search(k);
    ASSERT_TRUE(rid.ok()) << k;
    EXPECT_EQ(rid->page_id, static_cast<PageId>(k));
  }
}

TEST(BTreeTest, RangeScanOrderedAndBounded) {
  BTreeFixture f("bt4");
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(f.tree->Insert(k * 2, RecordId{0, 0}).ok());
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(f.tree
                  ->RangeScan(10, 30,
                              [&](int64_t k, RecordId) {
                                seen.push_back(k);
                                return Status::OK();
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 11u);  // 10,12,...,30.
  EXPECT_EQ(seen.front(), 10);
  EXPECT_EQ(seen.back(), 30);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
}

TEST(BTreeTest, DeleteRemovesAndSearchFails) {
  BTreeFixture f("bt5");
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(f.tree->Insert(k, RecordId{1, 2}).ok());
  }
  for (int64_t k = 0; k < 1000; k += 2) {
    ASSERT_TRUE(f.tree->Delete(k).ok());
  }
  for (int64_t k = 0; k < 1000; ++k) {
    if (k % 2 == 0) {
      EXPECT_TRUE(f.tree->Search(k).status().IsNotFound()) << k;
    } else {
      EXPECT_TRUE(f.tree->Search(k).ok()) << k;
    }
  }
  EXPECT_EQ(*f.tree->CountEntries(), 500u);
  EXPECT_TRUE(f.tree->Delete(0).IsNotFound());
}

TEST(BTreeTest, UpdateRidRepoints) {
  BTreeFixture f("bt6");
  ASSERT_TRUE(f.tree->Insert(10, RecordId{1, 1}).ok());
  ASSERT_TRUE(f.tree->UpdateRid(10, RecordId{9, 9}).ok());
  auto rid = f.tree->Search(10);
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid->page_id, 9u);
  EXPECT_EQ(rid->slot, 9);
  EXPECT_TRUE(f.tree->UpdateRid(11, RecordId{0, 0}).IsNotFound());
}

TEST(BTreeTest, PersistsAcrossReopen) {
  TempDir dir("bt7");
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(dir.file("t.idx")).ok());
    BufferPool pool(&dm, 64);
    BTree tree(&pool);
    ASSERT_TRUE(tree.Open().ok());
    for (int64_t k = 0; k < 5000; ++k) {
      ASSERT_TRUE(tree.Insert(k, RecordId{static_cast<PageId>(k), 0}).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(dir.file("t.idx")).ok());
  BufferPool pool(&dm, 64);
  BTree tree(&pool);
  ASSERT_TRUE(tree.Open().ok());
  EXPECT_EQ(*tree.CountEntries(), 5000u);
  EXPECT_EQ(tree.Search(4321)->page_id, 4321u);
}

TEST(BTreeTest, NegativeAndExtremeKeys) {
  BTreeFixture f("bt8");
  ASSERT_TRUE(f.tree->Insert(INT64_MIN, RecordId{1, 0}).ok());
  ASSERT_TRUE(f.tree->Insert(INT64_MAX, RecordId{2, 0}).ok());
  ASSERT_TRUE(f.tree->Insert(-5, RecordId{3, 0}).ok());
  ASSERT_TRUE(f.tree->Insert(0, RecordId{4, 0}).ok());
  EXPECT_EQ(f.tree->Search(INT64_MIN)->page_id, 1u);
  EXPECT_EQ(f.tree->Search(INT64_MAX)->page_id, 2u);
  std::vector<int64_t> seen;
  ASSERT_TRUE(f.tree
                  ->RangeScan(INT64_MIN, INT64_MAX,
                              [&](int64_t k, RecordId) {
                                seen.push_back(k);
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{INT64_MIN, -5, 0, INT64_MAX}));
}

TEST(BTreeTest, CursorWalksInOrderAcrossLeaves) {
  BTreeFixture f("bt_cursor", 128);
  const int n = 5000;
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(
        f.tree->Insert(k * 3, RecordId{static_cast<PageId>(k), 0}).ok());
  }
  auto cursor = f.tree->SeekGE(150);  // Between keys 147 and 150.
  ASSERT_TRUE(cursor.ok());
  int64_t expected = 150;
  int visited = 0;
  while (cursor->Valid()) {
    ASSERT_EQ(cursor->key(), expected);
    ASSERT_EQ(cursor->rid().page_id,
              static_cast<PageId>(expected / 3));
    expected += 3;
    ++visited;
    ASSERT_TRUE(cursor->Next().ok());
  }
  EXPECT_EQ(visited, n - 50);  // Keys 150..(n-1)*3.
}

TEST(BTreeTest, CursorSeekPastEndIsInvalid) {
  BTreeFixture f("bt_cursor2");
  ASSERT_TRUE(f.tree->Insert(1, RecordId{1, 0}).ok());
  auto cursor = f.tree->SeekGE(100);
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor->Valid());
  EXPECT_TRUE(cursor->Next().ok());  // Idempotent on exhausted cursor.
  EXPECT_FALSE(cursor->Valid());
}

TEST(BTreeTest, CursorSkipsEmptiedLeaves) {
  BTreeFixture f("bt_cursor3", 128);
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(f.tree->Insert(k, RecordId{0, 0}).ok());
  }
  // Empty out a band in the middle (whole leaves become empty).
  for (int64_t k = 300; k < 900; ++k) {
    ASSERT_TRUE(f.tree->Delete(k).ok());
  }
  auto cursor = f.tree->SeekGE(295);
  ASSERT_TRUE(cursor.ok());
  std::vector<int64_t> seen;
  while (cursor->Valid() && seen.size() < 10) {
    seen.push_back(cursor->key());
    ASSERT_TRUE(cursor->Next().ok());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{295, 296, 297, 298, 299, 900,
                                        901, 902, 903, 904}));
}

// ---------- WAL ----------

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir("wal1");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "row-one").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kDelete, "12345678").ok());
  std::vector<std::pair<WalRecordType, std::string>> seen;
  ASSERT_TRUE(wal.Replay([&](WalRecordType t, std::string_view p) {
                    seen.emplace_back(t, std::string(p));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, WalRecordType::kInsert);
  EXPECT_EQ(seen[0].second, "row-one");
  EXPECT_EQ(seen[1].first, WalRecordType::kDelete);
}

TEST(WalTest, TornTailIsIgnored) {
  TempDir dir("wal2");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "good").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Append garbage simulating a torn write.
  {
    std::ofstream f(dir.file("t.wal"), std::ios::app | std::ios::binary);
    f << "\x08\x00\x00\x00\x01par";  // Claims 8 bytes, delivers 3.
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  int count = 0;
  ASSERT_TRUE(wal.Replay([&](WalRecordType, std::string_view) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  TempDir dir("wal3");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "aaaa").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "bbbb").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip a payload byte of the second record.
  {
    std::fstream f(dir.file("t.wal"),
                   std::ios::in | std::ios::out | std::ios::binary);
    // Record framing: 4 len + 1 type + 4 payload + 4 crc = 13 bytes each.
    f.seekp(13 + 5);
    f.put('X');
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  int count = 0;
  ASSERT_TRUE(wal.Replay([&](WalRecordType, std::string_view) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 1);  // Only the intact first record.
}

TEST(WalTest, TruncateEmptiesLog) {
  TempDir dir("wal4");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "zzz").ok());
  EXPECT_GT(*wal.SizeBytes(), 0u);
  ASSERT_TRUE(wal.Truncate().ok());
  EXPECT_EQ(*wal.SizeBytes(), 0u);
  int count = 0;
  ASSERT_TRUE(wal.Replay([&](WalRecordType, std::string_view) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 0);
}

TEST(WalTest, GroupCommitBatchesSyncs) {
  TempDir dir("wal5");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  // Window far longer than this test: every sync-requested append
  // defers its fdatasync onto the pending batch.
  wal.set_group_commit_window_micros(60'000'000);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "r", /*sync=*/true)
                    .ok());
  }
  EXPECT_EQ(wal.records_appended(), 100u);
  EXPECT_EQ(wal.syncs_issued(), 0u);  // All deferred into the window.
  EXPECT_EQ(wal.unsynced_records(), 100u);
  // The explicit barrier pays one sync for the whole batch.
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs_issued(), 1u);
  EXPECT_EQ(wal.unsynced_records(), 0u);
  ASSERT_TRUE(wal.Sync().ok());        // Nothing pending: no-op.
  EXPECT_EQ(wal.syncs_issued(), 1u);
}

TEST(WalTest, GroupCommitWindowExpiryTriggersSync) {
  TempDir dir("wal6");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  wal.set_group_commit_window_micros(1'000);  // 1 ms window.
  ASSERT_TRUE(
      wal.Append(WalRecordType::kInsert, "a", /*sync=*/true).ok());
  // Wait past the window: the next sync-requested append must flush
  // the batch (itself included).
  RealClock clock;
  clock.SleepForMicros(2'000);
  ASSERT_TRUE(
      wal.Append(WalRecordType::kInsert, "b", /*sync=*/true).ok());
  EXPECT_GE(wal.syncs_issued(), 1u);
  EXPECT_EQ(wal.unsynced_records(), 0u);
}

TEST(WalTest, CloseFlushesDeferredGroupCommit) {
  TempDir dir("wal7");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  wal.set_group_commit_window_micros(60'000'000);
  ASSERT_TRUE(
      wal.Append(WalRecordType::kInsert, "x", /*sync=*/true).ok());
  EXPECT_EQ(wal.unsynced_records(), 1u);
  ASSERT_TRUE(wal.Close().ok());  // Acknowledged records hit disk.
  // Reopen: the record survived (and replay sees it intact).
  Wal reopened;
  ASSERT_TRUE(reopened.Open(dir.file("t.wal")).ok());
  int count = 0;
  ASSERT_TRUE(reopened
                  .Replay([&](WalRecordType, std::string_view) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST(WalTest, ZeroWindowSyncsEveryRecord) {
  TempDir dir("wal8");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir.file("t.wal")).ok());
  // Default window (0): seed behavior, one fdatasync per record.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wal.Append(WalRecordType::kInsert, "r", /*sync=*/true)
                    .ok());
  }
  EXPECT_EQ(wal.syncs_issued(), 5u);
  EXPECT_EQ(wal.unsynced_records(), 0u);
}

// ---------- Table ----------

Schema MovieSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"title", ColumnType::kString},
                 {"gross", ColumnType::kDouble}});
}

TEST(TableTest, CrudLifecycle) {
  TempDir dir("tbl1");
  auto table = Table::Create(dir.path(), "movies", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  Table& t = **table;
  ASSERT_TRUE(
      t.Insert({Value(int64_t{1}), Value("Spider-Man"), Value(403.7)}).ok());
  ASSERT_TRUE(
      t.Insert({Value(int64_t{2}), Value("Signs"), Value(228.0)}).ok());

  auto row = t.GetByKey(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "Spider-Man");

  ASSERT_TRUE(
      t.UpdateByKey(2, {Value(int64_t{2}), Value("Signs"), Value(229.0)})
          .ok());
  EXPECT_EQ(t.GetByKey(2)->at(2).AsDouble(), 229.0);

  ASSERT_TRUE(t.DeleteByKey(1).ok());
  EXPECT_TRUE(t.GetByKey(1).status().IsNotFound());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, DuplicateKeyRejected) {
  TempDir dir("tbl2");
  auto table = Table::Create(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      (*table)->Insert({Value(int64_t{1}), Value("a"), Value(1.0)}).ok());
  EXPECT_EQ(
      (*table)->Insert({Value(int64_t{1}), Value("b"), Value(2.0)}).code(),
      StatusCode::kAlreadyExists);
}

TEST(TableTest, PkMustBeInt) {
  TempDir dir("tbl3");
  EXPECT_FALSE(Table::Create(dir.path(), "m", MovieSchema(), 1).ok());
  EXPECT_FALSE(Table::Create(dir.path(), "m", MovieSchema(), 7).ok());
}

TEST(TableTest, UpdateCannotChangePk) {
  TempDir dir("tbl4");
  auto table = Table::Create(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      (*table)->Insert({Value(int64_t{1}), Value("a"), Value(1.0)}).ok());
  EXPECT_TRUE((*table)
                  ->UpdateByKey(1, {Value(int64_t{9}), Value("a"),
                                    Value(1.0)})
                  .IsInvalidArgument());
}

TEST(TableTest, ScanRangeInKeyOrder) {
  TempDir dir("tbl5");
  auto table = Table::Create(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  for (int64_t k : {5, 1, 9, 3, 7}) {
    ASSERT_TRUE((*table)
                    ->Insert({Value(k), Value("t" + std::to_string(k)),
                              Value(0.0)})
                    .ok());
  }
  std::vector<int64_t> keys;
  ASSERT_TRUE((*table)
                  ->ScanRange(2, 8,
                              [&](const Row& row) {
                                keys.push_back(row[0].AsInt());
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{3, 5, 7}));
}

TEST(TableTest, WalRecoveryAfterCrash) {
  TempDir dir("tbl6");
  {
    auto table = Table::Create(dir.path(), "m", MovieSchema(), 0);
    ASSERT_TRUE(table.ok());
    for (int64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE((*table)
                      ->Insert({Value(k), Value("m" + std::to_string(k)),
                                Value(k * 1.5)})
                      .ok());
    }
    ASSERT_TRUE((*table)->DeleteByKey(50).ok());
    ASSERT_TRUE((*table)
                    ->UpdateByKey(60, {Value(int64_t{60}), Value("updated"),
                                       Value(0.0)})
                    .ok());
    // "Crash": drop the table object without checkpointing. The
    // destructor flushes pools, so simulate harder by copying the wal
    // aside... instead we simply rely on wal replay being idempotent:
    // zero out nothing and reopen.
  }
  auto table = Table::Open(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 99u);
  EXPECT_TRUE((*table)->GetByKey(50).status().IsNotFound());
  EXPECT_EQ((*table)->GetByKey(60)->at(1).AsString(), "updated");
}

TEST(TableTest, WalRecoveryWithUnflushedPool) {
  TempDir dir("tbl7");
  {
    // Tiny pools force evictions mid-stream; destructor flush is
    // prevented by process semantics in a real crash, but replay must
    // still be correct over whatever prefix reached disk.
    TableOptions opts;
    opts.heap_pool_pages = 2;
    opts.index_pool_pages = 4;
    auto table = Table::Create(dir.path(), "m", MovieSchema(), 0, opts);
    ASSERT_TRUE(table.ok());
    for (int64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE((*table)
                      ->Insert({Value(k), Value(std::string(40, 'x')),
                                Value(1.0)})
                      .ok());
    }
  }
  auto table = Table::Open(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 500u);
  for (int64_t k = 0; k < 500; k += 97) {
    EXPECT_TRUE((*table)->GetByKey(k).ok()) << k;
  }
}

TEST(TableTest, CheckpointTruncatesWal) {
  TempDir dir("tbl8");
  auto table = Table::Create(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      (*table)->Insert({Value(int64_t{1}), Value("a"), Value(1.0)}).ok());
  ASSERT_TRUE((*table)->Checkpoint().ok());
  std::error_code ec;
  auto size = fs::file_size(dir.path() + "/m.wal", ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(size, 0u);
  // Data survives a reopen with the empty wal.
  table->reset();
  auto reopened = Table::Open(dir.path(), "m", MovieSchema(), 0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->GetByKey(1).ok());
}

// ---------- Database ----------

TEST(DatabaseTest, CreateGetListDrop) {
  TempDir dir("db1");
  auto db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok());
  auto t = (*db)->CreateTable("movies", MovieSchema(), "id");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE((*db)->GetTable("movies").ok());
  EXPECT_TRUE((*db)->GetTable("nope").status().IsNotFound());
  EXPECT_EQ((*db)->ListTables(), std::vector<std::string>{"movies"});
  EXPECT_EQ((*db)->CreateTable("movies", MovieSchema(), "id").status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*db)->DropTable("movies").ok());
  EXPECT_TRUE((*db)->GetTable("movies").status().IsNotFound());
  EXPECT_TRUE((*db)->DropTable("movies").IsNotFound());
}

TEST(DatabaseTest, CatalogPersistsAcrossReopen) {
  TempDir dir("db2");
  {
    auto db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok());
    auto t = (*db)->CreateTable("movies", MovieSchema(), "id");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(
        (*t)->Insert({Value(int64_t{7}), Value("Ice Age"), Value(176.4)})
            .ok());
    ASSERT_TRUE((*db)->CheckpointAll().ok());
  }
  auto db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok());
  auto t = (*db)->GetTable("movies");
  ASSERT_TRUE(t.ok());
  auto row = (*t)->GetByKey(7);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "Ice Age");
}

TEST(DatabaseTest, CreateTableWithBadPkColumn) {
  TempDir dir("db3");
  auto db = Database::Open(dir.path());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)
                  ->CreateTable("t", MovieSchema(), "does_not_exist")
                  .status()
                  .IsNotFound());
  EXPECT_FALSE((*db)->CreateTable("t2", MovieSchema(), "title").ok());
}

}  // namespace
}  // namespace tarpit
