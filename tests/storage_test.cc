#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "src/catalog/paper_catalog.h"
#include "src/common/rng.h"
#include "src/storage/object_store.h"

namespace oodb {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : db_(MakePaperCatalog(0.01)), store_(&db_.catalog) {}
  PaperDb db_;
  ObjectStore store_;
};

TEST_F(StorageTest, CreateAssignsSequentialOids) {
  Oid a = store_.Create(db_.person);
  Oid b = store_.Create(db_.person);
  EXPECT_EQ(b, a + 1);
  EXPECT_TRUE(store_.Exists(a));
  EXPECT_FALSE(store_.Exists(b + 1));
  EXPECT_EQ(store_.TypeOf(a), db_.person);
}

TEST_F(StorageTest, DensePackingOnPages) {
  // Person objects are 100 bytes: 40 fit on one 4096-byte page.
  std::vector<Oid> oids;
  for (int i = 0; i < 41; ++i) oids.push_back(store_.Create(db_.person));
  EXPECT_EQ(store_.PageOf(oids[0]), store_.PageOf(oids[39]));
  EXPECT_NE(store_.PageOf(oids[0]), store_.PageOf(oids[40]));
  EXPECT_EQ(store_.PageOf(oids[40]), store_.PageOf(oids[0]) + 1);
}

TEST_F(StorageTest, TypesGetSeparatePages) {
  Oid p = store_.Create(db_.person);
  Oid c = store_.Create(db_.city);
  Oid p2 = store_.Create(db_.person);
  EXPECT_NE(store_.PageOf(p), store_.PageOf(c));
  // A later person resumes the person type's current page.
  EXPECT_EQ(store_.PageOf(p), store_.PageOf(p2));
}

TEST_F(StorageTest, FieldValuesRoundTrip) {
  Oid p = store_.Create(db_.person);
  store_.SetValue(p, db_.person_name, Value::Str("Ada"));
  store_.SetValue(p, db_.person_age, Value::Int(36));
  Result<const ObjectData*> obj = store_.Read(p, /*stream=*/nullptr);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*obj)->value(db_.person_name).s, "Ada");
  EXPECT_EQ((*obj)->value(db_.person_age).i, 36);
}

TEST_F(StorageTest, RefsAndRefSets) {
  Oid p = store_.Create(db_.person);
  Oid c = store_.Create(db_.city);
  store_.SetRef(c, db_.city_mayor, p);
  Result<const ObjectData*> city = store_.Read(c, /*stream=*/nullptr);
  ASSERT_TRUE(city.ok());
  EXPECT_EQ((*city)->ref(db_.city_mayor), p);

  Oid t = store_.Create(db_.task);
  Oid e1 = store_.Create(db_.employee);
  Oid e2 = store_.Create(db_.employee);
  store_.AddToRefSet(t, db_.task_team_members, e1);
  store_.AddToRefSet(t, db_.task_team_members, e2);
  Result<const ObjectData*> task = store_.Read(t, /*stream=*/nullptr);
  ASSERT_TRUE(task.ok());
  ASSERT_EQ((*task)->ref_sets.size(), 1u);
  EXPECT_EQ((*task)->ref_sets[0], (std::vector<Oid>{e1, e2}));
}

TEST_F(StorageTest, ExtentsTrackMembership) {
  Oid p = store_.Create(db_.person);
  auto extent = store_.CollectionMembers(CollectionId::Extent(db_.person));
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ((*extent)->size(), 1u);
  EXPECT_EQ((**extent)[0], p);
  // Plant has no extent.
  store_.Create(db_.plant);
  EXPECT_FALSE(store_.CollectionMembers(CollectionId::Extent(db_.plant)).ok());
}

TEST_F(StorageTest, NamedSets) {
  Oid c = store_.Create(db_.city);
  ASSERT_TRUE(store_.AddToSet("Cities", c).ok());
  auto members = store_.CollectionMembers(CollectionId::Set("Cities", db_.city));
  ASSERT_TRUE(members.ok());
  EXPECT_EQ((*members)->size(), 1u);
  EXPECT_FALSE(store_.AddToSet("NoSuchSet", c).ok());
}

TEST_F(StorageTest, ReadChargesBufferAndDisk) {
  Oid p = store_.Create(db_.person);
  store_.ResetSimulation();
  SimStream& stream = store_.stream();
  ASSERT_TRUE(store_.Read(p, &stream).ok());
  EXPECT_EQ(stream.reads(), 1);
  EXPECT_GT(stream.clock.io_s, 0.0);
  // Second read of the same page: buffer hit, no disk I/O.
  ASSERT_TRUE(store_.Read(p, &stream).ok());
  EXPECT_EQ(stream.buffer_hits, 1);
  EXPECT_EQ(stream.reads(), 1);
}

TEST_F(StorageTest, IndexBuildAndLookup) {
  Oid p1 = store_.Create(db_.person);
  store_.SetValue(p1, db_.person_name, Value::Str("Joe"));
  Oid p2 = store_.Create(db_.person);
  store_.SetValue(p2, db_.person_name, Value::Str("Ann"));
  Oid c1 = store_.Create(db_.city);
  store_.SetRef(c1, db_.city_mayor, p1);
  Oid c2 = store_.Create(db_.city);
  store_.SetRef(c2, db_.city_mayor, p2);
  ASSERT_TRUE(store_.AddToSet("Cities", c1).ok());
  ASSERT_TRUE(store_.AddToSet("Cities", c2).ok());
  // Populate the other indexed collections so BuildIndexes succeeds.
  ASSERT_TRUE(store_.AddToSet("Tasks", store_.Create(db_.task)).ok());

  ASSERT_TRUE(store_.BuildIndexes().ok());
  auto idx = store_.FindIndex(kIdxCitiesMayorName);
  ASSERT_TRUE(idx.ok());
  // The path index resolves mayor.name to the *city* roots.
  EXPECT_EQ((*idx)->Lookup(Value::Str("Joe")), (std::vector<Oid>{c1}));
  EXPECT_EQ((*idx)->Lookup(Value::Str("Ann")), (std::vector<Oid>{c2}));
  EXPECT_TRUE((*idx)->Lookup(Value::Str("Zed")).empty());
}

TEST_F(StorageTest, IndexRangeScan) {
  for (int i = 0; i < 10; ++i) {
    Oid t = store_.Create(db_.task);
    store_.SetValue(t, db_.task_time, Value::Int(i));
    ASSERT_TRUE(store_.AddToSet("Tasks", t).ok());
  }
  ASSERT_TRUE(store_.AddToSet("Cities", store_.Create(db_.city)).ok());
  ASSERT_TRUE(store_.BuildIndexes().ok());
  auto idx = store_.FindIndex(kIdxTasksTime);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->Range(Value::Int(3), Value::Int(5)).size(), 3u);
  EXPECT_EQ((*idx)->num_keys(), 10);
  EXPECT_EQ((*idx)->num_entries(), 10);
}

TEST(DiskModelTest, SequentialVsRandomClassification) {
  CostModelOptions timing;
  SimStream disk;
  disk.Read(10, timing);  // first read: random
  disk.Read(11, timing);  // sequential
  disk.Read(11, timing);  // re-read: sequential
  disk.Read(50, timing);  // forward seek: random (discounted)
  disk.Read(5, timing);   // backward: random (full)
  EXPECT_EQ(disk.seq_reads, 2);
  EXPECT_EQ(disk.random_reads, 3);
  EXPECT_EQ(disk.reads(), 5);
}

TEST(DiskModelTest, ShortForwardSeeksCheaperThanFullRandom) {
  CostModelOptions timing;
  SimStream near_disk, far_disk;
  near_disk.Read(100, timing);
  near_disk.clock.Reset();
  near_disk.Read(102, timing);  // distance 2
  far_disk.Read(100, timing);
  far_disk.clock.Reset();
  far_disk.Read(100000000, timing);  // huge seek
  EXPECT_LT(near_disk.clock.io_s, far_disk.clock.io_s);
  EXPECT_GT(near_disk.clock.io_s, timing.seq_io_s - 1e-12);
}

/// One page touch through the batched entry point.
Status Access(BufferPool& pool, PageId page, SimStream* stream) {
  return pool.AccessMany(&page, 1, stream);
}

TEST(BufferPoolTest, LruEviction) {
  CostModelOptions timing;
  SimStream stream;
  BufferPool pool(&timing, 2);
  ASSERT_TRUE(Access(pool, 1, &stream).ok());
  ASSERT_TRUE(Access(pool, 2, &stream).ok());
  ASSERT_TRUE(Access(pool, 1, &stream).ok());  // 1 is now most recent
  ASSERT_TRUE(Access(pool, 3, &stream).ok());  // evicts 2
  EXPECT_EQ(stream.reads(), 3);
  EXPECT_EQ(stream.buffer_hits, 1);
  ASSERT_TRUE(Access(pool, 2, &stream).ok());  // miss again
  EXPECT_EQ(stream.reads(), 4);
  ASSERT_TRUE(Access(pool, 1, &stream).ok());  // capacity 2: after access(2)
                                               // resident = {2, 3}; 1 misses.
  EXPECT_EQ(stream.reads(), 5);
  EXPECT_EQ(pool.resident(), 2);
}

/// The std::list LRU the flat pool replaced, kept as its oracle: same
/// eviction rule (a pool of capacity 0 still holds the page just read).
/// Hits and misses count from construction; Reset() clears residency only.
class ListLru {
 public:
  ListLru(const CostModelOptions* timing, SimStream* stream, int64_t capacity)
      : timing_(timing), stream_(stream), capacity_(capacity) {}
  void Touch(PageId page) {
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      ++hits;
      return;
    }
    stream_->Read(page, *timing_);
    ++misses;
    if (static_cast<int64_t>(lru_.size()) >= capacity_ && !lru_.empty()) {
      lru_.pop_back();
    }
    lru_.push_front(page);
  }
  void Reset() { lru_.clear(); }
  int64_t resident() const { return static_cast<int64_t>(lru_.size()); }
  int64_t hits = 0, misses = 0;

 private:
  const CostModelOptions* timing_;
  SimStream* stream_;
  int64_t capacity_;
  std::list<PageId> lru_;  // front = most recent
};

TEST(BufferPoolTest, MatchesListLruReference) {
  CostModelOptions timing;
  for (int64_t capacity : {0, 1, 2, 64}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    SimStream stream, ref_stream;
    BufferPool pool(&timing, capacity);
    ListLru ref(&timing, &ref_stream, capacity);
    Rng rng(static_cast<uint64_t>(capacity) + 11);
    std::vector<PageId> pages;
    for (int step = 0; step < 4000; ++step) {
      uint64_t op = rng.Uniform(100);
      if (op == 0) {
        pool.Reset();
        ref.Reset();
      } else if (op < 50) {
        PageId page = static_cast<PageId>(rng.Uniform(150));
        ASSERT_TRUE(Access(pool, page, &stream).ok());
        ref.Touch(page);
      } else {
        // A scan-like run: consecutive pages from a random start, with an
        // occasional repeat or jump back, as ReadMany's page runs come.
        pages.clear();
        PageId page = static_cast<PageId>(rng.Uniform(150));
        for (uint64_t n = 1 + rng.Uniform(24); n > 0; --n) {
          pages.push_back(page);
          page = rng.Uniform(8) == 0
                     ? std::max<PageId>(
                           0, page - static_cast<PageId>(rng.Uniform(20)))
                     : page + 1;
        }
        ASSERT_TRUE(pool.AccessMany(pages.data(), pages.size(), &stream).ok());
        for (PageId p : pages) ref.Touch(p);
      }
      ASSERT_EQ(stream.buffer_hits, ref.hits) << "step " << step;
      ASSERT_EQ(stream.reads(), ref.misses) << "step " << step;
      ASSERT_EQ(pool.resident(), ref.resident()) << "step " << step;
    }
    EXPECT_GT(ref_stream.seq_reads, 0);
    EXPECT_GT(ref_stream.random_reads, 0);
    EXPECT_EQ(stream.seq_reads, ref_stream.seq_reads);
    EXPECT_EQ(stream.random_reads, ref_stream.random_reads);
    EXPECT_EQ(stream.clock.io_s, ref_stream.clock.io_s);  // bit-identical
  }
}

TEST(BufferPoolTest, ResetClears) {
  CostModelOptions timing;
  SimStream stream;
  BufferPool pool(&timing, 4);
  ASSERT_TRUE(Access(pool, 1, &stream).ok());
  pool.Reset();
  EXPECT_EQ(pool.resident(), 0);
  // The page is gone: touching it again is a second miss, not a hit.
  ASSERT_TRUE(Access(pool, 1, &stream).ok());
  EXPECT_EQ(stream.buffer_hits, 0);
  EXPECT_EQ(stream.reads(), 2);
}

}  // namespace
}  // namespace oodb
