#include "src/cache/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace graysim {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest()
      : mem_(MemSystem::Config{64, MemPolicy::kUnifiedLru, 0}),
        cache_(&mem_),
        handler_([this](const Page& page) {
          if (page.kind == PageKind::kFile) {
            evicted_dirty_ += cache_.OnEvicted(page) ? 1 : 0;
            ++evicted_;
          }
          return Nanos{0};
        }) {
    mem_.set_evict_handler(&handler_);
  }

  MemSystem mem_;
  PageCache cache_;
  FnEviction handler_;
  std::uint64_t evicted_ = 0;
  std::uint64_t evicted_dirty_ = 0;
  Nanos cost_ = 0;
};

TEST_F(PageCacheTest, InsertThenAccessHits) {
  EXPECT_FALSE(cache_.Access(1, 0));
  ASSERT_TRUE(cache_.Insert(1, 0, false, &cost_));
  EXPECT_TRUE(cache_.Access(1, 0));
  EXPECT_TRUE(cache_.Resident(1, 0));
  EXPECT_EQ(cache_.resident_pages(), 1u);
}

TEST_F(PageCacheTest, ReinsertIsIdempotent) {
  ASSERT_TRUE(cache_.Insert(1, 0, false, &cost_));
  ASSERT_TRUE(cache_.Insert(1, 0, false, &cost_));
  EXPECT_EQ(cache_.resident_pages(), 1u);
}

TEST_F(PageCacheTest, ReinsertDirtyMarksDirty) {
  ASSERT_TRUE(cache_.Insert(1, 0, false, &cost_));
  EXPECT_EQ(cache_.dirty_pages(), 0u);
  ASSERT_TRUE(cache_.Insert(1, 0, true, &cost_));
  EXPECT_EQ(cache_.dirty_pages(), 1u);
  EXPECT_EQ(cache_.resident_pages(), 1u);
}

TEST_F(PageCacheTest, DistinctFilesDoNotCollide) {
  ASSERT_TRUE(cache_.Insert(1, 7, false, &cost_));
  ASSERT_TRUE(cache_.Insert(2, 7, false, &cost_));
  EXPECT_EQ(cache_.resident_pages(), 2u);
  EXPECT_EQ(cache_.ResidentPagesOfFile(1), 1u);
  EXPECT_EQ(cache_.ResidentPagesOfFile(2), 1u);
}

TEST_F(PageCacheTest, DropFileRemovesOnlyThatFile) {
  for (std::uint64_t p = 0; p < 5; ++p) {
    ASSERT_TRUE(cache_.Insert(1, p, p % 2 == 0, &cost_));
    ASSERT_TRUE(cache_.Insert(2, p, false, &cost_));
  }
  cache_.DropFile(1);
  EXPECT_EQ(cache_.ResidentPagesOfFile(1), 0u);
  EXPECT_EQ(cache_.ResidentPagesOfFile(2), 5u);
  EXPECT_EQ(cache_.dirty_pages(), 0u) << "dirty bookkeeping cleaned with the file";
  EXPECT_EQ(mem_.used_pages(), 5u);
}

TEST_F(PageCacheTest, DropFilePagesFromTruncatesTail) {
  for (std::uint64_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(cache_.Insert(3, p, true, &cost_));
  }
  cache_.DropFilePagesFrom(3, 6);
  EXPECT_EQ(cache_.ResidentPagesOfFile(3), 6u);
  EXPECT_TRUE(cache_.Resident(3, 5));
  EXPECT_FALSE(cache_.Resident(3, 6));
  EXPECT_EQ(cache_.dirty_pages(), 6u);
}

TEST_F(PageCacheTest, TakeOldestDirtyReturnsDirtyingOrder) {
  ASSERT_TRUE(cache_.Insert(1, 5, true, &cost_));
  ASSERT_TRUE(cache_.Insert(2, 9, true, &cost_));
  ASSERT_TRUE(cache_.Insert(1, 1, true, &cost_));
  std::vector<std::pair<Inum, std::uint64_t>> batch;
  cache_.TakeOldestDirty(2, &batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], (std::pair<Inum, std::uint64_t>{1, 5}));
  EXPECT_EQ(batch[1], (std::pair<Inum, std::uint64_t>{2, 9}));
  EXPECT_EQ(cache_.dirty_pages(), 1u);
}

TEST_F(PageCacheTest, TakeDirtyOfFileIsSelective) {
  ASSERT_TRUE(cache_.Insert(1, 0, true, &cost_));
  ASSERT_TRUE(cache_.Insert(2, 0, true, &cost_));
  ASSERT_TRUE(cache_.Insert(1, 3, true, &cost_));
  std::vector<std::pair<Inum, std::uint64_t>> pages;
  cache_.TakeDirtyOfFile(1, &pages);
  EXPECT_EQ(pages.size(), 2u);
  EXPECT_EQ(cache_.dirty_pages(), 1u);  // file 2's page remains dirty
}

TEST_F(PageCacheTest, CleanDirtyRunAfterStopsAtCleanOrAbsent) {
  for (std::uint64_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(cache_.Insert(1, p, /*dirty=*/p != 3, &cost_));
  }
  // Run after page 0: pages 1,2 dirty; page 3 clean stops it.
  EXPECT_EQ(cache_.CleanDirtyRunAfter(1, 0, 255), 2u);
  EXPECT_EQ(cache_.dirty_pages(), 3u);  // pages 0, 4, 5 still dirty
  // Run after page 4: page 5 dirty, page 6 absent stops it.
  EXPECT_EQ(cache_.CleanDirtyRunAfter(1, 4, 255), 1u);
}

TEST_F(PageCacheTest, CleanDirtyRunAfterRespectsCap) {
  for (std::uint64_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(cache_.Insert(1, p, true, &cost_));
  }
  EXPECT_EQ(cache_.CleanDirtyRunAfter(1, 0, 4), 4u);
  EXPECT_EQ(cache_.dirty_pages(), 6u);
}

TEST_F(PageCacheTest, EvictionUnmapsAndReportsDirty) {
  // Fill the 64-frame pool with dirty pages, then overflow it.
  for (std::uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(cache_.Insert(1, p, true, &cost_));
  }
  ASSERT_TRUE(cache_.Insert(2, 0, false, &cost_));
  EXPECT_EQ(evicted_, 1u);
  EXPECT_EQ(evicted_dirty_, 1u);
  EXPECT_EQ(cache_.resident_pages(), 64u);
  EXPECT_EQ(cache_.dirty_pages(), 63u);
}

TEST_F(PageCacheTest, DropAllReportsDirtyPages) {
  ASSERT_TRUE(cache_.Insert(1, 0, true, &cost_));
  ASSERT_TRUE(cache_.Insert(1, 1, false, &cost_));
  std::vector<std::pair<Inum, std::uint64_t>> dirty;
  cache_.DropAll(&dirty);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].second, 0u);
  EXPECT_EQ(cache_.resident_pages(), 0u);
  EXPECT_EQ(mem_.used_pages(), 0u);
}

TEST_F(PageCacheTest, AccessRefreshesLruOrder) {
  for (std::uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(cache_.Insert(1, p, false, &cost_));
  }
  ASSERT_TRUE(cache_.Access(1, 0));  // refresh the oldest page
  ASSERT_TRUE(cache_.Insert(2, 0, false, &cost_));
  EXPECT_TRUE(cache_.Resident(1, 0)) << "refreshed page survived";
  EXPECT_FALSE(cache_.Resident(1, 1)) << "page 1 became LRU and was evicted";
}

// ---- differential test of the per-file drop path ---------------------------

// A cache over its own frame pool; evictions feed back into the cache the
// way the Os eviction handler does.
struct CacheRig {
  explicit CacheRig(std::uint64_t frames)
      : mem(MemSystem::Config{frames, MemPolicy::kUnifiedLru, 0}),
        cache(&mem),
        handler([this](const Page& page) {
          if (page.kind == PageKind::kFile) {
            (void)cache.OnEvicted(page);
          }
          return Nanos{0};
        }) {
    mem.set_evict_handler(&handler);
  }

  MemSystem mem;
  PageCache cache;
  FnEviction handler;
};

Inum KeyInum(std::uint64_t key) { return static_cast<Inum>(key >> 32); }
std::uint64_t KeyPage(std::uint64_t key) { return key & 0xFFFFFFFFULL; }

// The whole-table drops PageCache made before drops became per-file:
// FlatMap::EraseIf over every slot. Kept here as the reference the per-file
// drops must reproduce exactly.
void FullScanDrop(CacheRig& rig, Inum inum, std::uint64_t first_page, bool whole_file) {
  DirtyList dirty = rig.cache.dirty_list();
  FlatMap<PageCache::FileState>& files = rig.cache.files_mutable();
  rig.cache.pages_map_mutable().EraseIf([&](std::uint64_t key, FrameId ref) {
    if (KeyInum(key) != inum || KeyPage(key) < first_page) {
      return false;
    }
    if (rig.mem.frames().dirty(ref)) {
      dirty.Remove(rig.mem.frames(), ref);
      rig.mem.MarkClean(ref);
    }
    rig.mem.Remove(ref);
    if (!whole_file && --files.Find(inum)->pages == 0) {
      files.Erase(inum);
    }
    return true;
  });
  if (whole_file) {
    files.Erase(inum);
  }
  rig.cache.RestoreDirtyList(dirty);
}

// The first difference between two caches' machine state — raw page-table
// slots, per-file page counts, dirty-chain order and the frame free list —
// or "" when they match.
std::string FirstDifference(const CacheRig& a, const CacheRig& b) {
  const FlatMap<FrameId>& pa = a.cache.pages_map();
  const FlatMap<FrameId>& pb = b.cache.pages_map();
  if (pa.slot_count() != pb.slot_count()) {
    return "page table capacity";
  }
  for (std::size_t i = 0; i < pa.slot_count(); ++i) {
    if (pa.slot_key(i) != pb.slot_key(i) ||
        (pa.slot_key(i) != FlatMap<FrameId>::kEmptyKey && pa.slot_value(i) != pb.slot_value(i))) {
      return "page table slot " + std::to_string(i);
    }
  }
  const FlatMap<PageCache::FileState>& fa = a.cache.files();
  const FlatMap<PageCache::FileState>& fb = b.cache.files();
  if (fa.slot_count() != fb.slot_count()) {
    return "file table capacity";
  }
  for (std::size_t i = 0; i < fa.slot_count(); ++i) {
    if (fa.slot_key(i) != fb.slot_key(i) ||
        (fa.slot_key(i) != FlatMap<PageCache::FileState>::kEmptyKey &&
         fa.slot_value(i).pages != fb.slot_value(i).pages)) {
      return "file table slot " + std::to_string(i);
    }
  }
  std::vector<FrameId> chain_a;
  std::vector<FrameId> chain_b;
  for (FrameId f = a.cache.dirty_list().front(); f != kNoFrame;
       f = DirtyList::Next(a.mem.frames(), f)) {
    chain_a.push_back(f);
  }
  for (FrameId f = b.cache.dirty_list().front(); f != kNoFrame;
       f = DirtyList::Next(b.mem.frames(), f)) {
    chain_b.push_back(f);
  }
  if (chain_a != chain_b || a.cache.dirty_pages() != b.cache.dirty_pages()) {
    return "dirty chain";
  }
  if (a.mem.frames().free_list() != b.mem.frames().free_list()) {
    return "frame free list";
  }
  return "";
}

// True when the table's probe cluster that wraps past the last slot (if
// any) holds a page of `inum`.
bool WrappingClusterHolds(const FlatMap<FrameId>& pages, Inum inum) {
  const std::size_t n = pages.slot_count();
  if (n == 0 || pages.slot_key(0) == FlatMap<FrameId>::kEmptyKey ||
      pages.slot_key(n - 1) == FlatMap<FrameId>::kEmptyKey) {
    return false;
  }
  for (std::size_t i = 0; pages.slot_key(i) != FlatMap<FrameId>::kEmptyKey; ++i) {
    if (KeyInum(pages.slot_key(i)) == inum) {
      return true;
    }
  }
  for (std::size_t i = n - 1; pages.slot_key(i) != FlatMap<FrameId>::kEmptyKey; --i) {
    if (KeyInum(pages.slot_key(i)) == inum) {
      return true;
    }
  }
  return false;
}

// Seeded random Insert / MarkDirty / Access / write-behind / drop sequences
// under eviction pressure, applied to a cache that drops per file and to one
// that drops by whole-table scan. The two must agree slot for slot after
// every operation. Frame pools of 8 and 40 give 16- and 128-slot tables, so
// probe clusters are long and often wrap past the last slot; pages far past
// the table size send some drops down the span-larger-than-table path.
TEST(PageCacheDropDifferentialTest, PerFileDropsMatchFullScanReference) {
  int wrapped_drops = 0;
  int drops = 0;
  for (const std::uint64_t frames : {std::uint64_t{8}, std::uint64_t{40}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("frames " + std::to_string(frames) + " seed " + std::to_string(seed));
      CacheRig subject(frames);
      CacheRig reference(frames);
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + frames);
      auto pick = [&rng](std::uint64_t n) { return rng() % n; };
      for (int op = 0; op < 3000; ++op) {
        const Inum inum = static_cast<Inum>(1 + pick(6));
        const std::uint64_t page = pick(10) == 0 ? 200 + pick(16) : pick(24);
        const std::uint64_t kind = pick(100);
        Nanos cost = 0;
        if (kind < 50) {
          const bool dirty = pick(3) == 0;
          ASSERT_EQ(subject.cache.Insert(inum, page, dirty, &cost),
                    reference.cache.Insert(inum, page, dirty, &cost));
        } else if (kind < 60) {
          if (subject.cache.Resident(inum, page)) {
            subject.cache.MarkDirty(inum, page);
            reference.cache.MarkDirty(inum, page);
          }
        } else if (kind < 68) {
          ASSERT_EQ(subject.cache.Access(inum, page), reference.cache.Access(inum, page));
        } else if (kind < 72) {
          std::vector<std::pair<Inum, std::uint64_t>> taken;
          std::vector<std::pair<Inum, std::uint64_t>> expected;
          subject.cache.TakeOldestDirty(2, &taken);
          reference.cache.TakeOldestDirty(2, &expected);
          ASSERT_EQ(taken, expected);
        } else {
          const bool whole_file = kind < 86;
          const std::uint64_t first_page = whole_file ? 0 : pick(26);
          ++drops;
          wrapped_drops += WrappingClusterHolds(subject.cache.pages_map(), inum) ? 1 : 0;
          if (whole_file) {
            subject.cache.DropFile(inum);
          } else {
            subject.cache.DropFilePagesFrom(inum, first_page);
          }
          FullScanDrop(reference, inum, first_page, whole_file);
        }
        ASSERT_EQ(FirstDifference(subject, reference), "") << "after op " << op;
      }
    }
  }
  EXPECT_GT(drops, 1000);
  EXPECT_GT(wrapped_drops, 0) << "no drop touched a cluster that wraps past the last slot";
}

// The fsync collection PageCache made before it looked up the file's page
// span: one walk of the whole dirty chain, taking the file's pages in
// dirtying order. Kept here as the reference TakeDirtyOfFile must match.
std::vector<std::pair<Inum, std::uint64_t>> ChainWalkTakeDirty(CacheRig& rig, Inum inum) {
  std::vector<std::pair<Inum, std::uint64_t>> taken;
  DirtyList dirty = rig.cache.dirty_list();
  FrameId f = dirty.front();
  while (f != kNoFrame) {
    const FrameId next = DirtyList::Next(rig.mem.frames(), f);
    if (static_cast<Inum>(rig.mem.frames().key1(f)) == inum) {
      taken.emplace_back(inum, rig.mem.frames().key2(f));
      dirty.Remove(rig.mem.frames(), f);
      rig.mem.MarkClean(f);
    }
    f = next;
  }
  rig.cache.RestoreDirtyList(dirty);
  return taken;
}

// Seeded random writes, reads, write-behind and drops under eviction
// pressure, with an fsync of a random file as one op in six. The span
// lookup must take the same page set as the chain walk and leave both
// caches identical: the other files' dirty pages stay in chain order. Pages
// far past the rest of a file make its span longer than the dirty chain, so
// some fsyncs take the chain-walk path.
TEST(PageCacheDropDifferentialTest, FsyncTakesTheChainWalksPageSet) {
  int span_fsyncs = 0;
  int chain_fsyncs = 0;
  for (const std::uint64_t frames : {std::uint64_t{8}, std::uint64_t{40}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("frames " + std::to_string(frames) + " seed " + std::to_string(seed));
      CacheRig subject(frames);
      CacheRig reference(frames);
      std::mt19937_64 rng(seed * 0xC2B2AE3D27D4EB4FULL + frames);
      auto pick = [&rng](std::uint64_t n) { return rng() % n; };
      for (int op = 0; op < 2000; ++op) {
        const Inum inum = static_cast<Inum>(1 + pick(6));
        const std::uint64_t page = pick(25) == 0 ? 200 + pick(16) : pick(8);
        const std::uint64_t kind = pick(6);
        Nanos cost = 0;
        if (kind < 3) {
          const bool dirty = pick(4) != 0;
          ASSERT_EQ(subject.cache.Insert(inum, page, dirty, &cost),
                    reference.cache.Insert(inum, page, dirty, &cost));
        } else if (kind == 3) {
          ASSERT_EQ(subject.cache.Access(inum, page), reference.cache.Access(inum, page));
        } else if (kind == 4) {
          if (pick(4) == 0) {
            subject.cache.DropFile(inum);
            reference.cache.DropFile(inum);
          } else {
            std::vector<std::pair<Inum, std::uint64_t>> ignored;
            subject.cache.TakeOldestDirty(1, &ignored);
            reference.cache.TakeOldestDirty(1, &ignored);
          }
        } else {
          const PageCache::FileState* file = subject.cache.files().Find(inum);
          if (file != nullptr && file->page_span <= subject.cache.dirty_pages()) {
            ++span_fsyncs;
          } else if (file != nullptr) {
            ++chain_fsyncs;
          }
          std::vector<std::pair<Inum, std::uint64_t>> taken;
          subject.cache.TakeDirtyOfFile(inum, &taken);
          std::vector<std::pair<Inum, std::uint64_t>> expected =
              ChainWalkTakeDirty(reference, inum);
          std::sort(taken.begin(), taken.end());
          std::sort(expected.begin(), expected.end());
          ASSERT_EQ(taken, expected) << "after op " << op;
        }
        ASSERT_EQ(FirstDifference(subject, reference), "") << "after op " << op;
      }
    }
  }
  EXPECT_GT(span_fsyncs, 300);
  EXPECT_GT(chain_fsyncs, 300);
}

// The cache flush PageCache made before it found the pages through the file
// LRU list: a pass over every page-table slot, then a clear of every slot.
// Kept here as the reference DropAll must reproduce exactly.
void FullScanDropAll(CacheRig& rig, std::vector<std::pair<Inum, std::uint64_t>>* dirty_dropped) {
  FlatMap<FrameId>& pages = rig.cache.pages_map_mutable();
  pages.ForEach([&](std::uint64_t key, FrameId ref) {
    if (rig.mem.frames().dirty(ref)) {
      dirty_dropped->emplace_back(KeyInum(key), KeyPage(key));
    }
    rig.mem.Remove(ref);
  });
  pages.Clear();
  rig.cache.files_mutable().Clear();
  rig.cache.RestoreDirtyList(DirtyList{});
}

// Seeded inserts (dirty and clean), touches, write-behind, per-file drops
// and anonymous pages on twin caches; then one flushes with DropAll and the
// other with the whole-table pass, three times over with more work in
// between. The flushes must report the same dirty pages in the same order
// and leave the same machine state: an empty page table of the same
// capacity, an empty file LRU list, and the same frame free list, with the
// anonymous pages' frames left where they were. Pools of 300 and 1,000
// frames hold a few hundred resident pages; a 64-frame pool has every
// frame in use at each flush. Inums with the kernel's pseudo-file tags
// (metadata blocks, antagonist and shock pages) are cached beside ordinary
// files.
TEST(PageCacheDropDifferentialTest, DropAllMatchesTheWholeTablePass) {
  const Inum kInums[] = {1, 2, 3, 17, 0x00FFFFFF, 0x00FFFFFE, 0x00FFFFFD, 0x01FFFFFF, 0x01000005};
  int full_flushes = 0;
  for (const std::uint64_t frames : {64, 300, 1000}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("frames " + std::to_string(frames) + " seed " + std::to_string(seed));
      CacheRig subject(frames);
      CacheRig reference(frames);
      std::mt19937_64 rng(seed * 0x2545F4914F6CDD1DULL + frames);
      auto pick = [&rng](std::uint64_t n) { return rng() % n; };
      std::uint64_t next_vpn = 1;
      for (int flush = 0; flush < 3; ++flush) {
        for (std::uint64_t op = 0; op < 3 * frames; ++op) {
          const Inum inum = kInums[pick(std::size(kInums))];
          const std::uint64_t page = pick(frames);
          const std::uint64_t kind = pick(100);
          Nanos cost = 0;
          if (kind < 65) {
            const bool dirty = pick(3) == 0;
            ASSERT_EQ(subject.cache.Insert(inum, page, dirty, &cost),
                      reference.cache.Insert(inum, page, dirty, &cost));
          } else if (kind < 78) {
            ASSERT_EQ(subject.cache.Access(inum, page), reference.cache.Access(inum, page));
          } else if (kind < 88) {
            if (subject.mem.anon_pages() >= frames / 5) {
              continue;  // leave most frames to the cache
            }
            const Page anon{PageKind::kAnon, 7, next_vpn++, false};
            ASSERT_EQ(subject.mem.Insert(anon, &cost), reference.mem.Insert(anon, &cost));
          } else if (kind < 97) {
            std::vector<std::pair<Inum, std::uint64_t>> ignored;
            subject.cache.TakeOldestDirty(1, &ignored);
            reference.cache.TakeOldestDirty(1, &ignored);
          } else {
            subject.cache.DropFile(inum);
            reference.cache.DropFile(inum);
          }
        }
        ASSERT_EQ(FirstDifference(subject, reference), "");
        full_flushes += subject.mem.free_pages() == 0 ? 1 : 0;
        const std::size_t capacity = subject.cache.pages_map().slot_count();
        const std::uint64_t resident = subject.cache.resident_pages();
        std::vector<std::pair<Inum, std::uint64_t>> dropped;
        std::vector<std::pair<Inum, std::uint64_t>> expected;
        subject.cache.DropAll(&dropped);
        FullScanDropAll(reference, &expected);
        ASSERT_EQ(dropped, expected) << "flush " << flush;
        ASSERT_EQ(FirstDifference(subject, reference), "") << "flush " << flush;
        EXPECT_EQ(subject.cache.resident_pages(), 0u);
        EXPECT_EQ(subject.cache.pages_map().slot_count(), capacity);
        EXPECT_EQ(subject.mem.file_pages(), 0u);
        EXPECT_EQ(subject.mem.free_pages(), reference.mem.free_pages());
        EXPECT_TRUE(subject.mem.file_lru().empty());
        if (frames > 64) {
          EXPECT_GT(resident, 100u) << "flush " << flush;
        }
        EXPECT_FALSE(expected.empty()) << "no dirty page reached the flush";
      }
    }
  }
  EXPECT_GE(full_flushes, 9) << "the 64-frame pool was not full at its flushes";
}

}  // namespace
}  // namespace graysim
