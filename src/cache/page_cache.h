// File page cache: maps (inode, page-index) to resident frames.
//
// Pure bookkeeping — frames come from MemSystem (which applies the platform
// replacement policy) and all timing is charged by the Os layer. The cache
// also tracks dirty pages in age order so the Os can model write-behind and
// fsync.
//
// Hot-path layout: the residency map is an open-addressed FlatMap from the
// packed (inum, page) key to a FrameId, and the dirty chain is intrusive in
// the shared FrameTable (dirty_prev/dirty_next ids in each frame), so the
// access / insert / dirty paths perform no heap allocation. A file page's
// Page::dirty bit is exactly "on the dirty chain".
//
// Per-file drops (unlink, creat over a file, rename over a file, shrinking
// truncate) cost the file's page span, not the table: each file's record
// bounds its resident page indexes, the drop looks those keys up, and it
// erases them by running FlatMap::EraseIf's loop over only the probe
// clusters that hold them (FlatMap::EraseIfInClusters). That keeps the
// frame-release order and final slot layout of a whole-table EraseIf,
// both of which are machine state.
#ifndef SRC_CACHE_PAGE_CACHE_H_
#define SRC_CACHE_PAGE_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/fs/ffs.h"
#include "src/mem/mem_system.h"
#include "src/sim/clock.h"
#include "src/sim/flat_map.h"

namespace graysim {

class PageCache {
 public:
  explicit PageCache(MemSystem* mem) : mem_(mem) {
    pages_.Reserve(mem->total_pages());
  }

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // True (and LRU-refreshed) if the page is resident.
  bool Access(Inum inum, std::uint64_t page);

  [[nodiscard]] bool Resident(Inum inum, std::uint64_t page) const {
    return pages_.Contains(Key(inum, page));
  }

  // Inserts a page after a disk read (or for a write). Returns false when
  // the policy refuses admission (Solaris-like sticky cache when full).
  // Eviction I/O cost accumulates into *evict_cost.
  bool Insert(Inum inum, std::uint64_t page, bool dirty, Nanos* evict_cost);

  // Marks a resident page dirty (write path). The page must be resident.
  void MarkDirty(Inum inum, std::uint64_t page);

  // Called by the Os eviction handler when MemSystem evicts a file page:
  // removes the mapping. Returns true if the page was dirty.
  bool OnEvicted(const Page& page);

  // Drops every page of a file (unlink/truncate); dirty contents are
  // discarded (the file is going away).
  void DropFile(Inum inum);

  // Drops cached pages at or beyond `first_page` (shrinking truncate).
  void DropFilePagesFrom(Inum inum, std::uint64_t first_page);

  // Drops all file pages (experimental cache flush). Dirty pages are
  // reported through *dirty_dropped so the caller can charge writeback.
  // Costs the resident pages, not the table: the pages are found through
  // the file LRU list and leave in page-table slot order.
  void DropAll(std::vector<std::pair<Inum, std::uint64_t>>* dirty_dropped);

  // The Take*Dirty calls mark the pages they take clean and append them to
  // *out, a buffer the caller reuses, so a writeback allocates nothing once
  // the buffer has grown to its working size.

  // Oldest dirty pages, up to `max_pages`, in dirtying order (write-behind
  // flushing).
  void TakeOldestDirty(std::uint64_t max_pages,
                       std::vector<std::pair<Inum, std::uint64_t>>* out);

  // All dirty pages of one file (fsync), in no particular order. Costs the
  // smaller of the file's page span and the dirty chain's length, not the
  // machine's dirty pages: the span is walked by key lookup when it is the
  // shorter. Taking a set of frames off the intrusive chain leaves the same
  // chain whatever order they come off in.
  void TakeDirtyOfFile(Inum inum, std::vector<std::pair<Inum, std::uint64_t>>* out);

  // All dirty pages whose (disk-tagged) inum satisfies `pred` (syncfs), in
  // dirtying order.
  template <typename Pred>
  void TakeDirtyMatching(Pred&& pred, std::vector<std::pair<Inum, std::uint64_t>>* out) {
    const FrameTable& frames = mem_->frames();
    FrameId f = dirty_order_.front();
    while (f != kNoFrame) {
      const FrameId next = DirtyList::Next(frames, f);
      const Page page = frames.PageOf(f);
      const Inum inum = static_cast<Inum>(page.key1);
      if (pred(inum)) {
        out->emplace_back(inum, page.key2);
        ClearDirty(f);
      }
      f = next;
    }
  }

  // Marks clean (and returns the count of) the resident dirty pages
  // immediately following (inum, page) — i.e. pages page+1..page+n while
  // consecutive, resident, and dirty, up to max_pages. Used to cluster
  // writeback when reclaim hits a dirty page: the whole run is written in
  // one request instead of page-at-a-time.
  [[nodiscard]] std::uint64_t CleanDirtyRunAfter(Inum inum, std::uint64_t page,
                                                 std::uint64_t max_pages);

  [[nodiscard]] std::uint64_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] std::uint64_t dirty_pages() const { return dirty_order_.size(); }
  [[nodiscard]] std::uint64_t ResidentPagesOfFile(Inum inum) const;

  // Copies another cache's bookkeeping (machine snapshot/fork). The frame
  // ids in the maps and the intrusive dirty-chain head refer into the
  // MemSystem slab, which the owner copies alongside; mem_ stays bound to
  // this cache's own MemSystem.
  void CopyStateFrom(const PageCache& other) {
    pages_ = other.pages_;
    files_ = other.files_;
    dirty_order_ = other.dirty_order_;
  }

  // Heap footprint of the residency maps (snapshot-size accounting).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    return sizeof(PageCache) + pages_.capacity_bytes() + files_.capacity_bytes();
  }

  // Per-file record. `pages` (resident page count) is machine state and is
  // checkpointed; `page_span` is derived: one past the highest page index
  // inserted since the file last had no resident pages, so every resident
  // page index of the file lies below it.
  struct FileState {
    std::uint64_t pages = 0;
    std::uint64_t page_span = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("pages", s.pages);
    }
  };

  // The checkpointed state (machine_image_io): what CopyStateFrom copies.
  // A load follows with RebuildPageSpans.
  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("pages", s.pages_);
    v("files", s.files_);
    v("dirty_order", s.dirty_order_);
  }
  // False when the decoded page table or dirty chain disagrees with the
  // MemSystem's frames (ByteReader::Get rejects such a checkpoint): the
  // table must hold exactly the file LRU's frames, each under the key its
  // frame records, and the dirty chain must walk from head to tail in its
  // recorded size through exactly the file frames marked dirty.
  [[nodiscard]] bool Consistent() const;
  // Recomputes every file's page_span from the resident pages (after a
  // restore that wrote only the page counts, and that Consistent accepted).
  // False when a resident page's file has no record, or a record's page
  // count is not its number of resident pages (evictions and drops would
  // then reach a file whose record is gone).
  [[nodiscard]] bool RebuildPageSpans();

  // Raw table access for tests that compare or perturb layouts.
  [[nodiscard]] const FlatMap<FrameId>& pages_map() const { return pages_; }
  [[nodiscard]] FlatMap<FrameId>& pages_map_mutable() { return pages_; }
  [[nodiscard]] const FlatMap<FileState>& files() const { return files_; }
  [[nodiscard]] FlatMap<FileState>& files_mutable() { return files_; }
  [[nodiscard]] const DirtyList& dirty_list() const { return dirty_order_; }
  void RestoreDirtyList(const DirtyList& list) { dirty_order_ = list; }

 private:
  // Key packing: the full 32-bit (disk-tagged) inum in the high bits and a
  // 32-bit page index below it. Page indexes stay < 2^32 (that would be a
  // 16 TB file at 4 KB pages; the modeled disks are 9 GB).
  [[nodiscard]] static std::uint64_t Key(Inum inum, std::uint64_t page) {
    return (static_cast<std::uint64_t>(inum) << 32) | page;
  }
  static Inum KeyInum(std::uint64_t key) { return static_cast<Inum>(key >> 32); }
  static std::uint64_t KeyPage(std::uint64_t key) { return key & 0xFFFFFFFFULL; }

  // Unlinks the frame from the dirty chain if dirty (clearing Page::dirty).
  void ClearDirty(FrameId frame);

  // Fills drop_slots_ with the ascending page-table slots of the file's
  // resident pages in [first_page, page_span): by key lookup over the span,
  // or by one pass over the slots when the span is the larger of the two.
  void CollectFileSlots(Inum inum, std::uint64_t first_page, std::uint64_t page_span);

  MemSystem* mem_;
  FlatMap<FrameId> pages_;        // packed key -> frame id
  FlatMap<FileState> files_;      // inum -> resident pages and page span
  DirtyList dirty_order_;         // intrusive chain, oldest first
  std::vector<std::size_t> drop_slots_;  // scratch for per-file drops
  // DropAll's bitmap of page-table slots, all clear between calls.
  std::vector<std::uint64_t> drop_marks_;
};

}  // namespace graysim

#endif  // SRC_CACHE_PAGE_CACHE_H_
