// Physical memory accounting shared by the file cache and virtual memory.
//
// A fixed pool of page frames is managed under one of three policies that
// model the paper's three platforms:
//
//  * kUnifiedLru (Linux 2.2-like): file and anonymous pages compete for one
//    pool. Reclaim prefers the oldest FILE page while the file cache holds
//    at least 1/16 of memory (streaming "use-once" file data should not
//    displace a process's active heap); below that share reclaim falls back
//    to the globally least-recently-used page of either kind — which is
//    what swaps anonymous memory once processes overcommit (the Fig 7
//    paging cliff).
//  * kPartitionedFixedFile (NetBSD 1.5-like): the file cache is a fixed-size
//    partition (64 MB in the paper) with its own LRU; anonymous memory uses
//    the rest.
//  * kStickyFile (Solaris 7-like): once the pool is full a new *file* page
//    is refused admission instead of displacing an existing page ("once a
//    file is placed in the Solaris file cache, it is quite difficult to
//    dislodge"). Anonymous demand still reclaims file pages.
//
// Frames live in a contiguous FrameTable and the LRU lists are intrusive
// (see frame_table.h), so the per-touch hot path performs no heap
// allocation. Eviction I/O (writeback / swap-out) is delegated to an
// owner-installed EvictionHandler so the Os can charge the cost to the
// faulting process; the handler is a plain interface pointer — installing
// and invoking it never allocates either.
#ifndef SRC_MEM_MEM_SYSTEM_H_
#define SRC_MEM_MEM_SYSTEM_H_

#include <cstdint>

#include "src/mem/frame_table.h"
#include "src/sim/clock.h"

namespace graysim {

enum class MemPolicy : std::uint8_t {
  kUnifiedLru,            // Linux 2.2-like
  kPartitionedFixedFile,  // NetBSD 1.5-like
  kStickyFile,            // Solaris 7-like
};

// The last MemPolicy, for checkpoint readers (see ByteReader::Get).
constexpr MemPolicy LastEnumerator(MemPolicy) { return MemPolicy::kStickyFile; }

struct MemStats {
  std::uint64_t evictions = 0;
  std::uint64_t file_evictions = 0;
  std::uint64_t anon_evictions = 0;
  std::uint64_t admissions_denied = 0;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("evictions", s.evictions);
    v("file_evictions", s.file_evictions);
    v("anon_evictions", s.anon_evictions);
    v("admissions_denied", s.admissions_denied);
  }

  friend bool operator==(const MemStats&, const MemStats&) = default;
};

// Owner hook for eviction I/O: unmaps the page from its owner and returns
// the I/O cost of eviction (writeback for dirty file pages, swap-out for
// anon pages).
class EvictionHandler {
 public:
  virtual Nanos OnEvict(const Page& page) = 0;

 protected:
  ~EvictionHandler() = default;
};

class MemSystem {
 public:
  struct Config {
    std::uint64_t total_pages = 0;       // usable frames (after kernel reservation)
    MemPolicy policy = MemPolicy::kUnifiedLru;
    std::uint64_t file_cache_pages = 0;  // partition size for kPartitionedFixedFile
  };

  // Minimum share of memory the unified policy tries to keep available to
  // the file cache before it starts swapping anonymous pages (1/16).
  static constexpr std::uint64_t kMinFileShareDivisor = 16;

  // A resident page is named by its frame id; kNoFrame means "no page"
  // (admission denied).
  using PageRef = FrameId;

  explicit MemSystem(Config config);

  void set_evict_handler(EvictionHandler* handler) { evict_handler_ = handler; }

  // Inserts a page, evicting if necessary. Returns kNoFrame when the policy
  // refuses admission (sticky policy, file page, pool full). Eviction I/O
  // cost is accumulated into *evict_cost.
  [[nodiscard]] PageRef Insert(Page page, Nanos* evict_cost);

  // Moves the page to the MRU end of its list.
  void Touch(PageRef ref);

  void MarkDirty(PageRef ref) { frames_.set_dirty(ref, true); }
  void MarkClean(PageRef ref) { frames_.set_dirty(ref, false); }

  // Frees the frame without writeback; the caller is responsible for any
  // bookkeeping (used by unlink/truncate/VmFree).
  void Remove(PageRef ref);

  // Evicts up to n LRU pages (any kind); returns total eviction I/O cost.
  [[nodiscard]] Nanos Reclaim(std::uint64_t n);

  // Page-daemon reclaim: evicts CLEAN file pages (oldest first) until
  // free_pages() reaches `target_free`, up to `max_pages` in this batch.
  // Returns the number evicted; stops early when the next policy victim
  // would be dirty or anonymous — reclaiming those costs I/O, which real
  // kernels push into process context (direct reclaim) so the allocating
  // process pays the wait. That throttling is load-bearing here: MAC's
  // slow-touch signal exists precisely because a daemon cannot hand out
  // frames faster than the paging device retires eviction writes.
  std::uint64_t ReclaimToFree(std::uint64_t target_free, std::uint64_t max_pages);

  [[nodiscard]] std::uint64_t total_pages() const { return config_.total_pages; }
  [[nodiscard]] std::uint64_t used_pages() const { return file_pages_ + anon_pages_; }
  [[nodiscard]] std::uint64_t free_pages() const { return config_.total_pages - used_pages(); }
  [[nodiscard]] std::uint64_t file_pages() const { return file_pages_; }
  [[nodiscard]] std::uint64_t anon_pages() const { return anon_pages_; }
  [[nodiscard]] const MemStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

  // The shared frame slab: PageCache threads its dirty chain through it and
  // reads page identities by frame id.
  [[nodiscard]] FrameTable& frames() { return frames_; }
  [[nodiscard]] const FrameTable& frames() const { return frames_; }
  [[nodiscard]] Page page(PageRef ref) const { return frames_.PageOf(ref); }
  // Every resident file page, and every resident anonymous page, least
  // recently used first.
  [[nodiscard]] const LruList& file_lru() const { return file_lru_; }
  [[nodiscard]] const LruList& anon_lru() const { return anon_lru_; }

  // Copies another MemSystem's simulation state (machine snapshot/fork):
  // the frame slab plus the intrusive list heads and counters. FrameIds are
  // stable across the slab copy, so the list heads transfer verbatim. The
  // config must already match (same profile); the eviction handler is
  // identity, not state — the restoring owner keeps its own.
  void CopyStateFrom(const MemSystem& other) {
    frames_.CopyFrom(other.frames_);
    file_lru_ = other.file_lru_;
    anon_lru_ = other.anon_lru_;
    file_pages_ = other.file_pages_;
    anon_pages_ = other.anon_pages_;
    touch_seq_ = other.touch_seq_;
    stats_ = other.stats_;
  }

  // The checkpointed state (machine_image_io): what CopyStateFrom copies.
  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("frames", s.frames_);
    v("file_lru", s.file_lru_);
    v("anon_lru", s.anon_lru_);
    v("file_pages", s.file_pages_);
    v("anon_pages", s.anon_pages_);
    v("touch_seq", s.touch_seq_);
    v("stats", s.stats_);
  }

  // False when decoded state could not have come from this class: a frame
  // count past the pool, an LRU list that does not walk from head to tail
  // in its recorded size with matching back links, a frame on the list of
  // the other kind, page counts that differ from the lists, or a frame that
  // is not on exactly one of the free list and the two LRU lists
  // (ByteReader::Get rejects such a checkpoint). Allocates one bit per
  // frame.
  [[nodiscard]] bool Consistent() const;

 private:
  // Evicts one page to make room for a page of `incoming` kind. Returns
  // false if nothing can be evicted (admission must be denied).
  bool EvictOne(PageKind incoming, Nanos* evict_cost);

  // Evicts one clean file page near the LRU end of the file list (if the
  // policy currently reclaims from it); false when none qualifies.
  bool EvictCleanFileOne();

  // The list holding the globally least-recently-touched page across both
  // kinds; nullptr when both are empty.
  [[nodiscard]] LruList* GlobalLruList();

  [[nodiscard]] LruList& ListFor(PageKind kind) {
    return kind == PageKind::kFile ? file_lru_ : anon_lru_;
  }

  Config config_;
  EvictionHandler* evict_handler_ = nullptr;
  FrameTable frames_;
  LruList file_lru_;
  LruList anon_lru_;
  std::uint64_t file_pages_ = 0;
  std::uint64_t anon_pages_ = 0;
  std::uint64_t touch_seq_ = 0;
  MemStats stats_;
};

}  // namespace graysim

#endif  // SRC_MEM_MEM_SYSTEM_H_
