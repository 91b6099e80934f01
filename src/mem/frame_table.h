// Contiguous page-frame slab with intrusive LRU / dirty chains.
//
// Every resident page in the simulation — file-cache and anonymous alike —
// lives in one frame of a FrameTable and is named by a 32-bit FrameId. The
// replacement lists (MemSystem's file/anon LRUs) and the page cache's dirty
// chain are intrusive doubly-linked lists threaded through the frames, so a
// touch is a handful of id stores instead of a std::list node splice, and
// insert/evict never allocate: the slab is sized once to the machine's
// physical memory and frames recycle through a free list.
//
// The slab is split hot/cold by access frequency. The link records (16
// bytes), touch sequence numbers, and kind/dirty flag bytes each live in
// their own packed array — together well under the L2 of any modern host
// even for multi-GB simulated machines — while the page identity (which
// file/process, which page) is cold and only read when a page is inserted,
// evicted, or written back. An interleaved 48-byte Frame struct made every
// LRU splice pull four ~random cache lines from a slab bigger than L2; the
// split keeps the splice traffic L2-resident.
#ifndef SRC_MEM_FRAME_TABLE_H_
#define SRC_MEM_FRAME_TABLE_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/byte_io.h"

namespace graysim {

enum class PageKind : std::uint8_t { kFile, kAnon };

struct Page {
  PageKind kind;
  std::uint64_t key1;  // file: inode number | anon: pid
  std::uint64_t key2;  // file: page index  | anon: virtual page number
  bool dirty = false;
  std::uint64_t last_touch = 0;  // global touch sequence number
};

using FrameId = std::uint32_t;
constexpr FrameId kNoFrame = 0xFFFFFFFFu;

// Hot per-frame state: the intrusive list links.
struct FrameHot {
  FrameId lru_prev = kNoFrame;    // MemSystem replacement list
  FrameId lru_next = kNoFrame;
  FrameId dirty_prev = kNoFrame;  // PageCache write-behind chain
  FrameId dirty_next = kNoFrame;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("lru_prev", s.lru_prev);
    v("lru_next", s.lru_next);
    v("dirty_prev", s.dirty_prev);
    v("dirty_next", s.dirty_next);
  }
};

// The frame slab. Allocation pops a LIFO free list (or grows the slab while
// warming up); frame ids stay valid until Release. References into the slab
// are invalidated by Allocate (growth may move the arrays) — hold FrameIds
// across calls, not references.
class FrameTable {
 public:
  FrameTable() = default;

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  // Pre-sizes the slab so Allocate never grows it (zero-allocation steady
  // state once the owner has reserved physical-memory capacity).
  void Reserve(std::uint64_t frames) {
    hot_.reserve(frames);
    touch_.reserve(frames);
    flags_.reserve(frames);
    key1_.reserve(frames);
    key2_.reserve(frames);
    free_.reserve(frames);
  }

  [[nodiscard]] FrameId Allocate() {
    if (!free_.empty()) {
      const FrameId id = free_.back();
      free_.pop_back();
      hot_[id] = FrameHot{};
      return id;
    }
    assert(hot_.size() < kNoFrame);
    hot_.emplace_back();
    touch_.push_back(0);
    flags_.push_back(0);
    key1_.push_back(0);
    key2_.push_back(0);
    return static_cast<FrameId>(hot_.size() - 1);
  }

  void Release(FrameId id) {
    assert(id < hot_.size());
    free_.push_back(id);
  }

  [[nodiscard]] FrameHot& hot(FrameId id) {
    assert(id < hot_.size());
    return hot_[id];
  }
  [[nodiscard]] const FrameHot& hot(FrameId id) const {
    assert(id < hot_.size());
    return hot_[id];
  }

  [[nodiscard]] std::uint64_t last_touch(FrameId id) const { return touch_[id]; }
  void set_last_touch(FrameId id, std::uint64_t seq) { touch_[id] = seq; }

  [[nodiscard]] PageKind kind(FrameId id) const {
    return (flags_[id] & kKindAnon) != 0 ? PageKind::kAnon : PageKind::kFile;
  }
  [[nodiscard]] bool dirty(FrameId id) const { return (flags_[id] & kDirty) != 0; }
  void set_dirty(FrameId id, bool dirty) {
    if (dirty) {
      flags_[id] |= kDirty;
    } else {
      flags_[id] &= static_cast<std::uint8_t>(~kDirty);
    }
  }

  [[nodiscard]] std::uint64_t key1(FrameId id) const { return key1_[id]; }
  [[nodiscard]] std::uint64_t key2(FrameId id) const { return key2_[id]; }

  // Stores a page's identity into the frame (insert path).
  void SetPage(FrameId id, const Page& page) {
    flags_[id] = static_cast<std::uint8_t>(
        (page.kind == PageKind::kAnon ? kKindAnon : 0) | (page.dirty ? kDirty : 0));
    key1_[id] = page.key1;
    key2_[id] = page.key2;
    touch_[id] = page.last_touch;
  }

  // Reassembles the page's identity (evict/writeback path — cold reads).
  [[nodiscard]] Page PageOf(FrameId id) const {
    return Page{kind(id), key1_[id], key2_[id], dirty(id), touch_[id]};
  }

  [[nodiscard]] std::uint64_t live_frames() const { return hot_.size() - free_.size(); }
  // Frames in the slab, live or free: every FrameId it hands out is below
  // this.
  [[nodiscard]] std::uint64_t size() const { return hot_.size(); }

  // Heap footprint of the slab arrays (snapshot-size accounting).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    return hot_.capacity() * sizeof(FrameHot) + touch_.capacity() * sizeof(std::uint64_t) +
           flags_.capacity() + key1_.capacity() * sizeof(std::uint64_t) +
           key2_.capacity() * sizeof(std::uint64_t) + free_.capacity() * sizeof(FrameId);
  }

  // Deep-copies another slab (machine snapshot/fork). FrameIds are plain
  // indices, so they stay valid across the copy — every FrameId-holding
  // structure (LRU lists, page tables, dirty chains) can be copied verbatim
  // alongside without translation.
  void CopyFrom(const FrameTable& other) {
    hot_ = other.hot_;
    touch_ = other.touch_;
    flags_ = other.flags_;
    key1_ = other.key1_;
    key2_ = other.key2_;
    free_ = other.free_;
  }

  // The free list's LIFO *order* is part of machine state: Allocate pops
  // the back, so a reordered free list hands out different FrameIds after
  // restore and diverges a bit-identical replay.
  [[nodiscard]] const std::vector<FrameId>& free_list() const { return free_; }

 private:
  friend struct Codec<FrameTable>;

  static constexpr std::uint8_t kKindAnon = 1u << 0;
  static constexpr std::uint8_t kDirty = 1u << 1;

  std::vector<FrameHot> hot_;          // links: touched by every list op
  std::vector<std::uint64_t> touch_;   // LRU sequence numbers
  std::vector<std::uint8_t> flags_;    // kind + dirty bits
  std::vector<std::uint64_t> key1_;    // cold identity
  std::vector<std::uint64_t> key2_;
  std::vector<FrameId> free_;
};

// Intrusive doubly-linked list over one prev/next id pair inside FrameHot.
// Holds only head/tail/size; every link lives in the slab, so membership
// changes are pure id stores. Instantiated once per link pair:
//   IntrusiveFrameList<&FrameHot::lru_prev, &FrameHot::lru_next>
template <FrameId FrameHot::*PrevM, FrameId FrameHot::*NextM>
class IntrusiveFrameList {
 public:
  [[nodiscard]] bool empty() const { return head_ == kNoFrame; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] FrameId front() const { return head_; }
  [[nodiscard]] FrameId back() const { return tail_; }

  [[nodiscard]] static FrameId Next(const FrameTable& t, FrameId id) {
    return t.hot(id).*NextM;
  }

  void PushBack(FrameTable& t, FrameId id) {
    FrameHot& f = t.hot(id);
    f.*PrevM = tail_;
    f.*NextM = kNoFrame;
    if (tail_ == kNoFrame) {
      head_ = id;
    } else {
      t.hot(tail_).*NextM = id;
    }
    tail_ = id;
    ++size_;
  }

  void Remove(FrameTable& t, FrameId id) {
    FrameHot& f = t.hot(id);
    const FrameId prev = f.*PrevM;
    const FrameId next = f.*NextM;
    if (prev == kNoFrame) {
      head_ = next;
    } else {
      t.hot(prev).*NextM = next;
    }
    if (next == kNoFrame) {
      tail_ = prev;
    } else {
      t.hot(next).*PrevM = prev;
    }
    f.*PrevM = kNoFrame;
    f.*NextM = kNoFrame;
    --size_;
  }

  // LRU refresh: unlink and re-append at the MRU end.
  void MoveToBack(FrameTable& t, FrameId id) {
    if (tail_ == id) {
      return;
    }
    Remove(t, id);
    PushBack(t, id);
  }

  void Clear() {
    head_ = tail_ = kNoFrame;
    size_ = 0;
  }

  // True when the list runs from head to tail through exactly size()
  // frames of `t`, each frame's back link naming the frame before it, and
  // `fn(id)` holds for each. A walk that met a frame twice would meet it
  // under two different back links, so a list that passes has no repeats,
  // and a corrupt one fails within t.size() + 1 steps.
  template <class Fn>
  [[nodiscard]] bool WalksExactly(const FrameTable& t, Fn&& fn) const {
    if (size_ > t.size()) {
      return false;
    }
    FrameId prev = kNoFrame;
    FrameId id = head_;
    for (std::uint64_t i = 0; i < size_; ++i) {
      if (id >= t.size() || t.hot(id).*PrevM != prev || !fn(id)) {
        return false;
      }
      prev = id;
      id = t.hot(id).*NextM;
    }
    return id == kNoFrame && prev == tail_;
  }

  // The checkpointed state: the links themselves live in the slab arrays
  // and are checkpointed with them; only this triple is list-local.
  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("head", s.head_);
    v("tail", s.tail_);
    v("size", s.size_);
  }

 private:
  FrameId head_ = kNoFrame;
  FrameId tail_ = kNoFrame;
  std::uint64_t size_ = 0;
};

using LruList = IntrusiveFrameList<&FrameHot::lru_prev, &FrameHot::lru_next>;
using DirtyList = IntrusiveFrameList<&FrameHot::dirty_prev, &FrameHot::dirty_next>;

// The slab's checkpoint encoding: the frame count, shared by the parallel
// arrays that follow it, then the free list in LIFO order. A read fails
// when a link or free-list entry names a frame past the count.
template <>
struct Codec<FrameTable> {
  static constexpr std::size_t kMinBytes = 16;  // the two counts

  static void Put(ByteWriter& w, const FrameTable& t) {
    w.U64(t.hot_.size());
    for (const FrameHot& h : t.hot_) {
      w.Put(h);
    }
    for (const std::uint64_t v : t.touch_) {
      w.U64(v);
    }
    for (const std::uint8_t v : t.flags_) {
      w.U8(v);
    }
    for (const std::uint64_t v : t.key1_) {
      w.U64(v);
    }
    for (const std::uint64_t v : t.key2_) {
      w.U64(v);
    }
    w.Put(t.free_);
  }

  static void Get(ByteReader& r, FrameTable& t) {
    // A frame is its links, a touch stamp, a flags byte and two key words.
    const std::size_t n = r.Count(graysim::kMinBytes<FrameHot> + 8 + 1 + 8 + 8);
    t.hot_.assign(n, FrameHot{});
    for (FrameHot& h : t.hot_) {
      r.Get(h);
    }
    t.touch_.resize(n);
    if (!r.U64s(t.touch_.data(), n)) {
      return;
    }
    const std::uint8_t* flags = r.Take(n);
    if (flags == nullptr) {
      return;
    }
    t.flags_.assign(flags, flags + n);
    t.key1_.resize(n);
    t.key2_.resize(n);
    if (!r.U64s(t.key1_.data(), n) || !r.U64s(t.key2_.data(), n)) {
      return;
    }
    r.Get(t.free_);
    // Every id the slab stores names one of its frames, or none.
    const auto out_of_range = [n](FrameId id) { return id != kNoFrame && id >= n; };
    for (const FrameHot& h : t.hot_) {
      if (out_of_range(h.lru_prev) || out_of_range(h.lru_next) || out_of_range(h.dirty_prev) ||
          out_of_range(h.dirty_next)) {
        r.Fail();
        return;
      }
    }
    for (const FrameId id : t.free_) {
      if (id >= n) {
        r.Fail();
        return;
      }
    }
  }
};

}  // namespace graysim

#endif  // SRC_MEM_FRAME_TABLE_H_
