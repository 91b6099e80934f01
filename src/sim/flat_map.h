// Open-addressed hash map from packed 64-bit keys, for the simulation's
// page-state tables.
//
// One cache line of linear probing replaces the node allocation plus pointer
// chase of std::unordered_map on every page lookup/insert/erase — the
// operations the page cache, the VM page tables, and the in-flight read map
// perform millions of times per simulated second. Erase uses backward-shift
// deletion (no tombstones), so probe sequences stay short regardless of
// churn, and steady-state operation performs zero heap allocations (growth
// is amortized doubling, eliminable entirely via Reserve).
//
// Keys are arbitrary 64-bit values except kEmptyKey (all ones), which no
// producer generates: page keys pack a 32-bit tagged inum over a 32-bit page
// index, virtual page numbers count up from 1, and ids count up from 0.
#ifndef SRC_SIM_FLAT_MAP_H_
#define SRC_SIM_FLAT_MAP_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/sim/byte_io.h"

namespace graysim {

template <typename V>
class FlatMap {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Heap footprint of the slot array (snapshot-size accounting).
  [[nodiscard]] std::size_t capacity_bytes() const { return slots_.size() * sizeof(Slot); }

  // Pre-sizes the table for `n` entries so no insert up to that count ever
  // rehashes (the zero-allocation steady state). Sized to keep the load
  // factor at or under 1/2: reserved maps sit on the miss-heavy
  // insert/erase path (page-cache evict cycles probe the table three times
  // per recycled page), and linear probing with backward-shift deletion
  // degrades quickly past half full.
  void Reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < n * 2) {
      cap *= 2;
    }
    if (cap > slots_.size()) {
      Rehash(cap);
    }
  }

  // Slot index holding `key`, or slot_count() when absent.
  [[nodiscard]] std::size_t SlotOf(std::uint64_t key) const {
    assert(key != kEmptyKey);
    if (slots_.empty()) {
      return 0;
    }
    std::size_t i = Hash(key) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == key) {
        return i;
      }
      if (s.key == kEmptyKey) {
        return slots_.size();
      }
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] V* Find(std::uint64_t key) {
    const std::size_t i = SlotOf(key);
    return i == slots_.size() ? nullptr : &slots_[i].value;
  }

  [[nodiscard]] const V* Find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  [[nodiscard]] bool Contains(std::uint64_t key) const { return Find(key) != nullptr; }

  // Returns the value for `key`, default-constructing it if absent.
  V& operator[](std::uint64_t key) {
    assert(key != kEmptyKey);
    MaybeGrow();
    std::size_t i = Hash(key) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        return s.value;
      }
      if (s.key == kEmptyKey) {
        s.key = key;
        s.value = V{};
        ++size_;
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts (key -> value); overwrites an existing entry.
  void Put(std::uint64_t key, V value) { (*this)[key] = std::move(value); }

  // Removes `key`; returns false when absent.
  bool Erase(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (slots_.empty()) {
      return false;
    }
    std::size_t i = Hash(key) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        EraseAt(i);
        return true;
      }
      if (s.key == kEmptyKey) {
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

  // Calls fn(key, value&) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        fn(s.key, s.value);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        fn(s.key, s.value);
      }
    }
  }

  // Erases every entry for which pred(key, value&) returns true. Because
  // backward-shift deletion can cyclically re-home surviving entries, pred
  // may be evaluated more than once for an entry it declines — it must be a
  // pure predicate over (key, value).
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    EraseIfIn(0, slots_.size(), pred);
  }

  // EraseIf restricted to the entries it could erase: `slots` must list, in
  // ascending order, the slot of every entry pred accepts (it may list
  // others). Runs EraseIf's own loop from each listed slot to the end of
  // its run of occupied slots, skipping slots that an earlier run already
  // covered, so pred sees the same entries in the same order and the table
  // ends in the same layout as a whole-table EraseIf. Why that holds:
  //  * backward-shift deletion only moves entries toward the hole, inside
  //    the probe cluster (the cyclic run of occupied slots) that holds it,
  //    so clusters never exchange entries and erasing only splits them;
  //  * EraseIf's scan is linear, so a cluster that wraps past the last slot
  //    is two runs to it: the head (from slot 0) scanned first, the tail
  //    last, and a tail deletion may pull head entries back past the end —
  //    entries pred already declined — exactly as here;
  //  * within a run, slots before the first listed one hold entries pred
  //    declines and nothing moves into them, since holes open only at or
  //    past the scan position.
  template <typename Pred>
  void EraseIfInClusters(std::span<const std::size_t> slots, Pred&& pred) {
    std::size_t covered = 0;  // one past the end of the last run scanned
    for (const std::size_t first : slots) {
      if (first < covered) {
        continue;
      }
      covered = first + 1;
      while (covered < slots_.size() && slots_[covered].key != kEmptyKey) {
        ++covered;
      }
      EraseIfIn(first, covered, pred);
    }
  }

  void Clear() {
    for (Slot& s : slots_) {
      s.key = kEmptyKey;
      s.value = V{};
    }
    size_ = 0;
  }

  // Clear that visits only the entries: calls fn(key, value&) for each one
  // in ascending slot order (ForEach's order), emptying its slot. `marked`
  // holds one bit per slot, bit i % 64 of word i / 64, set for exactly the
  // occupied slots; it is left all clear. Costs the words of `marked` plus
  // the entries, not the slots.
  template <typename Fn>
  void ClearMarked(std::span<std::uint64_t> marked, Fn&& fn) {
    for (std::size_t w = 0; w < marked.size(); ++w) {
      for (std::uint64_t bits = marked[w]; bits != 0; bits &= bits - 1) {
        Slot& s = slots_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        assert(s.key != kEmptyKey);
        fn(s.key, s.value);
        s.key = kEmptyKey;
        s.value = V{};
        --size_;
      }
      marked[w] = 0;
    }
    assert(size_ == 0 && "ClearMarked: an occupied slot was not marked");
  }

  // --- checkpoint surface -------------------------------------------------
  // A durable checkpoint stores the raw slot array, not a logical set of
  // entries: ForEach order is layout order, layout depends on insertion
  // history, and a map rebuilt by reinsertion could legally iterate in a
  // different order — enough to diverge a bit-identical replay.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t slot_key(std::size_t i) const { return slots_[i].key; }
  [[nodiscard]] const V& slot_value(std::size_t i) const { return slots_[i].value; }

  // Resets to an empty table of exactly `capacity` slots (0, or a power of
  // two >= kMinCapacity); follow with RestoreRawSlot for each live slot.
  void RestoreRawLayout(std::size_t capacity) {
    assert(capacity == 0 ||
           (capacity >= kMinCapacity && (capacity & (capacity - 1)) == 0));
    slots_.assign(capacity, Slot{});
    mask_ = capacity == 0 ? 0 : capacity - 1;
    size_ = 0;
  }

  void RestoreRawSlot(std::size_t i, std::uint64_t key, V value) {
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    if (key != kEmptyKey) {
      ++size_;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  // splitmix64 finalizer: full-avalanche mix of the packed key.
  [[nodiscard]] static std::size_t Hash(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  // EraseIf's loop over slots [begin, end).
  template <typename Pred>
  void EraseIfIn(std::size_t begin, std::size_t end, Pred& pred) {
    for (std::size_t i = begin; i < end;) {
      Slot& s = slots_[i];
      if (s.key != kEmptyKey && pred(s.key, s.value)) {
        EraseAt(i);  // re-examine slot i: deletion may shift an entry into it
      } else {
        ++i;
      }
    }
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {  // load factor 3/4
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) {
        continue;
      }
      std::size_t i = Hash(s.key) & mask_;
      while (slots_[i].key != kEmptyKey) {
        i = (i + 1) & mask_;
      }
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
    }
  }

  // Backward-shift deletion: close the hole at `i` by walking the probe
  // chain and pulling back any entry whose ideal slot lies at or before the
  // hole, preserving lookup invariants without tombstones.
  void EraseAt(std::size_t i) {
    --size_;
    std::size_t j = i;
    while (true) {
      slots_[i].key = kEmptyKey;
      slots_[i].value = V{};
      while (true) {
        j = (j + 1) & mask_;
        if (slots_[j].key == kEmptyKey) {
          return;
        }
        // If the entry's ideal position lies cyclically within (i, j], it
        // already sits at or after its home and must not move back past it.
        const std::size_t ideal = Hash(slots_[j].key) & mask_;
        const bool reachable =
            i <= j ? (ideal > i && ideal <= j) : (ideal > i || ideal <= j);
        if (!reachable) {
          break;
        }
      }
      slots_[i].key = slots_[j].key;
      slots_[i].value = std::move(slots_[j].value);
      i = j;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// The checkpoint encoding of the exact layout: the slot count, the live
// count, then per live slot its index, key and value.
template <typename V>
struct Codec<FlatMap<V>> {
  static constexpr std::size_t kMinBytes = 16;  // the two counts

  static void Put(ByteWriter& w, const FlatMap<V>& m) {
    w.U64(m.slot_count());
    w.U64(m.size());
    for (std::size_t i = 0; i < m.slot_count(); ++i) {
      if (m.slot_key(i) != FlatMap<V>::kEmptyKey) {
        w.U64(i);
        w.U64(m.slot_key(i));
        w.Put(m.slot_value(i));
      }
    }
  }

  static void Get(ByteReader& r, FlatMap<V>& m) {
    const std::uint64_t cap = r.U64();
    // A power of two (or empty), bounded well past any real machine (2^28
    // slots ≈ 4 GB of page keys) so a corrupt count cannot exhaust memory,
    // with an empty slot left: a lookup that misses probes until it meets
    // one, so a full table would never answer it.
    const std::uint64_t live = r.Count(16 + graysim::kMinBytes<V>);
    if (!r.ok() || cap > (1ULL << 28) || (cap & (cap - 1)) != 0 || (live != 0 && live >= cap)) {
      r.Fail();
      return;
    }
    m.RestoreRawLayout(static_cast<std::size_t>(cap));
    for (std::uint64_t n = 0; n < live; ++n) {
      const std::uint64_t i = r.U64();
      const std::uint64_t key = r.U64();
      V value{};
      r.Get(value);
      if (!r.ok() || i >= cap || key == FlatMap<V>::kEmptyKey) {
        r.Fail();
        return;
      }
      m.RestoreRawSlot(static_cast<std::size_t>(i), key, std::move(value));
    }
  }
};

}  // namespace graysim

#endif  // SRC_SIM_FLAT_MAP_H_
