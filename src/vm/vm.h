// Virtual memory: per-process anonymous regions, demand zero-fill, swap.
//
// Semantics MAC depends on (paper §4.3.1):
//  * reading an unallocated page hits the copy-on-write zero page and does
//    NOT allocate a frame — probes must *write*;
//  * the first write allocates and zero-fills a frame (medium cost);
//  * a write to a swapped-out page pays a swap-in disk read (slow);
//  * frames come from the shared MemSystem pool, so anonymous demand
//    competes with the file cache exactly as in a unified VM system.
//
// Hot-path layout: process spaces live in a vector indexed by pid (pids are
// small and densely assigned by the Os), and because vpages are handed out
// sequentially per process, the page table is a dense vector indexed by
// vpage — the touch path, the single most frequent operation in MAC's probe
// loops, is two array indexes and no hashing at all. Areas are a short
// inline list (processes map a handful of regions) searched linearly.
#ifndef SRC_VM_VM_H_
#define SRC_VM_VM_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/mem/mem_system.h"
#include "src/sim/clock.h"

namespace graysim {

using Pid = std::uint32_t;
using VmAreaId = std::uint64_t;

enum class TouchOutcome : std::uint8_t {
  kResident,   // already mapped: fast
  kZeroFill,   // first write: frame allocated and zeroed
  kZeroRead,   // read of unallocated page: COW zero page, no allocation
  kSwapIn,     // page was swapped out: disk read required
  kDenied,     // no frame could be obtained (pool exhausted and nothing
               // evictable)
};

struct VmTouchResult {
  TouchOutcome outcome = TouchOutcome::kResident;
  Nanos evict_cost = 0;          // writeback/swap-out I/O triggered by reclaim
  std::uint64_t swap_slot = 0;   // valid when outcome == kSwapIn
};

class Vm {
 public:
  explicit Vm(MemSystem* mem) : mem_(mem) {}

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // Reserves `pages` of address space; no frames are allocated yet.
  [[nodiscard]] VmAreaId Alloc(Pid pid, std::uint64_t pages);

  // Releases the region, freeing resident frames and swap slots.
  void Free(Pid pid, VmAreaId area);

  // Touches page `index` within `area`. The Os layer translates the outcome
  // into time.
  [[nodiscard]] VmTouchResult Touch(Pid pid, VmAreaId area, std::uint64_t index, bool write);

  // Eviction callback: assigns a swap slot and unmaps. Returns the slot so
  // the Os can charge the swap-out write.
  std::uint64_t OnEvicted(const Page& page);

  [[nodiscard]] std::uint64_t ResidentPages(Pid pid) const;
  [[nodiscard]] std::uint64_t AreaPages(Pid pid, VmAreaId area) const;
  [[nodiscard]] bool PageResident(Pid pid, VmAreaId area, std::uint64_t index) const;

  // Releases everything belonging to a process (exit).
  void ReleaseProcess(Pid pid);

  // Copies another Vm's simulation state (machine snapshot/fork): page
  // tables, area lists, and swap-slot accounting. The PTE frame ids refer
  // into the MemSystem slab, which the owner copies alongside; mem_ stays
  // bound to this Vm's own MemSystem.
  void CopyStateFrom(const Vm& other) {
    spaces_ = other.spaces_;
    next_area_ = other.next_area_;
    next_swap_slot_ = other.next_swap_slot_;
    free_swap_slots_ = other.free_swap_slots_;
  }

  // Heap footprint of the page tables (snapshot-size accounting).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    std::uint64_t bytes = sizeof(Vm) + free_swap_slots_.capacity() * sizeof(std::uint64_t);
    for (const ProcessSpace& s : spaces_) {
      bytes += s.areas.capacity() * sizeof(Area) + s.table.capacity() * sizeof(Pte);
    }
    return bytes;
  }

  // The checkpointed state (machine_image_io). PTEs are written as their
  // raw packed 64-bit form; the frame ids inside refer into the MemSystem
  // slab checkpointed alongside.
  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("spaces", s.spaces_);
    v("next_area", s.next_area_);
    v("next_swap_slot", s.next_swap_slot_);
    v("free_swap_slots", s.free_swap_slots_);
  }

  // False when decoded page tables disagree with the MemSystem's frames or
  // with their own areas (ByteReader::Get rejects such a checkpoint): each
  // anonymous LRU frame must be named by the resident PTE of the (pid,
  // vpage) it records, with no other PTE resident, and each space's areas
  // must lie inside its table, which is as long as its next vpage.
  [[nodiscard]] bool Consistent() const;

 private:
  enum class PteState : std::uint8_t { kUnmapped, kResident, kSwapped };

  // Packed to 8 bytes — [63:62] state, [61:32] swap slot, [31:0] frame id —
  // so a page-table cache line covers 8 entries; the touch path reads
  // exactly one line per access. 2^30 swap slots bounds the swap device at
  // 4 TB of 4 KB slots, far beyond any simulated machine.
  class Pte {
   public:
    [[nodiscard]] PteState state() const { return static_cast<PteState>(bits_ >> 62); }
    [[nodiscard]] MemSystem::PageRef ref() const {
      return static_cast<MemSystem::PageRef>(bits_ & 0xFFFFFFFFULL);
    }
    [[nodiscard]] std::uint64_t swap_slot() const { return (bits_ >> 32) & kSlotMask; }

    void SetResident(MemSystem::PageRef ref) {
      bits_ = (static_cast<std::uint64_t>(PteState::kResident) << 62) | ref;
    }
    void SetSwapped(std::uint64_t slot) {
      assert(slot <= kSlotMask);
      bits_ = (static_cast<std::uint64_t>(PteState::kSwapped) << 62) | (slot << 32);
    }

    // Checkpoint form: the packed word itself (state/slot/frame in one).
    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("bits", s.bits_);
    }

   private:
    static constexpr std::uint64_t kSlotMask = (1ULL << 30) - 1;
    std::uint64_t bits_ = 0;  // kUnmapped == 0: fresh entries are unmapped
  };

  struct Area {
    VmAreaId id = 0;
    std::uint64_t base_vpage = 0;
    std::uint64_t pages = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("id", s.id);
      v("base_vpage", s.base_vpage);
      v("pages", s.pages);
    }
  };

  struct ProcessSpace {
    std::uint64_t next_vpage = 1;
    std::vector<Area> areas;  // short; searched linearly by id
    std::vector<Pte> table;   // dense, indexed by vpage; sized by Alloc
    // Last-hit index into areas. Touch streams hammer one area at a time
    // (probe loops walk a chunk page by page), so this turns the per-touch
    // area lookup into one compare. Validated before use — a stale hint
    // after Free just falls back to the scan. Derived state: not
    // checkpointed, never affects results.
    std::size_t mru_area = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("next_vpage", s.next_vpage);
      v("areas", s.areas);
      v("table", s.table);
    }
  };

  // Grows the space vector on first touch of a pid (matching the previous
  // create-on-use map semantics).
  [[nodiscard]] ProcessSpace& SpaceFor(Pid pid) {
    if (pid >= spaces_.size()) {
      spaces_.resize(pid + 1);
    }
    return spaces_[pid];
  }
  [[nodiscard]] const ProcessSpace* FindSpace(Pid pid) const {
    return pid < spaces_.size() ? &spaces_[pid] : nullptr;
  }

  [[nodiscard]] static const Area* FindArea(const ProcessSpace& space, VmAreaId id) {
    for (const Area& a : space.areas) {
      if (a.id == id) {
        return &a;
      }
    }
    return nullptr;
  }
  // Hot-path variant: remembers the hit so the next lookup of the same
  // area (the overwhelmingly common case in touch loops) is one compare.
  [[nodiscard]] static const Area* FindArea(ProcessSpace& space, VmAreaId id) {
    if (space.mru_area < space.areas.size() && space.areas[space.mru_area].id == id) {
      return &space.areas[space.mru_area];
    }
    for (std::size_t i = 0; i < space.areas.size(); ++i) {
      if (space.areas[i].id == id) {
        space.mru_area = i;
        return &space.areas[i];
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t AllocSwapSlot();
  void FreeSwapSlot(std::uint64_t slot);

  MemSystem* mem_;
  std::vector<ProcessSpace> spaces_;  // indexed by pid
  VmAreaId next_area_ = 1;
  std::uint64_t next_swap_slot_ = 0;
  std::vector<std::uint64_t> free_swap_slots_;
};

}  // namespace graysim

#endif  // SRC_VM_VM_H_
