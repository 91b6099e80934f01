#include "src/vm/vm.h"

#include <algorithm>
#include <cassert>

namespace graysim {

VmAreaId Vm::Alloc(Pid pid, std::uint64_t pages) {
  ProcessSpace& space = SpaceFor(pid);
  const VmAreaId id = next_area_++;
  space.areas.push_back(Area{id, space.next_vpage, pages});
  space.next_vpage += pages;
  space.table.resize(space.next_vpage);
  return id;
}

void Vm::Free(Pid pid, VmAreaId area_id) {
  ProcessSpace& space = SpaceFor(pid);
  const Area* area_ptr = FindArea(space, area_id);
  assert(area_ptr != nullptr);
  const Area area = *area_ptr;
  for (std::uint64_t i = 0; i < area.pages; ++i) {
    Pte& pte = space.table[area.base_vpage + i];
    if (pte.state() == PteState::kResident) {
      mem_->Remove(pte.ref());
    } else if (pte.state() == PteState::kSwapped) {
      FreeSwapSlot(pte.swap_slot());
    }
    pte = Pte{};
  }
  space.areas.erase(
      std::find_if(space.areas.begin(), space.areas.end(),
                   [area_id](const Area& a) { return a.id == area_id; }));
}

VmTouchResult Vm::Touch(Pid pid, VmAreaId area_id, std::uint64_t index, bool write) {
  ProcessSpace& space = SpaceFor(pid);
  const Area* area = FindArea(space, area_id);
  assert(area != nullptr);
  assert(index < area->pages);
  const std::uint64_t vpage = area->base_vpage + index;

  VmTouchResult result;
  Pte& pte = space.table[vpage];
  switch (pte.state()) {
    case PteState::kResident:
      mem_->Touch(pte.ref());
      result.outcome = TouchOutcome::kResident;
      return result;
    case PteState::kUnmapped: {
      if (!write) {
        // Copy-on-write zero page: no frame allocated.
        result.outcome = TouchOutcome::kZeroRead;
        return result;
      }
      const FrameId ref =
          mem_->Insert(Page{PageKind::kAnon, pid, vpage, /*dirty=*/true}, &result.evict_cost);
      if (ref == kNoFrame) {
        result.outcome = TouchOutcome::kDenied;
        return result;
      }
      pte.SetResident(ref);
      result.outcome = TouchOutcome::kZeroFill;
      return result;
    }
    case PteState::kSwapped: {
      const std::uint64_t slot = pte.swap_slot();
      const FrameId ref =
          mem_->Insert(Page{PageKind::kAnon, pid, vpage, /*dirty=*/true}, &result.evict_cost);
      if (ref == kNoFrame) {
        result.outcome = TouchOutcome::kDenied;
        return result;
      }
      FreeSwapSlot(slot);
      pte.SetResident(ref);
      result.outcome = TouchOutcome::kSwapIn;
      result.swap_slot = slot;
      return result;
    }
  }
  return result;
}

std::uint64_t Vm::OnEvicted(const Page& page) {
  const Pid pid = static_cast<Pid>(page.key1);
  const std::uint64_t vpage = page.key2;
  assert(pid < spaces_.size() && vpage < spaces_[pid].table.size());
  Pte& pte = spaces_[pid].table[vpage];
  assert(pte.state() == PteState::kResident);
  const std::uint64_t slot = AllocSwapSlot();
  pte.SetSwapped(slot);
  return slot;
}

std::uint64_t Vm::ResidentPages(Pid pid) const {
  const ProcessSpace* space = FindSpace(pid);
  if (space == nullptr) {
    return 0;
  }
  std::uint64_t n = 0;
  for (const Pte& pte : space->table) {
    if (pte.state() == PteState::kResident) {
      ++n;
    }
  }
  return n;
}

std::uint64_t Vm::AreaPages(Pid pid, VmAreaId area) const {
  const ProcessSpace* space = FindSpace(pid);
  if (space == nullptr) {
    return 0;
  }
  const Area* a = FindArea(*space, area);
  return a == nullptr ? 0 : a->pages;
}

bool Vm::PageResident(Pid pid, VmAreaId area, std::uint64_t index) const {
  const ProcessSpace* space = FindSpace(pid);
  if (space == nullptr) {
    return false;
  }
  const Area* a = FindArea(*space, area);
  if (a == nullptr) {
    return false;
  }
  const Pte& pte = space->table[a->base_vpage + index];
  return pte.state() == PteState::kResident;
}

void Vm::ReleaseProcess(Pid pid) {
  if (pid >= spaces_.size()) {
    return;
  }
  ProcessSpace& space = spaces_[pid];
  // Walk the table in vpage order: frame releases and swap-slot frees happen
  // in a fixed order regardless of how the pages were faulted in.
  for (const Pte& pte : space.table) {
    if (pte.state() == PteState::kResident) {
      mem_->Remove(pte.ref());
    } else if (pte.state() == PteState::kSwapped) {
      FreeSwapSlot(pte.swap_slot());
    }
  }
  space = ProcessSpace{};
}

bool Vm::Consistent() const {
  std::uint64_t resident = 0;
  for (const ProcessSpace& space : spaces_) {
    // A space is fresh (next_vpage 1, nothing mapped) or sized by Alloc.
    const std::uint64_t vpages = space.table.size();
    if (vpages != space.next_vpage && (vpages != 0 || space.next_vpage != 1)) {
      return false;
    }
    for (const Area& area : space.areas) {
      if (area.pages > vpages || area.base_vpage > vpages - area.pages) {
        return false;
      }
    }
    for (const Pte& pte : space.table) {
      resident += pte.state() == PteState::kResident ? 1 : 0;
    }
  }
  const FrameTable& frames = mem_->frames();
  const auto named_by_its_pte = [&](FrameId f) {
    const std::uint64_t pid = frames.key1(f);
    const std::uint64_t vpage = frames.key2(f);
    if (pid >= spaces_.size() || vpage >= spaces_[pid].table.size()) {
      return false;
    }
    const Pte& pte = spaces_[pid].table[vpage];
    return pte.state() == PteState::kResident && pte.ref() == f;
  };
  // Each frame names one PTE and each PTE one frame, so with the counts
  // equal the resident PTEs are exactly the list's frames.
  return resident == mem_->anon_lru().size() &&
         mem_->anon_lru().WalksExactly(frames, named_by_its_pte);
}

std::uint64_t Vm::AllocSwapSlot() {
  if (!free_swap_slots_.empty()) {
    const std::uint64_t slot = free_swap_slots_.back();
    free_swap_slots_.pop_back();
    return slot;
  }
  return next_swap_slot_++;
}

void Vm::FreeSwapSlot(std::uint64_t slot) { free_swap_slots_.push_back(slot); }

}  // namespace graysim
