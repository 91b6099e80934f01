#include "src/mem/mem_system.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace graysim {

MemSystem::MemSystem(Config config) : config_(config) {
  assert(config_.total_pages > 0);
  if (config_.policy == MemPolicy::kPartitionedFixedFile) {
    assert(config_.file_cache_pages > 0);
    assert(config_.file_cache_pages < config_.total_pages);
  }
  // The slab can never exceed the physical pool: Insert evicts or denies
  // first. Reserving it up front makes Allocate allocation-free forever.
  frames_.Reserve(config_.total_pages);
}

LruList* MemSystem::GlobalLruList() {
  if (file_lru_.empty() && anon_lru_.empty()) {
    return nullptr;
  }
  if (file_lru_.empty()) {
    return &anon_lru_;
  }
  if (anon_lru_.empty()) {
    return &file_lru_;
  }
  return frames_.last_touch(file_lru_.front()) <= frames_.last_touch(anon_lru_.front())
             ? &file_lru_
             : &anon_lru_;
}

bool MemSystem::EvictOne(PageKind incoming, Nanos* evict_cost) {
  LruList* victim_list = nullptr;
  switch (config_.policy) {
    case MemPolicy::kUnifiedLru: {
      // Prefer reclaiming file pages while the file cache holds a
      // meaningful share of memory; below that, fall back to global LRU
      // (which starts swapping anonymous memory under overcommit).
      const std::uint64_t min_file = config_.total_pages / kMinFileShareDivisor;
      if (file_pages_ >= min_file && !file_lru_.empty()) {
        victim_list = &file_lru_;
      } else {
        victim_list = GlobalLruList();
      }
      break;
    }
    case MemPolicy::kPartitionedFixedFile:
      // Each partition reclaims from itself.
      victim_list = incoming == PageKind::kFile ? &file_lru_ : &anon_lru_;
      break;
    case MemPolicy::kStickyFile:
      if (incoming == PageKind::kFile) {
        // New file pages never displace anything.
        return false;
      }
      // Anonymous demand reclaims file pages first, then old anon pages.
      victim_list = !file_lru_.empty() ? &file_lru_ : &anon_lru_;
      break;
  }
  if (victim_list == nullptr || victim_list->empty()) {
    return false;
  }
  FrameId victim = victim_list->front();
  if (victim_list == &file_lru_ && frames_.dirty(victim)) {
    // Prefer a clean file page among the oldest few: reclaiming a dirty
    // page forces a synchronous single-page writeback, which kernels avoid
    // while clean pages are available (the write-behind flusher handles
    // dirty data in coalesced batches).
    FrameId scan = victim;
    for (int k = 0; k < 64 && scan != kNoFrame; ++k, scan = LruList::Next(frames_, scan)) {
      if (!frames_.dirty(scan)) {
        victim = scan;
        break;
      }
    }
  }
  // Copy out before the handler runs: it unlinks the page from its owner
  // (cache map / pte) and must see stable contents.
  const Page victim_page = frames_.PageOf(victim);
  if (evict_handler_ != nullptr) {
    *evict_cost += evict_handler_->OnEvict(victim_page);
  }
  ++stats_.evictions;
  if (victim_page.kind == PageKind::kFile) {
    ++stats_.file_evictions;
    --file_pages_;
  } else {
    ++stats_.anon_evictions;
    --anon_pages_;
  }
  victim_list->Remove(frames_, victim);
  frames_.Release(victim);
  return true;
}

MemSystem::PageRef MemSystem::Insert(Page page, Nanos* evict_cost) {
  assert(evict_cost != nullptr);
  const PageKind kind = page.kind;

  // Determine whether this insert needs a reclaim under the active policy.
  auto needs_eviction = [&]() -> bool {
    switch (config_.policy) {
      case MemPolicy::kUnifiedLru:
      case MemPolicy::kStickyFile:
        return used_pages() >= config_.total_pages;
      case MemPolicy::kPartitionedFixedFile:
        if (kind == PageKind::kFile) {
          return file_pages_ >= config_.file_cache_pages;
        }
        return anon_pages_ >= config_.total_pages - config_.file_cache_pages;
    }
    return false;
  };

  while (needs_eviction()) {
    if (!EvictOne(kind, evict_cost)) {
      ++stats_.admissions_denied;
      return kNoFrame;
    }
  }

  page.last_touch = ++touch_seq_;
  const FrameId id = frames_.Allocate();
  frames_.SetPage(id, page);
  ListFor(kind).PushBack(frames_, id);
  if (kind == PageKind::kFile) {
    ++file_pages_;
  } else {
    ++anon_pages_;
  }
  return id;
}

void MemSystem::Touch(PageRef ref) {
  frames_.set_last_touch(ref, ++touch_seq_);
  ListFor(frames_.kind(ref)).MoveToBack(frames_, ref);
}

void MemSystem::Remove(PageRef ref) {
  const PageKind kind = frames_.kind(ref);
  if (kind == PageKind::kFile) {
    --file_pages_;
  } else {
    --anon_pages_;
  }
  ListFor(kind).Remove(frames_, ref);
  frames_.Release(ref);
}

bool MemSystem::EvictCleanFileOne() {
  if (file_lru_.empty()) {
    return false;
  }
  if (config_.policy == MemPolicy::kUnifiedLru &&
      file_pages_ < config_.total_pages / kMinFileShareDivisor) {
    // Below the protected file share the policy victim would be anonymous
    // memory; that reclaim is never free.
    return false;
  }
  FrameId victim = kNoFrame;
  FrameId scan = file_lru_.front();
  for (int k = 0; k < 64 && scan != kNoFrame; ++k, scan = LruList::Next(frames_, scan)) {
    if (!frames_.dirty(scan)) {
      victim = scan;
      break;
    }
  }
  if (victim == kNoFrame) {
    return false;  // oldest pages are all dirty: wait for the flusher
  }
  const Page victim_page = frames_.PageOf(victim);
  if (evict_handler_ != nullptr) {
    (void)evict_handler_->OnEvict(victim_page);  // clean: no I/O cost
  }
  ++stats_.evictions;
  ++stats_.file_evictions;
  --file_pages_;
  file_lru_.Remove(frames_, victim);
  frames_.Release(victim);
  return true;
}

std::uint64_t MemSystem::ReclaimToFree(std::uint64_t target_free, std::uint64_t max_pages) {
  std::uint64_t evicted = 0;
  while (evicted < max_pages && free_pages() < target_free) {
    if (!EvictCleanFileOne()) {
      break;
    }
    ++evicted;
  }
  return evicted;
}

Nanos MemSystem::Reclaim(std::uint64_t n) {
  Nanos cost = 0;
  for (std::uint64_t i = 0; i < n && used_pages() > 0; ++i) {
    if (!EvictOne(PageKind::kAnon, &cost)) {
      break;
    }
  }
  return cost;
}

bool MemSystem::Consistent() const {
  const std::uint64_t n = frames_.size();
  if (n > config_.total_pages || file_pages_ != file_lru_.size() ||
      anon_pages_ != anon_lru_.size()) {
    return false;
  }
  // Marking each frame as the lists and the free list are walked proves no
  // frame is on two of them; their sizes adding up to n then put every
  // frame on one.
  std::vector<std::uint64_t> seen((n + 63) / 64);
  const auto first_visit = [&seen](FrameId id) {
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((seen[id / 64] & bit) != 0) {
      return false;
    }
    seen[id / 64] |= bit;
    return true;
  };
  const auto of_kind = [&](PageKind kind) {
    return [&, kind](FrameId id) { return frames_.kind(id) == kind && first_visit(id); };
  };
  const std::vector<FrameId>& free = frames_.free_list();
  return file_lru_.WalksExactly(frames_, of_kind(PageKind::kFile)) &&
         anon_lru_.WalksExactly(frames_, of_kind(PageKind::kAnon)) &&
         std::all_of(free.begin(), free.end(), first_visit) &&
         file_pages_ + anon_pages_ + free.size() == n;
}

}  // namespace graysim
