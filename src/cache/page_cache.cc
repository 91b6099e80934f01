#include "src/cache/page_cache.h"

#include <algorithm>
#include <cassert>

namespace graysim {

bool PageCache::Access(Inum inum, std::uint64_t page) {
  FrameId* ref = pages_.Find(Key(inum, page));
  if (ref == nullptr) {
    return false;
  }
  mem_->Touch(*ref);
  return true;
}

bool PageCache::Insert(Inum inum, std::uint64_t page, bool dirty, Nanos* evict_cost) {
  const std::uint64_t key = Key(inum, page);
  if (FrameId* ref = pages_.Find(key); ref != nullptr) {
    mem_->Touch(*ref);
    if (dirty) {
      MarkDirty(inum, page);
    }
    return true;
  }
  const FrameId ref =
      mem_->Insert(Page{PageKind::kFile, inum, page, dirty}, evict_cost);
  if (ref == kNoFrame) {
    return false;  // admission denied (sticky policy)
  }
  if (dirty) {
    dirty_order_.PushBack(mem_->frames(), ref);
  }
  pages_.Put(key, ref);
  FileState& file = files_[inum];
  ++file.pages;
  file.page_span = std::max(file.page_span, page + 1);
  return true;
}

void PageCache::MarkDirty(Inum inum, std::uint64_t page) {
  FrameId* ref = pages_.Find(Key(inum, page));
  assert(ref != nullptr);
  if (!mem_->frames().dirty(*ref)) {
    mem_->MarkDirty(*ref);
    dirty_order_.PushBack(mem_->frames(), *ref);
  }
}

void PageCache::ClearDirty(FrameId frame) {
  if (mem_->frames().dirty(frame)) {
    dirty_order_.Remove(mem_->frames(), frame);
    mem_->MarkClean(frame);
  }
}

bool PageCache::OnEvicted(const Page& page) {
  const Inum inum = static_cast<Inum>(page.key1);
  const std::uint64_t key = Key(inum, page.key2);
  FrameId* ref = pages_.Find(key);
  assert(ref != nullptr);
  const bool was_dirty = page.dirty;
  if (was_dirty) {
    // The frame is still live here (MemSystem releases it after the
    // handler returns), so its dirty links are intact.
    dirty_order_.Remove(mem_->frames(), *ref);
  }
  FileState* file = files_.Find(inum);
  assert(file != nullptr);
  if (--file->pages == 0) {
    files_.Erase(inum);
  }
  pages_.Erase(key);
  return was_dirty;
}

void PageCache::CollectFileSlots(Inum inum, std::uint64_t first_page,
                                 std::uint64_t page_span) {
  drop_slots_.clear();
  const std::size_t slots = pages_.slot_count();
  if (page_span - first_page <= slots) {
    for (std::uint64_t page = first_page; page < page_span; ++page) {
      if (const std::size_t slot = pages_.SlotOf(Key(inum, page)); slot < slots) {
        drop_slots_.push_back(slot);
      }
    }
    std::sort(drop_slots_.begin(), drop_slots_.end());
    return;
  }
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::uint64_t key = pages_.slot_key(slot);
    if (key != FlatMap<FrameId>::kEmptyKey && KeyInum(key) == inum &&
        KeyPage(key) >= first_page) {
      drop_slots_.push_back(slot);
    }
  }
}

void PageCache::DropFile(Inum inum) {
  const FileState* file = files_.Find(inum);
  if (file == nullptr) {
    return;  // nothing resident
  }
  CollectFileSlots(inum, 0, file->page_span);
  pages_.EraseIfInClusters(drop_slots_, [&](std::uint64_t key, FrameId ref) {
    if (KeyInum(key) != inum) {
      return false;
    }
    ClearDirty(ref);
    mem_->Remove(ref);
    return true;
  });
  files_.Erase(inum);
}

void PageCache::DropFilePagesFrom(Inum inum, std::uint64_t first_page) {
  FileState* file = files_.Find(inum);
  if (file == nullptr || file->page_span <= first_page) {
    return;  // nothing resident at or past first_page
  }
  CollectFileSlots(inum, first_page, file->page_span);
  // Every remaining page lies below first_page. Set before the erase loop,
  // which may drop the file's record when its last page goes.
  file->page_span = first_page;
  pages_.EraseIfInClusters(drop_slots_, [&](std::uint64_t key, FrameId ref) {
    if (KeyInum(key) != inum || KeyPage(key) < first_page) {
      return false;
    }
    ClearDirty(ref);
    mem_->Remove(ref);
    FileState* owner = files_.Find(inum);
    if (--owner->pages == 0) {
      files_.Erase(inum);
    }
    return true;
  });
}

bool PageCache::Consistent() const {
  const FrameTable& frames = mem_->frames();
  // True when frame `f` is in the table under the key its identity packs
  // to. An identity that does not pack (a word past 32 bits, or the empty
  // key) is in no table.
  const auto in_table = [&](FrameId f) {
    const std::uint64_t inum = frames.key1(f);
    const std::uint64_t page = frames.key2(f);
    if ((inum >> 32) != 0 || (page >> 32) != 0) {
      return false;
    }
    const std::uint64_t key = Key(static_cast<Inum>(inum), page);
    const FrameId* ref = key == FlatMap<FrameId>::kEmptyKey ? nullptr : pages_.Find(key);
    return ref != nullptr && *ref == f;
  };
  std::uint64_t dirty = 0;
  const auto resident = [&](FrameId f) {
    dirty += frames.dirty(f) ? 1 : 0;
    return in_table(f);
  };
  const auto dirty_and_resident = [&](FrameId f) { return frames.dirty(f) && in_table(f); };
  // Distinct frames have distinct keys here, so a table no larger than the
  // file LRU holds nothing else, and a chain of the dirty count holds every
  // dirty file frame.
  return pages_.size() == mem_->file_lru().size() &&
         mem_->file_lru().WalksExactly(frames, resident) && dirty == dirty_order_.size() &&
         dirty_order_.WalksExactly(frames, dirty_and_resident);
}

bool PageCache::RebuildPageSpans() {
  // The file LRU holds exactly the table's frames (Consistent), and each
  // frame names its (inum, page), so two walks of it cost the resident
  // pages rather than the table's slots. page_span first counts each
  // file's pages, then becomes its span. A record with no pages is erased
  // when its last page goes, so none loads.
  const FrameTable& frames = mem_->frames();
  const LruList& lru = mem_->file_lru();
  bool counted = true;
  for (FrameId f = lru.front(); f != kNoFrame; f = LruList::Next(frames, f)) {
    if (FileState* file = files_.Find(static_cast<Inum>(frames.key1(f))); file != nullptr) {
      ++file->page_span;
    } else {
      counted = false;
    }
  }
  files_.ForEach([&](std::uint64_t, FileState& file) {
    counted = counted && file.pages != 0 && file.page_span == file.pages;
    file.page_span = 0;
  });
  if (!counted) {
    return false;
  }
  for (FrameId f = lru.front(); f != kNoFrame; f = LruList::Next(frames, f)) {
    FileState* file = files_.Find(static_cast<Inum>(frames.key1(f)));
    file->page_span = std::max(file->page_span, frames.key2(f) + 1);
  }
  return true;
}

void PageCache::DropAll(std::vector<std::pair<Inum, std::uint64_t>>* dirty_dropped) {
  // Every cached page is on the file LRU list, so its frames name the
  // occupied slots. ClearMarked then removes the pages in ascending slot
  // order, as a pass over the whole table would: that order fixes the
  // frame free list and the order of *dirty_dropped.
  const FrameTable& frames = mem_->frames();
  drop_marks_.resize((pages_.slot_count() + 63) / 64);
  for (FrameId f = mem_->file_lru().front(); f != kNoFrame; f = LruList::Next(frames, f)) {
    const std::size_t slot = pages_.SlotOf(Key(static_cast<Inum>(frames.key1(f)), frames.key2(f)));
    assert(slot < pages_.slot_count());
    drop_marks_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  pages_.ClearMarked(drop_marks_, [&](std::uint64_t key, FrameId ref) {
    if (frames.dirty(ref) && dirty_dropped != nullptr) {
      dirty_dropped->emplace_back(KeyInum(key), KeyPage(key));
    }
    mem_->Remove(ref);
  });
  files_.Clear();
  dirty_order_.Clear();
}

void PageCache::TakeOldestDirty(std::uint64_t max_pages,
                                std::vector<std::pair<Inum, std::uint64_t>>* out) {
  for (std::uint64_t taken = 0; !dirty_order_.empty() && taken < max_pages; ++taken) {
    const FrameId ref = dirty_order_.front();
    out->emplace_back(static_cast<Inum>(mem_->frames().key1(ref)), mem_->frames().key2(ref));
    ClearDirty(ref);
  }
}

void PageCache::TakeDirtyOfFile(Inum inum, std::vector<std::pair<Inum, std::uint64_t>>* out) {
  const FileState* file = files_.Find(inum);
  if (file == nullptr) {
    return;  // nothing resident, so nothing dirty
  }
  if (file->page_span <= dirty_order_.size()) {
    for (std::uint64_t page = 0; page < file->page_span; ++page) {
      if (const FrameId* ref = pages_.Find(Key(inum, page));
          ref != nullptr && mem_->frames().dirty(*ref)) {
        out->emplace_back(inum, page);
        ClearDirty(*ref);
      }
    }
    return;
  }
  TakeDirtyMatching([inum](Inum owner) { return owner == inum; }, out);
}

std::uint64_t PageCache::CleanDirtyRunAfter(Inum inum, std::uint64_t page,
                                            std::uint64_t max_pages) {
  std::uint64_t n = 0;
  while (n < max_pages) {
    FrameId* ref = pages_.Find(Key(inum, page + 1 + n));
    if (ref == nullptr || !mem_->frames().dirty(*ref)) {
      break;
    }
    ClearDirty(*ref);
    ++n;
  }
  return n;
}

std::uint64_t PageCache::ResidentPagesOfFile(Inum inum) const {
  const FileState* file = files_.Find(inum);
  return file == nullptr ? 0 : file->pages;
}

}  // namespace graysim
