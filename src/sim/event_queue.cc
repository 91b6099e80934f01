#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace graysim {

namespace {

[[nodiscard]] constexpr std::uint64_t TickOf(Nanos when) {
  return when >> 10;  // kTickBits; constexpr-friendly duplicate
}

}  // namespace

std::uint32_t EventQueue::AllocSlot(const EventFn& fn, const EventDesc& desc) {
  std::uint32_t slot;
  if (!free_fn_slots_.empty()) {
    slot = free_fn_slots_.back();
    free_fn_slots_.pop_back();
    fns_[slot] = fn;
    descs_[slot] = desc;
  } else {
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(fn);
    descs_.push_back(desc);
  }
  return slot;
}

EventQueue::EventId EventQueue::ScheduleAt(Nanos when, Band band, EventFn fn,
                                           const EventDesc& desc) {
  const EventId id = next_id_++;
  ++scheduled_total_;
  const std::uint32_t slot = AllocSlot(fn, desc);
  Insert(Entry{when, tie_rng_.Next(), id, slot, band});
  ++count_;
  return id;
}

void EventQueue::ImportPending(const RawEvent& ev, EventFn fn) {
  const std::uint32_t slot = AllocSlot(fn, ev.desc);
  Insert(Entry{ev.when, ev.tie, ev.id, slot, ev.band});
  ++count_;
}

void EventQueue::Insert(const Entry& e) {
  // An insert can only lower the minimum, so a clean cache stays exact
  // with a min-update; a dirty cache stays dirty and recomputes on read.
  if (!next_dirty_ && e.when < next_cache_) {
    next_cache_ = e.when;
  }
  const std::uint64_t tick = TickOf(e.when);
  if (tick <= cur_tick_) {
    // At or before the cursor (including schedule-into-the-past from a
    // running closure): keep the due_ working set sorted so dispatch order
    // stays the exact (when, band, tie, seq) total order.
    const auto pos =
        std::upper_bound(due_.begin() + static_cast<std::ptrdiff_t>(head_), due_.end(), e,
                         EarlierCmp{});
    due_.insert(pos, e);
    return;
  }
  if (((tick ^ cur_tick_) >> kOverflowShift) != 0) {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), LaterCmp{});
    return;
  }
  PlaceInWheel(e);
}

void EventQueue::PlaceInWheel(const Entry& e) {
  std::uint32_t node = free_node_;
  if (node != kNil) {
    free_node_ = nodes_[node].next;
    nodes_[node].entry = e;
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{e, kNil});
  }
  PlaceNode(node);
}

void EventQueue::PlaceNode(std::uint32_t node) {
  const Entry& e = nodes_[node].entry;
  const std::uint64_t tick = TickOf(e.when);
  const std::uint64_t diff = tick ^ cur_tick_;
  assert(diff != 0 && (diff >> kOverflowShift) == 0);
  const int level = (63 - __builtin_clzll(diff)) / kLevelBits;
  const auto slot =
      static_cast<std::size_t>((tick >> (level * kLevelBits)) & (kSlotsPerLevel - 1));
  std::uint32_t& head = bucket_head_[static_cast<std::size_t>(level)][slot];
  nodes_[node].next = head;
  head = node;
  auto& word = occupied_[static_cast<std::size_t>(level)][slot >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
  auto& min_when = slot_min_[static_cast<std::size_t>(level)][slot];
  if ((word & bit) == 0) {
    word |= bit;
    min_when = e.when;
  } else if (e.when < min_when) {
    min_when = e.when;
  }
}

int EventQueue::FirstOccupiedSlot(int level) const {
  const auto& words = occupied_[static_cast<std::size_t>(level)];
  for (int w = 0; w < kWordsPerLevel; ++w) {
    if (words[static_cast<std::size_t>(w)] != 0) {
      return w * 64 + __builtin_ctzll(words[static_cast<std::size_t>(w)]);
    }
  }
  return -1;
}

Nanos EventQueue::WheelMinWhen() const {
  // Levels hold strictly increasing tick ranges (level 0 nearest, overflow
  // farthest), so the first occupied slot of the first occupied level holds
  // the global minimum.
  for (int level = 0; level < kLevels; ++level) {
    const int slot = FirstOccupiedSlot(level);
    if (slot >= 0) {
      return slot_min_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    }
  }
  return overflow_.empty() ? kNever : overflow_.front().when;
}

void EventQueue::AppendBatchToDue(std::vector<Entry>* batch) {
  std::sort(batch->begin(), batch->end(), EarlierCmp{});
  // Every entry already in due_ has tick <= the old cursor < the pulled
  // tick, hence a strictly smaller `when`: a sorted append keeps due_
  // sorted. Compact the consumed prefix first when it dominates.
  if (head_ >= 1024 && head_ * 2 >= due_.size()) {
    due_.erase(due_.begin(), due_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  due_.insert(due_.end(), batch->begin(), batch->end());
  batch->clear();
}

void EventQueue::PullEarliest() {
  for (;;) {
    // Level 0: the slot holds exactly one tick; drain it straight to due_.
    int slot = FirstOccupiedSlot(0);
    if (slot >= 0) {
      cur_tick_ = ((cur_tick_ >> kLevelBits) << kLevelBits) | static_cast<std::uint64_t>(slot);
      std::uint32_t& head = bucket_head_[0][static_cast<std::size_t>(slot)];
      for (std::uint32_t node = head; node != kNil;) {
        const std::uint32_t next = nodes_[node].next;
        batch_.push_back(nodes_[node].entry);
        FreeNode(node);
        node = next;
      }
      head = kNil;
      occupied_[0][static_cast<std::size_t>(slot) >> 6] &=
          ~(std::uint64_t{1} << (slot & 63));
      AppendBatchToDue(&batch_);
      return;
    }
    // Higher levels: move the cursor to the slot's base tick and cascade its
    // events downward; entries landing exactly on the base go due.
    bool cascaded = false;
    for (int level = 1; level < kLevels && !cascaded; ++level) {
      slot = FirstOccupiedSlot(level);
      if (slot < 0) {
        continue;
      }
      const int shift = (level + 1) * kLevelBits;
      const std::uint64_t base = ((cur_tick_ >> shift) << shift) |
                                 (static_cast<std::uint64_t>(slot) << (level * kLevelBits));
      cur_tick_ = base;
      std::uint32_t& head =
          bucket_head_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
      occupied_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot) >> 6] &=
          ~(std::uint64_t{1} << (slot & 63));
      // Every entry lands on a lower level or goes due, so the detached list
      // is never relinked into this bucket while it is walked.
      std::uint32_t node = head;
      head = kNil;
      while (node != kNil) {
        const std::uint32_t next = nodes_[node].next;
        if (TickOf(nodes_[node].entry.when) == base) {
          batch_.push_back(nodes_[node].entry);
          FreeNode(node);
        } else {
          PlaceNode(node);
        }
        node = next;
      }
      if (!batch_.empty()) {
        AppendBatchToDue(&batch_);
        return;
      }
      cascaded = true;  // redistribution done; rescan from level 0
    }
    if (cascaded) {
      continue;
    }
    // Wheel empty: jump the cursor to the overflow's earliest tick and pull
    // the whole now-in-horizon prefix back in. The heap is ordered by
    // dispatch time and the horizon test is a prefix of the `when` bits, so
    // qualifying entries form a prefix of the pop order.
    assert(!overflow_.empty());
    const std::uint64_t front_tick = TickOf(overflow_.front().when);
    cur_tick_ = front_tick;
    while (!overflow_.empty() &&
           (TickOf(overflow_.front().when) >> kOverflowShift) ==
               (front_tick >> kOverflowShift)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), LaterCmp{});
      const Entry e = overflow_.back();
      overflow_.pop_back();
      if (TickOf(e.when) == front_tick) {
        batch_.push_back(e);
      } else {
        PlaceInWheel(e);
      }
    }
    AppendBatchToDue(&batch_);  // nonempty: the old front had the front tick
    return;
  }
}

void EventQueue::Dispatch(const Entry& e) {
  // Copy the closure out before running it: the body may schedule events,
  // which can grow the pool and move fns_ underneath an in-place call.
  EventFn fn = fns_[e.slot];
  free_fn_slots_.push_back(e.slot);
  if (trace_ != nullptr) {
    trace_->Begin(obs::kTrackKernel, "dispatch", e.when);
    fn();
    trace_->End(obs::kTrackKernel, "dispatch", e.when);
  } else {
    fn();
  }
}

void EventQueue::RunDue(Nanos now) {
  for (;;) {
    if (head_ < due_.size()) {
      if (due_[head_].when > now) {
        return;
      }
      const Entry e = due_[head_];
      ++head_;
      if (head_ == due_.size()) {
        due_.clear();
        head_ = 0;
      }
      --count_;
      next_dirty_ = true;  // removal: the minimum may have risen
      Dispatch(e);
      continue;
    }
    // due_ exhausted; anything due must still be in the wheel/overflow.
    // (due_ events always precede wheel events, so the converse — a due
    // wheel event hiding behind a future due_ head — cannot happen.)
    if (WheelMinWhen() > now) {
      return;
    }
    PullEarliest();
  }
}

bool EventQueue::RunNext(SimClock* clock) {
  const Nanos when = next_time();
  if (when == kNever) {
    return false;
  }
  clock->AdvanceTo(std::max(clock->now(), when));
  RunDue(clock->now());
  return true;
}

std::vector<EventQueue::RawEvent> EventQueue::ExportPending() const {
  std::vector<Entry> entries;
  entries.reserve(count_);
  entries.insert(entries.end(), due_.begin() + static_cast<std::ptrdiff_t>(head_), due_.end());
  for (const auto& level : bucket_head_) {
    for (const std::uint32_t head : level) {
      for (std::uint32_t node = head; node != kNil; node = nodes_[node].next) {
        entries.push_back(nodes_[node].entry);
      }
    }
  }
  entries.insert(entries.end(), overflow_.begin(), overflow_.end());
  std::sort(entries.begin(), entries.end(), EarlierCmp{});
  std::vector<RawEvent> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) {
    out.push_back(RawEvent{e.when, e.tie, e.id, descs_[e.slot], e.band});
  }
  return out;
}

void EventQueue::DiscardPending() {
  due_.clear();
  head_ = 0;
  for (auto& level : bucket_head_) {
    level.fill(kNil);
  }
  nodes_.clear();
  free_node_ = kNil;
  for (auto& level : slot_min_) {
    level.fill(kNever);
  }
  for (auto& level : occupied_) {
    level.fill(0);
  }
  overflow_.clear();
  batch_.clear();
  fns_.clear();
  descs_.clear();
  free_fn_slots_.clear();
  count_ = 0;
  next_cache_ = kNever;
  next_dirty_ = false;
}

}  // namespace graysim
