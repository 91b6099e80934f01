// Deterministic discrete-event queue: the heart of the simulation kernel.
//
// Events are closures scheduled at a virtual time. Execution order is a
// total order on (virtual_time, band, tie, seq): the band separates device
// completions from process wake-ups at the same instant (completions first,
// so a process waking at its I/O completion time observes the completion's
// effects), `tie` is a seeded RNG draw taken at scheduling time (seeded
// tie-breaking keeps same-band, same-time ordering independent of container
// internals yet fully reproducible), and `seq` is a monotonic id that makes
// the order total even on tie collisions.
//
// Internally the queue is a hierarchical timer wheel rather than a binary
// heap: 4 levels x 256 slots over 1024 ns ticks, so schedule and dispatch
// are O(1) instead of O(log n) at fleet event rates. Events past the
// wheel's ~73-virtual-minute horizon fall back to a small calendar heap and
// re-enter the wheel as the cursor advances. The wheel is the non-hashed
// variant (each level's slots hold disjoint, ordered tick ranges), which is
// what makes an exact O(1) next_time() and the exact (when, band, tie, seq)
// order possible — a hashed wheel would interleave near and far ticks in
// one slot. The dispatch order is bit-identical to the historical binary
// heap, pinned by a differential test against ref_event_heap.h.
//
// Single-threaded by design: closures run inline from RunDue on whichever
// (fiber) stack called it, and may schedule further events while running.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/inline_fn.h"
#include "src/sim/rng.h"

namespace graysim {

// Event closures are stored inline in the slot pool (no per-event heap
// allocation). 88 bytes fits the largest kernel closure — a disk completion
// wrapper carrying a nested CompletionFn — with headroom for new captures.
using EventFn = InlineFn<88>;

// Closures capture raw pointers into one machine (Os, devices, caches), so
// they cannot be copied into another machine's address space. A machine
// snapshot instead exports each pending event as an EventDesc — enough pure
// data for the restoring Os to rebuild an equivalent closure bound to its
// own subsystems. The kind registry lives here with the kernel so every
// layer (disk, net, os) shares one namespace; the queue itself treats the
// descriptor as an opaque payload.
enum class EventKind : std::uint32_t {
  kNone = 0,             // not rebuildable; Snapshot refuses to capture it
  kDeviceCompletion,     // SimDevice completion, no callback; dev = device id
  kReadFillCompletion,   // disk completion carrying the Os read-fill callback
  kNetDeliver,           // NetDevice in-flight packet delivery
  kAntagonistTick,       // chaos antagonist daemon self-clock
  kShockTick,            // chaos memory-pressure shock edge
  kShockRelease,         // chaos shock-window page release
  kFlushDaemon,          // dirty-page flush daemon run
  kPageDaemon,           // page daemon run
  kCrash,                // chaos crash-stop instant; arg[0] = chaos epoch
};

struct EventDesc {
  std::uint32_t kind = 0;  // EventKind; default kNone
  std::int32_t dev = 0;
  std::array<std::uint64_t, 6> arg{};

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("kind", s.kind);
    v("dev", s.dev);
    v("arg", s.arg);
  }
};

class EventQueue {
 public:
  using EventId = std::uint64_t;
  static constexpr Nanos kNever = ~Nanos{0};

  enum class Band : std::uint8_t {
    kCompletion = 0,  // device completions, daemon work
    kWake = 1,        // process wake-ups
  };

  // One pending event as pure data: the full ordering key plus the typed
  // descriptor. `tie` and `id` are preserved verbatim across a snapshot —
  // replaying them (instead of redrawing) is what keeps a forked machine's
  // dispatch order bit-identical to the original's.
  struct RawEvent {
    Nanos when = 0;
    std::uint64_t tie = 0;
    EventId id = 0;
    EventDesc desc;
    Band band = Band::kCompletion;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("when", s.when);
      v("tie", s.tie);
      v("id", s.id);
      v("desc", s.desc);
      v("band", s.band);
    }
  };

  // The queue's own mutable kernel state beyond the pending events: the
  // tie-RNG mid-sequence state (future ScheduleAt calls must draw the same
  // tie values the original would have drawn — a reseeded stream would
  // reorder same-instant events and fork divergence would follow), plus the
  // id and stat counters.
  struct KernelState {
    Rng::State tie_rng;
    EventId next_id = 1;
    std::uint64_t scheduled_total = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("tie_rng", s.tie_rng);
      v("next_id", s.next_id);
      v("scheduled_total", s.scheduled_total);
    }
  };

  explicit EventQueue(std::uint64_t tie_seed) : tie_rng_(tie_seed) {
    due_.reserve(kInitialCapacity);
    fns_.reserve(kInitialCapacity);
    descs_.reserve(kInitialCapacity);
    free_fn_slots_.reserve(kInitialCapacity);
    nodes_.reserve(kInitialCapacity);
    for (auto& level : bucket_head_) {
      level.fill(kNil);
    }
    for (auto& level : slot_min_) {
      level.fill(kNever);
    }
    for (auto& level : occupied_) {
      level.fill(0);
    }
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventId ScheduleAt(Nanos when, Band band, EventFn fn) {
    return ScheduleAt(when, band, fn, EventDesc{});
  }
  EventId ScheduleAt(Nanos when, Band band, EventFn fn, const EventDesc& desc);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  // Earliest pending event time; kNever when empty. Exact (not
  // tick-granular) and O(1). Cached: Insert can only lower the minimum, so
  // a min-update keeps a clean cache exact; dispatch is the sole removal
  // path and marks it dirty, after which the next read recomputes from the
  // due_ head / per-slot minima / occupancy bitmaps. Callers (Os::Charge,
  // Scheduler::Charge) poll this once per charged cost, so the common case
  // must stay a load and a branch.
  [[nodiscard]] Nanos next_time() const {
    if (next_dirty_) {
      next_cache_ = head_ < due_.size() ? due_[head_].when : WheelMinWhen();
      next_dirty_ = false;
    }
    return next_cache_;
  }

  // Runs every event due at or before `now`, in deterministic order,
  // including events scheduled by the closures themselves.
  void RunDue(Nanos now);

  // Advances the clock to the earliest pending event and runs everything
  // due at that instant. Returns false when the queue is empty.
  bool RunNext(SimClock* clock);

  [[nodiscard]] std::uint64_t scheduled_total() const { return scheduled_total_; }

  // Optional trace sink; dispatch spans land on obs::kTrackKernel. Tracing
  // observes the already-decided execution order — it never perturbs it.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  // --- Snapshot surface ----------------------------------------------
  // Pending events as pure data, sorted by dispatch order (deterministic
  // image bytes). Closures are NOT exported; callers rebuild them from the
  // descriptors via ImportPending.
  [[nodiscard]] std::vector<RawEvent> ExportPending() const;

  // Re-inserts one exported event with a freshly built closure, preserving
  // its (when, band, tie, id) key verbatim: no tie draw, no id allocation,
  // no scheduled_total bump (RestoreKernelState carries the counters).
  void ImportPending(const RawEvent& ev, EventFn fn);

  // Crash-stop surface: drops every pending event — closures, descriptors,
  // wheel and overflow contents — without running anything. The tie RNG, id
  // counter, and scheduled_total survive (they are kernel identity, and the
  // post-crash kernel must keep drawing the same tie stream); the wheel
  // cursor keeps its position so the clock cannot move backwards.
  void DiscardPending();

  [[nodiscard]] KernelState SnapshotKernelState() const {
    return KernelState{tie_rng_.state(), next_id_, scheduled_total_};
  }
  void RestoreKernelState(const KernelState& s) {
    tie_rng_.set_state(s.tie_rng);
    next_id_ = s.next_id;
    scheduled_total_ = s.scheduled_total;
  }

 private:
  // Enough for any workload's steady-state pending-event population; the
  // vectors only allocate beyond this under extreme fan-out.
  static constexpr std::size_t kInitialCapacity = 256;

  // Wheel geometry: 1024 ns ticks, 4 levels x 256 slots. Level 0 resolves
  // single ticks; each higher level covers 256x the span below it. Events
  // whose tick differs from the cursor above bit 32 (~73 virtual minutes
  // out) wait in the overflow heap.
  static constexpr int kTickBits = 10;
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 4;
  static constexpr std::size_t kSlotsPerLevel = std::size_t{1} << kLevelBits;
  static constexpr int kWordsPerLevel = 4;  // 256 slots / 64 bits
  static constexpr int kOverflowShift = kLevels * kLevelBits;

  // 32-byte ordering key; the (much wider) closure bodies live in a side
  // pool indexed by `slot` and never move. Keeping keys small keeps slot
  // drains and due_ inserts cheap — the lesson from the binary-heap era,
  // where sifting full InlineFn-carrying events dominated memory traffic.
  struct Entry {
    Nanos when = 0;
    std::uint64_t tie = 0;
    EventId id = 0;
    std::uint32_t slot = 0;
    Band band = Band::kCompletion;
  };

  // Strict-weak "dispatches earlier" order: the total order on
  // (when, band, tie, seq).
  struct EarlierCmp {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when < b.when;
      }
      if (a.band != b.band) {
        return a.band < b.band;
      }
      if (a.tie != b.tie) {
        return a.tie < b.tie;
      }
      return a.id < b.id;
    }
  };

  // std::push_heap builds a max-heap; comparing with "later" puts the
  // earliest event at the front (min-heap by dispatch order).
  struct LaterCmp {
    bool operator()(const Entry& a, const Entry& b) const {
      return EarlierCmp{}(b, a);
    }
  };

  std::uint32_t AllocSlot(const EventFn& fn, const EventDesc& desc);
  void Insert(const Entry& e);
  void PlaceInWheel(const Entry& e);  // requires tick > cur_tick_, in horizon
  // Links pool node `node` into the bucket its entry's tick selects (same
  // requirement as PlaceInWheel).
  void PlaceNode(std::uint32_t node);
  void FreeNode(std::uint32_t node) {
    nodes_[node].next = free_node_;
    free_node_ = node;
  }
  [[nodiscard]] Nanos WheelMinWhen() const;
  // Advances the cursor to the earliest occupied tick (cascading higher
  // levels and the overflow prefix as needed) and appends that tick's
  // events, sorted, to due_. Requires WheelMinWhen() != kNever.
  void PullEarliest();
  void AppendBatchToDue(std::vector<Entry>* batch);
  void Dispatch(const Entry& e);
  // First occupied slot of `level`, or -1. Slots behind the cursor are
  // always empty (inserts at or before the cursor go to due_), so the
  // lowest set bit is always the earliest tick range.
  [[nodiscard]] int FirstOccupiedSlot(int level) const;

  std::vector<Entry> due_;  // sorted by EarlierCmp from head_ onward
  std::size_t head_ = 0;
  // Wheel buckets: singly-linked lists through one node pool, headed per
  // slot (kNil when empty). The pool recycles nodes through a free list and
  // grows by doubling, so a queue allocates for its peak wheel population,
  // not for each bucket it touches. Order within a bucket never reaches
  // dispatch or a snapshot: a level-0 drain sorts its batch, a cascade
  // re-places every entry, slot_min_ is a minimum, and ExportPending sorts.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Node {
    Entry entry;
    std::uint32_t next = kNil;
  };
  std::array<std::array<std::uint32_t, kSlotsPerLevel>, kLevels> bucket_head_;
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNil;
  std::array<std::array<Nanos, kSlotsPerLevel>, kLevels> slot_min_;
  std::array<std::array<std::uint64_t, kWordsPerLevel>, kLevels> occupied_;
  std::vector<Entry> overflow_;  // heap via LaterCmp: front = earliest
  std::vector<Entry> batch_;     // reusable scratch for slot drains
  std::uint64_t cur_tick_ = 0;
  std::size_t count_ = 0;
  // next_time() cache; mutable because a dirty read-side recompute is
  // logically const. Exact whenever clean — see next_time().
  mutable Nanos next_cache_ = kNever;
  mutable bool next_dirty_ = false;

  std::vector<EventFn> fns_;                  // closure pool, slot-addressed
  std::vector<EventDesc> descs_;              // parallel typed descriptors
  std::vector<std::uint32_t> free_fn_slots_;  // recycled pool slots (LIFO)
  Rng tie_rng_;
  obs::TraceSink* trace_ = nullptr;
  EventId next_id_ = 1;
  std::uint64_t scheduled_total_ = 0;
};

// The last Band, for checkpoint readers (see ByteReader::Get).
constexpr EventQueue::Band LastEnumerator(EventQueue::Band) { return EventQueue::Band::kWake; }

}  // namespace graysim

#endif  // SRC_SIM_EVENT_QUEUE_H_
