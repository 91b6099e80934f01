// Differential tests pinning the timer-wheel EventQueue's dispatch order to
// the reference binary heap (src/sim/ref_event_heap.h — the pre-wheel
// implementation, kept verbatim as an oracle). Both queues draw tie values
// from identically seeded RNGs, so feeding them the same schedule in the
// same order must produce the exact same (when, band, tie, seq) dispatch
// sequence — including same-instant band/tie collisions, events scheduled
// from within running closures, schedule-into-the-past, and far-future
// events that cross the wheel's overflow horizon.
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/ref_event_heap.h"
#include "src/sim/rng.h"

namespace graysim {
namespace {

using Band = EventQueue::Band;

constexpr std::uint64_t kTieSeed = 0x7E57C0DE5EEDULL;

// Drives one queue implementation through a seeded random schedule and
// returns the token sequence in dispatch order. The script RNG is consumed
// inside closures too (fan-out decisions), so two Driver instances stay in
// lockstep exactly as long as their dispatch orders match — which is the
// property under test.
template <typename Queue>
class Driver {
 public:
  Driver(std::uint64_t tie_seed, std::uint64_t script_seed, int fanout_percent)
      : queue_(tie_seed), rng_(script_seed), fanout_percent_(fanout_percent) {}

  void ScheduleRandom(Nanos base, Nanos spread) {
    const Nanos when = base + rng_.Below(spread);
    const Band band = rng_.Below(2) == 0 ? Band::kCompletion : Band::kWake;
    Schedule(when, band);
  }

  void Schedule(Nanos when, Band band) {
    const std::uint64_t token = ++next_token_;
    Driver* self = this;
    queue_.ScheduleAt(when, band, EventFn([self, token, when] {
                        self->log_.push_back(token);
                        if (self->fanout_percent_ > 0 &&
                            self->rng_.Below(100) <
                                static_cast<std::uint64_t>(self->fanout_percent_)) {
                          // Children land at or after the parent's instant,
                          // exercising schedule-from-within-closure on both
                          // the current tick and nearby future ticks.
                          self->ScheduleRandom(when, 5000);
                        }
                      }));
  }

  std::vector<std::uint64_t> Drain() {
    SimClock clock;
    while (queue_.RunNext(&clock)) {
    }
    return log_;
  }

  [[nodiscard]] Queue& queue() { return queue_; }

 private:
  Queue queue_;
  Rng rng_;
  int fanout_percent_;
  std::uint64_t next_token_ = 0;
  std::vector<std::uint64_t> log_;
};

// Runs the same seeded script through the wheel and the heap and expects
// identical dispatch sequences.
void ExpectSameOrder(std::uint64_t script_seed, int initial, Nanos spread,
                     int fanout_percent) {
  Driver<EventQueue> wheel(kTieSeed, script_seed, fanout_percent);
  Driver<RefEventHeap> heap(kTieSeed, script_seed, fanout_percent);
  for (int i = 0; i < initial; ++i) {
    wheel.ScheduleRandom(0, spread);
  }
  for (int i = 0; i < initial; ++i) {
    heap.ScheduleRandom(0, spread);
  }
  const std::vector<std::uint64_t> wheel_log = wheel.Drain();
  const std::vector<std::uint64_t> heap_log = heap.Drain();
  ASSERT_EQ(wheel_log.size(), heap_log.size());
  EXPECT_EQ(wheel_log, heap_log) << "script_seed=" << script_seed;
}

TEST(EventQueueDifferential, RandomizedSchedulesMatchHeap) {
  // Spreads chosen to exercise every placement path: one tick, one level-0
  // rotation, deep wheel levels, and the overflow horizon (> 2^42 ns).
  const Nanos spreads[] = {1024, 1 << 18, 1ull << 30, 1ull << 44};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Nanos spread : spreads) {
      ExpectSameOrder(seed * 0x9E3779B9ULL, /*initial=*/512, spread,
                      /*fanout_percent=*/0);
    }
  }
}

TEST(EventQueueDifferential, ScheduleFromWithinClosureMatchesHeap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectSameOrder(seed * 0xBF58476DULL, /*initial=*/256, /*spread=*/1 << 20,
                    /*fanout_percent=*/60);
  }
}

TEST(EventQueueDifferential, SameInstantBandAndTieCollisionsMatchHeap) {
  Driver<EventQueue> wheel(kTieSeed, 0, 0);
  Driver<RefEventHeap> heap(kTieSeed, 0, 0);
  // Many events at the same instants with alternating bands: ordering is
  // decided purely by (band, tie, seq), never by container internals.
  const Nanos instants[] = {0, 1023, 1024, 4096, 1ull << 33, (1ull << 44) + 512};
  for (int rep = 0; rep < 32; ++rep) {
    for (const Nanos when : instants) {
      wheel.Schedule(when, rep % 2 == 0 ? Band::kCompletion : Band::kWake);
    }
  }
  for (int rep = 0; rep < 32; ++rep) {
    for (const Nanos when : instants) {
      heap.Schedule(when, rep % 2 == 0 ? Band::kCompletion : Band::kWake);
    }
  }
  EXPECT_EQ(wheel.Drain(), heap.Drain());
}

TEST(EventQueueDifferential, NextTimeIsExactAtEveryStep) {
  EventQueue wheel(kTieSeed);
  RefEventHeap heap(kTieSeed);
  Rng rng(0x5EED5EED);
  std::uint64_t sink = 0;
  SimClock wheel_clock;
  SimClock heap_clock;
  for (int round = 0; round < 400; ++round) {
    const int burst = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < burst; ++i) {
      // Absolute times, sometimes in the past of the advancing clocks.
      const Nanos when = rng.Below(1ull << 44);
      const Band band = rng.Below(2) == 0 ? Band::kCompletion : Band::kWake;
      wheel.ScheduleAt(when, band, EventFn([&sink] { ++sink; }));
      heap.ScheduleAt(when, band, EventFn([&sink] { ++sink; }));
    }
    ASSERT_EQ(wheel.next_time(), heap.next_time()) << "round " << round;
    ASSERT_EQ(wheel.size(), heap.size());
    (void)wheel.RunNext(&wheel_clock);
    (void)heap.RunNext(&heap_clock);
    ASSERT_EQ(wheel_clock.now(), heap_clock.now()) << "round " << round;
  }
  while (wheel.RunNext(&wheel_clock)) {
  }
  while (heap.RunNext(&heap_clock)) {
  }
  EXPECT_EQ(wheel_clock.now(), heap_clock.now());
  EXPECT_TRUE(wheel.empty());
  EXPECT_TRUE(heap.empty());
}

TEST(EventQueueDifferential, RunDueHonorsDeadlineLikeHeap) {
  Driver<EventQueue> wheel(kTieSeed, 0, 0);
  Driver<RefEventHeap> heap(kTieSeed, 0, 0);
  for (int i = 0; i < 200; ++i) {
    const Nanos when = static_cast<Nanos>(i) * 700;
    wheel.Schedule(when, Band::kCompletion);
  }
  for (int i = 0; i < 200; ++i) {
    const Nanos when = static_cast<Nanos>(i) * 700;
    heap.Schedule(when, Band::kCompletion);
  }
  // Partial drains at arbitrary deadlines must release the same prefix.
  for (const Nanos deadline : {Nanos{100}, Nanos{7000}, Nanos{7001}, Nanos{50000}}) {
    wheel.queue().RunDue(deadline);
    heap.queue().RunDue(deadline);
    ASSERT_EQ(wheel.queue().size(), heap.queue().size()) << "deadline " << deadline;
  }
  EXPECT_EQ(wheel.Drain(), heap.Drain());
}

// A queue refilled after DiscardPending, and one rebuilt from ExportPending
// by ImportPending and then refilled, keep dispatching like the heap: after
// a discard, in the heap's order with the discarded events left out; after
// an import, in the heap's order. Half the first schedule has run when the
// queue is emptied or rebuilt, so the refill lands on a wheel whose cursor
// and node pool are mid-use.
TEST(EventQueueDifferential, RefillAfterDiscardAndImportMatchesHeap) {
  for (const bool discard : {true, false}) {
    for (const Nanos spread : {Nanos{1} << 18, Nanos{1} << 30, Nanos{1} << 44}) {
      SCOPED_TRACE(std::string(discard ? "discard" : "import") + " spread " +
                   std::to_string(spread));
      EventQueue wheel(kTieSeed);
      RefEventHeap heap(kTieSeed);
      std::vector<std::uint64_t> wheel_log;
      std::vector<std::uint64_t> heap_log;
      Rng rng(spread ^ 0xD15CA4D);
      std::uint64_t token = 0;
      auto schedule = [&](EventQueue& q, Nanos when) {
        const Band band = rng.Below(2) == 0 ? Band::kCompletion : Band::kWake;
        EventDesc desc;
        desc.arg[0] = ++token;
        q.ScheduleAt(when, band, EventFn([&wheel_log, t = token] { wheel_log.push_back(t); }),
                     desc);
        heap.ScheduleAt(when, band, EventFn([&heap_log, t = token] { heap_log.push_back(t); }));
      };
      for (int i = 0; i < 512; ++i) {
        schedule(wheel, rng.Below(spread));
      }
      const Nanos midway = spread / 2;
      wheel.RunDue(midway);
      heap.RunDue(midway);
      ASSERT_EQ(wheel_log, heap_log);

      std::set<std::uint64_t> discarded;
      EventQueue* target = &wheel;
      std::unique_ptr<EventQueue> rebuilt;
      if (discard) {
        for (const EventQueue::RawEvent& ev : wheel.ExportPending()) {
          discarded.insert(ev.desc.arg[0]);
        }
        ASSERT_FALSE(discarded.empty());
        wheel.DiscardPending();
        ASSERT_TRUE(wheel.empty());
      } else {
        rebuilt = std::make_unique<EventQueue>(kTieSeed + 1);
        rebuilt->RestoreKernelState(wheel.SnapshotKernelState());
        for (const EventQueue::RawEvent& ev : wheel.ExportPending()) {
          rebuilt->ImportPending(
              ev, EventFn([&wheel_log, t = ev.desc.arg[0]] { wheel_log.push_back(t); }));
        }
        ASSERT_EQ(rebuilt->size(), wheel.size());
        target = rebuilt.get();
      }
      for (int i = 0; i < 512; ++i) {
        schedule(*target, midway + 1 + rng.Below(spread));
      }
      SimClock wheel_clock;
      SimClock heap_clock;
      while (target->RunNext(&wheel_clock)) {
      }
      while (heap.RunNext(&heap_clock)) {
      }
      std::erase_if(heap_log, [&](std::uint64_t t) { return discarded.contains(t); });
      EXPECT_EQ(wheel_log, heap_log);
    }
  }
}

}  // namespace
}  // namespace graysim
