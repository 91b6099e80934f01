// Deterministic cooperative round-robin scheduler for simulated processes.
//
// Each simulated process runs on a stackful fiber multiplexed on the single
// host thread that called Run(). Control transfers happen at syscall-charge
// points, sleeps, and exits — the same yield points as the old
// thread-per-process turnstile — but a switch is now a stack switch instead
// of a mutex/condvar crossing, so the per-charge fast path takes no locks at
// all and scales to dozens of competing processes. On x86-64 the switch is
// a few register moves (graysim_switch_stack in scheduler.cc saves the
// callee-saved registers and the floating-point control state, and makes no
// system call); elsewhere it is swapcontext.
//
// Sleep/wake is delegated to the discrete-event queue: a sleeping fiber
// schedules its own wake event (Band::kWake), and when no fiber is runnable
// the dispatch loop advances the clock to the next pending event. Device
// completions and background daemons therefore interleave with process
// execution on one deterministic timeline. The dispatch loop runs the ready
// fibers round-robin in index order and finds the next one in a bitmap of
// the ready fibers (FiberSet), a word at a time.
//
// Each scheduler is confined to whichever host thread calls its Run(): the
// running-scheduler slot consulted by the fiber entry trampoline is
// thread_local, so N independent machines may run on N host threads
// concurrently (the fleet model) with zero shared state between them.
//
// Fiber stacks are lazily committed mappings with a PROT_NONE guard page
// below each one, so a stack costs the host only the pages a fiber touches
// and an overflow faults instead of running into other memory. Stacks are
// recycled through one pool per host thread, shared by every scheduler that
// runs there: a fleet of machines replayed one after another on a thread
// reuses one set of warm stacks.
#ifndef SRC_OS_SCHEDULER_H_
#define SRC_OS_SCHEDULER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"

namespace graysim {

// A set of fiber indexes [0, n), one bit per index (bit i % 64 of word
// i / 64; bits at or past n stay clear). NextAfter answers "the next member
// in round-robin order" a word at a time, in the order a scan of
// (from + 1) % n, (from + 2) % n, ..., from would find it.
class FiberSet {
 public:
  // An empty set over [0, n). Allocates only when n outgrows every earlier
  // size.
  void Reset(int n) {
    n_ = n;
    words_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  }

  void Insert(int i) { words_[i / 64] |= Bit(i); }
  void Erase(int i) { words_[i / 64] &= ~Bit(i); }

  // The first member after `from` in the cyclic order from + 1, ..., n - 1,
  // 0, ..., from; -1 when the set is empty. `from` is in [0, n).
  [[nodiscard]] int NextAfter(int from) const {
    if (const int after = FirstFrom(from + 1); after < n_) {
      return after;
    }
    const int first = FirstFrom(0);
    return first < n_ ? first : -1;
  }

 private:
  static std::uint64_t Bit(int i) { return std::uint64_t{1} << (i % 64); }

  // The least member >= begin, or a value >= n_ when there is none.
  [[nodiscard]] int FirstFrom(int begin) const {
    std::size_t w = static_cast<std::size_t>(begin) / 64;
    if (w >= words_.size()) {
      return n_;
    }
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (begin % 64));
    while (bits == 0) {
      if (++w == words_.size()) {
        return n_;
      }
      bits = words_[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

  int n_ = 0;
  std::vector<std::uint64_t> words_;
};

class Scheduler {
 public:
  Scheduler(SimClock* clock, EventQueue* events, Nanos slice)
      : clock_(clock), events_(events), slice_(slice) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Runs all bodies to completion; bodies[i] is invoked with proc index i.
  // Returns when every body has returned (a no-op for an empty vector).
  // Pending events (device completions, daemons) are drained along the way.
  void Run(const std::vector<std::function<void(int)>>& bodies);

  // True while Run() is executing. Single-threaded: only ever read from the
  // same host thread that runs the fibers.
  [[nodiscard]] bool active() const { return active_; }

  // Charges `cost` of virtual time to proc, drains newly due events, and
  // yields if the slice expired.
  void Charge(int proc, Nanos cost);

  // Puts proc to sleep for `duration` of virtual time / until `deadline`.
  void Sleep(int proc, Nanos duration);
  void SleepUntil(int proc, Nanos deadline);

  // Voluntarily gives up the remainder of the slice.
  void Yield(int proc);

  // Crash-stop support: marks every sleeping fiber ready so the dispatch
  // loop runs each one once more. The owner (Os) makes the next charge or
  // wake throw through the fiber body, unwinding its stack — the mechanism
  // by which "every fiber's stack dies" without the dispatch loop
  // deadlocking on wake events that will never fire.
  void WakeAll();

  [[nodiscard]] Nanos slice() const { return slice_; }

  // Optional trace sink: each fiber gets its own "fiber/N" track carrying
  // B/E "run" spans around every dispatch (one span per scheduling turn).
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  enum class State : std::uint8_t { kReady, kSleeping, kDone };

  // A suspended flow of control. On x86-64 it is the suspended stack
  // pointer: graysim_switch_stack keeps everything else on that stack.
#if defined(__x86_64__)
  using Context = void*;
#else
  using Context = ucontext_t;
#endif

  struct Fiber {
    Context ctx{};
    char* stack = nullptr;  // usable range, just above the guard page
    State state = State::kReady;
    Nanos slice_used = 0;
    // ASan bookkeeping: the fake-stack handle saved across switches away
    // from this fiber (see __sanitizer_start_switch_fiber).
    void* fake_stack = nullptr;
    // TSan bookkeeping: the __tsan_create_fiber handle announced before
    // every switch into this fiber. Null outside TSan builds.
    void* tsan_fiber = nullptr;
  };

  // Entry point for every fiber (runs bodies_[current_]; never returns).
  static void Trampoline();
  void FiberMain();

  // Moves fiber i to `state`, keeping ready_ in step.
  void SetState(int i, State state);

  // Transfers control main -> fiber i / fiber current_ -> main. `dying`
  // marks the fiber's final switch-out so ASan can retire its fake stack.
  void SwitchToFiber(int i);
  void SwitchToMain(bool dying);

  SimClock* clock_;
  EventQueue* events_;
  Nanos slice_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<std::uint32_t> fiber_tracks_;  // trace track id per fiber index
  std::vector<Fiber> fibers_;
  FiberSet ready_;  // the fibers in State::kReady
  const std::vector<std::function<void(int)>>* bodies_ = nullptr;
  Context main_ctx_{};
  void* main_fake_stack_ = nullptr;
  // TSan handle of the dispatch loop's host thread, captured at Run() entry.
  void* main_tsan_fiber_ = nullptr;
  // Host-stack bounds of the dispatch loop, captured at first fiber entry.
  const void* main_stack_bottom_ = nullptr;
  std::size_t main_stack_size_ = 0;
  int current_ = -1;
  int done_count_ = 0;
  bool active_ = false;
};

}  // namespace graysim

#endif  // SRC_OS_SCHEDULER_H_
