#include "src/os/scheduler.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

// ASan must be told about every stack switch or it reports false positives
// (and its fake-stack GC frees frames that are still live on other fibers).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAYSIM_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GRAYSIM_ASAN_FIBERS 1
#endif

#if defined(GRAYSIM_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
}
#endif

// TSan likewise needs explicit fiber bookkeeping: a ucontext switch moves
// the stack pointer out of the range it associates with the host thread,
// which it otherwise reports as a corrupted stack. Each fiber gets a TSan
// fiber object; switches are announced right before the swapcontext.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GRAYSIM_TSAN_FIBERS 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define GRAYSIM_TSAN_FIBERS 1
#endif

#if defined(GRAYSIM_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace graysim {

namespace {

// 512 KB per fiber: simulated process bodies are shallow (no recursion into
// user data), but event closures — daemon reclaim, cache fills — run on
// whichever fiber stack is current, so leave generous headroom. Pages are
// committed only as a fiber touches them, so the headroom costs address
// space, not memory.
constexpr std::size_t kFiberStackBytes = 512 * 1024;

// Fiber stacks of one host thread. Each stack is an anonymous
// MAP_NORESERVE mapping: one PROT_NONE guard page, then kFiberStackBytes of
// usable stack above it (stacks grow down, so an overflow runs into the
// guard and faults). Released stacks keep their committed pages and go back
// on a free list that every scheduler on the thread draws from; a stack
// never crosses threads, because each Run() acquires and releases its
// stacks on the thread that calls it.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  ~StackPool() {
    for (char* stack : free_) {
      munmap(stack - GuardBytes(), GuardBytes() + kFiberStackBytes);
    }
  }

  // Returns the low end of a usable kFiberStackBytes range.
  char* Acquire() {
    if (!free_.empty()) {
      char* stack = free_.back();
      free_.pop_back();
      return stack;
    }
    const std::size_t guard = GuardBytes();
    void* map = mmap(nullptr, guard + kFiberStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (map == MAP_FAILED || mprotect(map, guard, PROT_NONE) != 0) {
      std::perror("graysim: fiber stack mapping");
      std::abort();
    }
    return static_cast<char*>(map) + guard;
  }

  void Release(char* stack) { free_.push_back(stack); }

 private:
  static std::size_t GuardBytes() {
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
  }

  std::vector<char*> free_;
};

thread_local StackPool t_stack_pool;

// The trampoline installed by makecontext takes no arguments, so the
// scheduler whose Run() is executing parks itself here. thread_local, not
// global: every machine runs its fibers wholly on one host thread, so N
// machines on N threads each get their own slot and never observe a
// neighbor's scheduler — the one cross-machine global the fleet refactor
// removed. Nested Run() calls remain forbidden per thread.
thread_local Scheduler* t_running = nullptr;

}  // namespace

void Scheduler::Trampoline() { t_running->FiberMain(); }

void Scheduler::FiberMain() {
  const int me = current_;
#if defined(GRAYSIM_ASAN_FIBERS)
  // First entry to this fiber: complete the switch and capture the bounds
  // of the stack we came from (the dispatch loop's host stack).
  __sanitizer_finish_switch_fiber(nullptr, &main_stack_bottom_, &main_stack_size_);
#endif
  (*bodies_)[me](me);
  fibers_[me]->state = State::kDone;
  ++done_count_;
  SwitchToMain(/*dying=*/true);
  assert(false && "resumed a finished fiber");
  std::abort();
}

void Scheduler::SwitchToFiber(int i) {
  Fiber& f = *fibers_[i];
  assert(f.state == State::kReady);
  current_ = i;
  f.slice_used = 0;
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&main_fake_stack_, f.stack, kFiberStackBytes);
#endif
#if defined(GRAYSIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  const bool traced = trace_ != nullptr && static_cast<std::size_t>(i) < fiber_tracks_.size();
  if (traced) {
    trace_->Begin(fiber_tracks_[i], "run", clock_->now());
  }
  swapcontext(&main_ctx_, &f.ctx);
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
  if (traced) {
    trace_->End(fiber_tracks_[i], "run", clock_->now());
  }
  current_ = -1;
}

void Scheduler::SwitchToMain(bool dying) {
  Fiber& f = *fibers_[current_];
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(dying ? nullptr : &f.fake_stack, main_stack_bottom_,
                                 main_stack_size_);
#else
  (void)dying;
#endif
#if defined(GRAYSIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
  swapcontext(&f.ctx, &main_ctx_);
  // Resumed (never reached when dying).
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void Scheduler::Run(const std::vector<std::function<void(int)>>& bodies) {
  const int n = static_cast<int>(bodies.size());
  if (n == 0) {
    return;  // nothing to schedule
  }
  assert(!active_ && t_running == nullptr && "nested Scheduler::Run on this thread");
  bodies_ = &bodies;
  fibers_.clear();
  fibers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto f = std::make_unique<Fiber>();
    f->stack = t_stack_pool.Acquire();
    getcontext(&f->ctx);
    f->ctx.uc_stack.ss_sp = f->stack;
    f->ctx.uc_stack.ss_size = kFiberStackBytes;
    f->ctx.uc_link = nullptr;  // fibers exit via SwitchToMain, never return
    makecontext(&f->ctx, &Scheduler::Trampoline, 0);
#if defined(GRAYSIM_TSAN_FIBERS)
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    fibers_.push_back(std::move(f));
  }
#if defined(GRAYSIM_TSAN_FIBERS)
  main_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  if (trace_ != nullptr) {
    // One "thread" row per fiber. RegisterTrack is idempotent by name, so
    // repeated Run() batches reuse the same rows.
    fiber_tracks_.resize(n);
    for (int i = 0; i < n; ++i) {
      fiber_tracks_[i] = trace_->RegisterTrack("fiber/" + std::to_string(i));
    }
  }
  done_count_ = 0;
  active_ = true;
  t_running = this;

  int last = n - 1;  // round-robin starts at proc 0
  while (done_count_ < n) {
    const int next = PickNext(last);
    if (next >= 0) {
      SwitchToFiber(next);
      last = next;
      continue;
    }
    // Nobody runnable: every live fiber sleeps on an event (its own wake,
    // or an I/O completion it waits behind). Jump to the next event.
    const Nanos when = events_->next_time();
    if (when == EventQueue::kNever) {
      std::fprintf(stderr, "graysim: scheduler deadlock — no runnable process, no event\n");
      std::abort();
    }
    clock_->AdvanceTo(std::max(clock_->now(), when));
    events_->RunDue(clock_->now());
  }

  t_running = nullptr;
  active_ = false;
  bodies_ = nullptr;
  for (auto& f : fibers_) {
#if defined(GRAYSIM_TSAN_FIBERS)
    __tsan_destroy_fiber(f->tsan_fiber);
#endif
    t_stack_pool.Release(f->stack);
  }
  fibers_.clear();
}

int Scheduler::PickNext(int from) const {
  const int n = static_cast<int>(fibers_.size());
  for (int k = 1; k <= n; ++k) {
    const int j = (from + k) % n;
    if (fibers_[j]->state == State::kReady) {
      return j;
    }
  }
  return -1;
}

void Scheduler::Charge(int proc, Nanos cost) {
  assert(proc == current_);
  clock_->Advance(cost);
  Fiber& f = *fibers_[proc];
  f.slice_used += cost;
  // Fast path: one heap-front comparison, no locks, no syscalls.
  if (events_->next_time() <= clock_->now()) {
    events_->RunDue(clock_->now());
  }
  if (f.slice_used >= slice_) {
    SwitchToMain(/*dying=*/false);  // stays kReady; dispatched again in turn
  }
}

void Scheduler::SleepUntil(int proc, Nanos deadline) {
  assert(proc == current_);
  if (deadline <= clock_->now()) {
    events_->RunDue(clock_->now());
    return;
  }
  Fiber& f = *fibers_[proc];
  f.state = State::kSleeping;
  // The closure re-checks the fiber before waking it: after a crash-stop,
  // WakeAll readies every sleeper and the unwound fibers are gone, but this
  // wake event may still be pending (Recover discards the queue, yet the
  // crash event itself dispatches from the same due-batch as its
  // neighbors). A stale wake must not index a cleared fiber table or
  // re-ready a fiber that already progressed.
  events_->ScheduleAt(deadline, EventQueue::Band::kWake, [this, proc] {
    if (static_cast<std::size_t>(proc) < fibers_.size() &&
        fibers_[proc]->state == State::kSleeping) {
      fibers_[proc]->state = State::kReady;
    }
  });
  SwitchToMain(/*dying=*/false);
}

void Scheduler::WakeAll() {
  for (auto& f : fibers_) {
    if (f->state == State::kSleeping) {
      f->state = State::kReady;
    }
  }
}

void Scheduler::Sleep(int proc, Nanos duration) {
  SleepUntil(proc, clock_->now() + duration);
}

void Scheduler::Yield([[maybe_unused]] int proc) {
  assert(proc == current_);
  events_->RunDue(clock_->now());
  SwitchToMain(/*dying=*/false);
}

}  // namespace graysim
