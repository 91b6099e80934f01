#include "src/os/scheduler.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>
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
void __asan_unpoison_memory_region(const volatile void* addr, size_t size);
}
#endif

// TSan likewise needs explicit fiber bookkeeping: a stack switch moves the
// stack pointer out of the range it associates with the host thread, which
// it otherwise reports as a corrupted stack. Each fiber gets a TSan fiber
// object; switches are announced right before the stack switch.
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

#if defined(__x86_64__)
// graysim_switch_stack(save, next) pushes the registers a called function
// must preserve — rbx, rbp, r12-r15, and the MXCSR and x87 control word
// that hold the floating-point rounding mode — stores the stack pointer in
// *save, loads `next` as the stack pointer, pops the same state from it and
// returns on that stack. It keeps no signal mask, so unlike swapcontext it
// makes no system call.
extern "C" [[gnu::visibility("hidden")]] void graysim_switch_stack(void** save, void* next);
asm(R"(
  .pushsection .text
  .globl graysim_switch_stack
  .hidden graysim_switch_stack
  .type graysim_switch_stack, @function
  .p2align 4
graysim_switch_stack:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size graysim_switch_stack, .-graysim_switch_stack
  .popsection
)");
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

#if defined(__x86_64__)
// The state graysim_switch_stack pops on its first switch into a fiber,
// lowest address first. It sits at the top of the fiber's stack, which is
// 16-byte aligned, so the switch returns into `entry` with the stack pointer
// 8 bytes off alignment, as a call instruction would leave it.
struct FirstFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_control = 0;
  std::uint16_t unused = 0;
  void* saved[6] = {};           // r15, r14, r13, r12, rbx and rbp, all zero
  void (*entry)() = nullptr;     // graysim_switch_stack returns here
  void* entry_return = nullptr;  // null: unwinds and backtraces stop in `entry`
};
static_assert(sizeof(FirstFrame) == 8 + 6 * 8 + 2 * 8, "the layout graysim_switch_stack pops");

// Makes `*ctx` start `entry` on the stack [stack, stack + kFiberStackBytes),
// with the calling thread's floating-point control state.
void MakeContext(void** ctx, char* stack, void (*entry)()) {
  auto* frame = new (stack + kFiberStackBytes - sizeof(FirstFrame)) FirstFrame{};
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(frame->mxcsr), "=m"(frame->x87_control));
  frame->entry = entry;
  *ctx = frame;
}

// Suspends the caller into `*save` and resumes `*next`.
void SwapContext(void** save, void* const* next) { graysim_switch_stack(save, *next); }
#else
void MakeContext(ucontext_t* ctx, char* stack, void (*entry)()) {
  getcontext(ctx);
  ctx->uc_stack.ss_sp = stack;
  ctx->uc_stack.ss_size = kFiberStackBytes;
  ctx->uc_link = nullptr;  // fibers exit via SwitchToMain, never return
  makecontext(ctx, entry, 0);
}

void SwapContext(ucontext_t* save, ucontext_t* next) { swapcontext(save, next); }
#endif

// The fiber entry trampoline takes no arguments, so the scheduler whose
// Run() is executing parks itself here. thread_local, not global: every
// machine runs its fibers wholly on one host thread, so N machines on N
// threads each get their own slot and never observe a neighbor's scheduler
// — the one cross-machine global the fleet refactor removed. Nested Run()
// calls remain forbidden per thread.
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
  SetState(me, State::kDone);
  ++done_count_;
  SwitchToMain(/*dying=*/true);
  assert(false && "resumed a finished fiber");
  std::abort();
}

void Scheduler::SwitchToFiber(int i) {
  Fiber& f = fibers_[i];
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
  SwapContext(&main_ctx_, &f.ctx);
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
  if (traced) {
    trace_->End(fiber_tracks_[i], "run", clock_->now());
  }
  current_ = -1;
}

void Scheduler::SwitchToMain(bool dying) {
  Fiber& f = fibers_[current_];
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(dying ? nullptr : &f.fake_stack, main_stack_bottom_,
                                 main_stack_size_);
#else
  (void)dying;
#endif
#if defined(GRAYSIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
  SwapContext(&f.ctx, &main_ctx_);
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
  // Sized once: a fiber's context lives in its element, so nothing may
  // resize the vector while fibers run.
  fibers_.clear();
  fibers_.reserve(n);
  ready_.Reset(n);
  for (int i = 0; i < n; ++i) {
    ready_.Insert(i);
    Fiber& f = fibers_.emplace_back();
    f.stack = t_stack_pool.Acquire();
#if defined(GRAYSIM_ASAN_FIBERS)
    // A recycled stack still carries the shadow of its last fiber's frames,
    // which never returned.
    __asan_unpoison_memory_region(f.stack, kFiberStackBytes);
#endif
    MakeContext(&f.ctx, f.stack, &Scheduler::Trampoline);
#if defined(GRAYSIM_TSAN_FIBERS)
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
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
    const int next = ready_.NextAfter(last);
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
  for (Fiber& f : fibers_) {
#if defined(GRAYSIM_TSAN_FIBERS)
    __tsan_destroy_fiber(f.tsan_fiber);
#endif
    t_stack_pool.Release(f.stack);
  }
  fibers_.clear();
  ready_.Reset(0);
}

void Scheduler::SetState(int i, State state) {
  fibers_[i].state = state;
  if (state == State::kReady) {
    ready_.Insert(i);
  } else {
    ready_.Erase(i);
  }
}

void Scheduler::Charge(int proc, Nanos cost) {
  assert(proc == current_);
  clock_->Advance(cost);
  Fiber& f = fibers_[proc];
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
  SetState(proc, State::kSleeping);
  // The closure re-checks the fiber before waking it: after a crash-stop,
  // WakeAll readies every sleeper and the unwound fibers are gone, but this
  // wake event may still be pending (Recover discards the queue, yet the
  // crash event itself dispatches from the same due-batch as its
  // neighbors). A stale wake must not index a cleared fiber table or
  // re-ready a fiber that already progressed.
  events_->ScheduleAt(deadline, EventQueue::Band::kWake, [this, proc] {
    if (static_cast<std::size_t>(proc) < fibers_.size() &&
        fibers_[proc].state == State::kSleeping) {
      SetState(proc, State::kReady);
    }
  });
  SwitchToMain(/*dying=*/false);
}

void Scheduler::WakeAll() {
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (fibers_[i].state == State::kSleeping) {
      SetState(static_cast<int>(i), State::kReady);
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
