// Global operator new/delete replacements that count every heap
// allocation. Linked into bench executables only (gb_bench adds this file
// to each target); replacing the operators here overrides the libstdc++
// definitions for the whole binary, including the static simulation
// libraries, without touching non-bench builds.
#include "bench/alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// One tally per host thread, padded to a cacheline so neighboring threads
// never false-share. The owning thread is the only writer (plain
// load-then-store, no RMW); the fields are atomics solely so AllocSnapshot
// on another thread reads them without a data race. Nodes are pushed onto a
// lock-free registry list at first allocation and never freed — a thread
// that exits keeps its contribution in the process-wide aggregate, matching
// the "since process start" contract.
struct alignas(64) ThreadTally {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
  ThreadTally* next = nullptr;
};

std::atomic<ThreadTally*> g_tally_list{nullptr};

ThreadTally* RegisterTally() {
  // aligned_alloc, not operator new: the counting operators below would
  // recurse into this registration. Plain malloc only guarantees 16-byte
  // alignment, short of the cacheline padding ThreadTally is declared with.
  void* raw = std::aligned_alloc(alignof(ThreadTally), sizeof(ThreadTally));
  if (raw == nullptr) {
    std::abort();
  }
  auto* tally = new (raw) ThreadTally();
  ThreadTally* head = g_tally_list.load(std::memory_order_relaxed);
  do {
    tally->next = head;
  } while (!g_tally_list.compare_exchange_weak(head, tally, std::memory_order_release,
                                               std::memory_order_relaxed));
  return tally;
}

thread_local ThreadTally* t_tally = nullptr;

inline ThreadTally& Tally() {
  if (t_tally == nullptr) {
    t_tally = RegisterTally();
  }
  return *t_tally;
}

inline void Count(std::size_t n) {
  ThreadTally& tally = Tally();
  // Owner-only writer: load+store instead of fetch_add keeps the fast path
  // a pair of plain moves even on architectures with expensive RMWs.
  tally.allocs.store(tally.allocs.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  tally.bytes.store(tally.bytes.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t n) {
  Count(n);
  return std::malloc(n != 0 ? n : 1);
}

void* CountedAllocAligned(std::size_t n, std::size_t align) {
  Count(n);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}

}  // namespace

namespace gbench {

AllocCounts AllocSnapshot() {
  AllocCounts total;
  for (const ThreadTally* t = g_tally_list.load(std::memory_order_acquire); t != nullptr;
       t = t->next) {
    total.allocs += t->allocs.load(std::memory_order_relaxed);
    total.bytes += t->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

AllocCounts ThreadAllocSnapshot() {
  const ThreadTally& tally = Tally();
  return AllocCounts{tally.allocs.load(std::memory_order_relaxed),
                     tally.bytes.load(std::memory_order_relaxed)};
}

}  // namespace gbench

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t n) { return operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }

void* operator new(std::size_t n, std::align_val_t align) {
  void* p = CountedAllocAligned(n, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t n, std::align_val_t align) { return operator new(n, align); }

void* operator new(std::size_t n, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAllocAligned(n, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t n, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAllocAligned(n, static_cast<std::size_t>(align));
}

// aligned_alloc memory is released with free(), so every delete funnels
// into the same call.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
