// Microbenchmarks for the hot-path datastructures behind the simulation
// kernel and memory hierarchy: page-cache lookup+touch, intrusive LRU
// splice, insert/evict recycling through the frame slab, and event-queue
// push/pop. These are the operations the frame-table refactor targeted;
// each loop also reports heap allocations per operation (expected: 0 in
// steady state) so a regression that reintroduces per-op allocation fails
// the perf-smoke gate loudly rather than showing up as a diffuse slowdown.
//
// The event-queue section races the timer wheel against the reference
// binary heap (src/sim/ref_event_heap.h) at 1K, 100K, and 1M pending
// events: the wheel's schedule+dispatch cost should be flat across the
// three depths (O(1)) while the heap degrades logarithmically. A final
// section prices Machine::Snapshot/Fork — nanoseconds per fork and bytes
// per image on a warmed machine — the costs the robustness-matrix
// warm-once/fork-per-cell pattern depends on. The last two price the
// checkpoint CRC over 1 MiB, and checkpoint encode and decode in memory:
// the CPU half of SaveMachineImage and LoadMachineImage without the host
// file I/O.
//
// Two rows before those price the simulated syscall path every ICL probe
// takes: a fiber switch (two fibers yielding to each other through a bare
// Scheduler) and an Os::Stat of a two-level path on a warm cache, which
// should allocate nothing.
//
// Four rows count heap allocations (unit "allocs", which perf-smoke holds to
// a ceiling) on the 64 MB two-disk machine both perfbench workloads build:
// constructing one, a Snapshot and a Fork of it once populated, and a warm
// two-page Pwrite plus Fsync on an open fd, which should allocate nothing.
//
// Two more rows price what perfbench's end-to-end runs cannot isolate: one
// scheduler dispatch among 80 fibers, 79 of them asleep, and one
// FlushFileCache of a load_steady machine's set-up. Both should allocate
// nothing, and their allocation rows carry the gated "allocs" unit too.
//
// Loops are deterministic (fixed xorshift seed) and sized to run long
// enough to dominate timer noise while keeping the whole binary under a
// few seconds.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "src/cache/page_cache.h"
#include "src/mem/mem_system.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/os/scheduler.h"
#include "src/sim/byte_io.h"
#include "src/sim/event_queue.h"
#include "src/sim/ref_event_heap.h"
#include "src/workloads/filegen.h"

namespace {

using graysim::EventQueue;
using graysim::FrameId;
using graysim::kNoFrame;
using graysim::Machine;
using graysim::MachineImage;
using graysim::MemPolicy;
using graysim::MemSystem;
using graysim::Nanos;
using graysim::Page;
using graysim::PageCache;
using graysim::PageKind;
using graysim::PlatformProfile;
using graysim::RefEventHeap;

// Deterministic 64-bit xorshift; seeded per-loop so runs are reproducible.
struct XorShift {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

struct LoopResult {
  double mops = 0.0;            // million operations per host second
  double allocs_per_op = 0.0;
};

// Times `ops` iterations of `body(i)` and captures the allocation delta.
template <typename Body>
LoopResult TimeLoop(std::uint64_t ops, Body&& body) {
  const gbench::AllocCounts alloc_start = gbench::AllocSnapshot();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    body(i);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const gbench::AllocCounts alloc_end = gbench::AllocSnapshot();
  LoopResult r;
  r.mops = static_cast<double>(ops) / secs / 1e6;
  r.allocs_per_op =
      static_cast<double>(alloc_end.allocs - alloc_start.allocs) / static_cast<double>(ops);
  return r;
}

// `allocs_unit` "allocs" makes perf-smoke hold the allocation row to its
// baseline (check_perf.py); the older rows report it ungated.
void Report(gbench::JsonResults& json, const char* name, const LoopResult& r,
            const char* allocs_unit = "") {
  std::printf("%-28s %10.2f Mops/s %10.4f allocs/op\n", name, r.mops, r.allocs_per_op);
  json.Add(std::string(name) + "_ops_per_s", r.mops * 1e6, "ops/s");
  json.Add(std::string(name) + "_allocs_per_op", r.allocs_per_op, allocs_unit);
}

// A machine-sized pool: 160 MB of 4 KB frames, matching the golden
// workload's configuration so the numbers track the simulation's reality.
constexpr std::uint64_t kPoolPages = 40960;

class DropEvictions : public graysim::EvictionHandler {
 public:
  Nanos OnEvict(const Page&) override { return 0; }
};

class CacheEvictions : public graysim::EvictionHandler {
 public:
  explicit CacheEvictions(PageCache* cache) : cache_(cache) {}
  Nanos OnEvict(const Page& page) override {
    (void)cache_->OnEvicted(page);
    return 0;
  }

 private:
  PageCache* cache_;
};

LoopResult BenchLruTouch() {
  MemSystem mem(MemSystem::Config{kPoolPages, MemPolicy::kUnifiedLru, 0});
  DropEvictions handler;
  mem.set_evict_handler(&handler);
  std::vector<FrameId> refs;
  Nanos cost = 0;
  for (std::uint64_t i = 0; i < kPoolPages; ++i) {
    refs.push_back(mem.Insert(Page{PageKind::kAnon, 1, i, true}, &cost));
  }
  XorShift rng{0x9E3779B97F4A7C15ULL};
  return TimeLoop(20'000'000, [&](std::uint64_t) {
    mem.Touch(refs[rng.Next() % kPoolPages]);
  });
}

LoopResult BenchPageCacheHit(PageCache& cache) {
  XorShift rng{0xDEADBEEFCAFEF00DULL};
  return TimeLoop(20'000'000, [&](std::uint64_t) {
    const std::uint64_t r = rng.Next();
    (void)cache.Access(1 + (r & 7), (r >> 3) % (kPoolPages / 16));
  });
}

LoopResult BenchInsertEvict() {
  MemSystem mem(MemSystem::Config{kPoolPages, MemPolicy::kUnifiedLru, 0});
  PageCache cache(&mem);
  CacheEvictions handler(&cache);
  mem.set_evict_handler(&handler);
  Nanos cost = 0;
  // Fill the pool once; every further insert recycles a frame through the
  // free list (steady-state miss path: evict + slab reuse + map update).
  std::uint64_t next_page = 0;
  for (; next_page < kPoolPages; ++next_page) {
    (void)cache.Insert(1, next_page, false, &cost);
  }
  return TimeLoop(2'000'000, [&](std::uint64_t) {
    (void)cache.Insert(1, next_page++, false, &cost);
  });
}

LoopResult BenchEventQueue() {
  EventQueue queue(0x5555AAAA5555AAAAULL);
  XorShift rng{0x123456789ABCDEF0ULL};
  std::uint64_t sink = 0;
  Nanos now = 0;
  // Each iteration: push a batch of events at pseudo-random future times,
  // then drain everything due. Counts pushes as the operation (each push
  // has a matching pop).
  constexpr std::uint64_t kBatch = 64;
  const LoopResult r = TimeLoop(4'000'000 / kBatch, [&](std::uint64_t) {
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const Nanos when = now + 1 + rng.Next() % 1000;
      queue.ScheduleAt(when, EventQueue::Band::kCompletion,
                       graysim::EventFn([&sink] { ++sink; }));
    }
    now += 1000;
    queue.RunDue(now);
  });
  // Rescale from batches to individual push+pop pairs.
  LoopResult scaled = r;
  scaled.mops = r.mops * static_cast<double>(kBatch);
  scaled.allocs_per_op = r.allocs_per_op / static_cast<double>(kBatch);
  return scaled;
}

// Steady-state schedule+dispatch with `backlog` events pending: the queue
// carries a standing population of far-future events while the loop pushes
// and drains near-term ones. The backlog is what separates O(1) from
// O(log n) — the heap sifts every push/pop through log2(backlog) levels,
// the wheel never looks at the parked events at all.
template <typename Queue>
LoopResult BenchEventQueueAtDepth(std::uint64_t backlog) {
  Queue queue(0x5555AAAA5555AAAAULL);
  XorShift rng{0xFEDCBA9876543210ULL};
  std::uint64_t sink = 0;
  // Park the backlog far enough out that the working loop never reaches it
  // (the wheel keeps them in high levels / overflow; the heap carries them
  // in every sift).
  constexpr Nanos kParkBase = Nanos{1} << 50;
  for (std::uint64_t i = 0; i < backlog; ++i) {
    queue.ScheduleAt(kParkBase + (rng.Next() % (Nanos{1} << 30)),
                     EventQueue::Band::kCompletion,
                     graysim::EventFn([&sink] { ++sink; }));
  }
  Nanos now = 0;
  constexpr std::uint64_t kBatch = 64;
  const std::uint64_t batches = (backlog >= 1'000'000 ? 1'000'000 : 2'000'000) / kBatch;
  const LoopResult r = TimeLoop(batches, [&](std::uint64_t) {
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const Nanos when = now + 1 + rng.Next() % 1000;
      queue.ScheduleAt(when, EventQueue::Band::kCompletion,
                       graysim::EventFn([&sink] { ++sink; }));
    }
    now += 1000;
    queue.RunDue(now);
  });
  LoopResult scaled = r;
  scaled.mops = r.mops * static_cast<double>(kBatch);
  scaled.allocs_per_op = r.allocs_per_op / static_cast<double>(kBatch);
  return scaled;
}

// Two fibers yielding to each other through a bare Scheduler. One op is one
// Yield: a switch out to the dispatch loop and a switch into the other
// fiber.
LoopResult BenchFiberSwitch() {
  graysim::SimClock clock;
  EventQueue events(0x5555AAAA5555AAAAULL);
  graysim::Scheduler sched(&clock, &events, graysim::Millis(10.0));
  constexpr std::uint64_t kYieldsPerFiber = 2'000'000;
  const auto body = [&sched](int proc) {
    for (std::uint64_t i = 0; i < kYieldsPerFiber; ++i) {
      sched.Yield(proc);
    }
  };
  const LoopResult r = TimeLoop(1, [&](std::uint64_t) { sched.Run({body, body}); });
  LoopResult scaled = r;
  scaled.mops = r.mops * static_cast<double>(2 * kYieldsPerFiber);
  scaled.allocs_per_op = r.allocs_per_op / static_cast<double>(2 * kYieldsPerFiber);
  return scaled;
}

// Os::Stat of /d0/dir/file once its directory and inode blocks are cached:
// the path walk, the per-component directory reads and the virtual-time
// charges, with no disk I/O.
LoopResult BenchStatPath() {
  graysim::Os os(PlatformProfile::Linux22());
  const graysim::Pid pid = os.default_pid();
  (void)os.Mkdir(pid, "/d0/dir");
  (void)graywork::MakeFile(os, pid, "/d0/dir/file", 4096);
  const std::string path = "/d0/dir/file";
  graysim::InodeAttr attr;
  (void)os.Stat(pid, path, &attr);
  return TimeLoop(1'000'000, [&](std::uint64_t) { (void)os.Stat(pid, path, &attr); });
}

// Os::Creat + Close + Unlink of /d0/dir/f on a warm machine: the path
// syscalls that change the namespace (a lookup that stops at the leaf, the
// entry added and the record re-stamped, the walk, the inode block dirtied,
// then the entry removed and the directory index rebuilt), with no disk I/O.
LoopResult BenchCreateUnlink() {
  graysim::Os os(PlatformProfile::Linux22());
  const graysim::Pid pid = os.default_pid();
  (void)os.Mkdir(pid, "/d0/dir");
  const std::string path = "/d0/dir/f";
  const auto create_unlink = [&](std::uint64_t) {
    (void)os.Close(pid, os.Creat(pid, path));
    (void)os.Unlink(pid, path);
  };
  create_unlink(0);
  return TimeLoop(500'000, create_unlink);
}

// One dispatch among 80 fibers, 79 of them asleep on wake events, as in a
// load_steady replay: fiber 0 yields and the dispatch loop picks it again.
// The ready set finds it a word at a time; a scan of every fiber's state
// read 80.
LoopResult BenchSchedDispatch() {
  graysim::SimClock clock;
  EventQueue events(0x5555AAAA5555AAAAULL);
  graysim::Scheduler sched(&clock, &events, graysim::Millis(10.0));
  constexpr int kFibers = 80;
  constexpr std::uint64_t kDispatches = 2'000'000;
  LoopResult r;
  const auto body = [&](int proc) {
    if (proc != 0) {
      sched.Sleep(proc, graysim::Seconds(1000.0));
      return;
    }
    sched.Yield(proc);  // every other fiber runs once and falls asleep
    r = TimeLoop(kDispatches, [&](std::uint64_t) { sched.Yield(proc); });
    sched.WakeAll();
  };
  sched.Run(std::vector<std::function<void(int)>>(kFibers, body));
  return r;
}

// Prices Machine::Snapshot and Machine::Fork on a machine with real state:
// a 32 MB warmed file, dirty pages, and pending events. Forking is the
// robustness-matrix inner loop, so its cost lands in the BENCH JSON both
// as a gated rate (ops/s) and as human-scale ns/bytes metrics.
void BenchSnapshotFork(gbench::JsonResults& json) {
  Machine machine(PlatformProfile::Linux22());
  graysim::Os& os = machine.os();
  const graysim::Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/img", 32 * gbench::kMb);
  const int fd = os.Open(pid, "/d0/img");
  for (std::uint64_t off = 0; off < 16 * gbench::kMb; off += 256 * 1024) {
    (void)os.Pread(pid, fd, {}, 256 * 1024, off);
  }
  for (std::uint64_t off = 0; off < 4 * gbench::kMb; off += 256 * 1024) {
    (void)os.Pwrite(pid, fd, 256 * 1024, off);
  }
  (void)os.Close(pid, fd);

  constexpr int kIters = 40;
  const auto snap_start = std::chrono::steady_clock::now();
  MachineImage image = machine.Snapshot();
  for (int i = 1; i < kIters; ++i) {
    image = machine.Snapshot();
  }
  const double snap_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               snap_start)
          .count() /
      kIters;

  std::uint64_t sink = 0;
  const auto fork_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    const std::unique_ptr<Machine> fork = Machine::Fork(image);
    sink += fork->Now();
  }
  const double fork_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fork_start)
          .count();
  const double fork_ns = fork_secs / kIters * 1e9;
  const double image_mb = static_cast<double>(image.os.ApproxBytes()) / 1e6;

  std::printf("%-28s %10.0f ns/snapshot\n", "machine_snapshot", snap_ns);
  std::printf("%-28s %10.0f ns/fork %10.1f MB/image (sink %llu)\n", "machine_fork",
              fork_ns, image_mb, static_cast<unsigned long long>(sink));
  json.Add("machine_fork_ops_per_s", kIters / fork_secs, "ops/s");
  json.Add("machine_snapshot_ns", snap_ns, "ns");
  json.Add("machine_fork_ns", fork_ns, "ns");
  json.Add("machine_image_bytes", static_cast<double>(image.os.ApproxBytes()), "bytes");
}

// The machine perfbench's load_steady and ckpt_restart build: 64 MB, two
// disks, with a sort input, a grep set and an aging set on it once
// Populate has run.
graysim::MachineConfig ServiceShape() {
  graysim::MachineConfig config;
  config.phys_mem_bytes = 64 * gbench::kMb;
  config.kernel_reserved_bytes = 16 * gbench::kMb;
  config.num_disks = 2;
  return config;
}

void Populate(graysim::Os& os) {
  const graysim::Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/sort_in", 256 * 1024);
  (void)graywork::MakeFileSet(os, pid, "/d1/src", 4, 64 * 1024);
  (void)graywork::MakeFileSet(os, pid, "/d0/age", 4, 32 * 1024);
}

std::uint64_t AllocsSince(const gbench::AllocCounts& start) {
  return gbench::AllocSnapshot().allocs - start.allocs;
}

void BenchMachineAllocs(gbench::JsonResults& json) {
  gbench::AllocCounts start = gbench::AllocSnapshot();
  Machine machine(PlatformProfile::Linux22(), ServiceShape(), /*machine_id=*/0,
                  /*seed=*/0x10AD);
  const std::uint64_t new_allocs = AllocsSince(start);
  graysim::Os& os = machine.os();
  Populate(os);

  start = gbench::AllocSnapshot();
  const MachineImage image = machine.Snapshot();
  const std::uint64_t snapshot_allocs = AllocsSince(start);
  start = gbench::AllocSnapshot();
  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  const std::uint64_t fork_allocs = AllocsSince(start);

  const graysim::Pid pid = os.default_pid();
  const int fd = os.Open(pid, "/d0/sort_in");
  (void)os.Pwrite(pid, fd, 2 * 4096, 0);  // grows the writeback buffers once
  (void)os.Fsync(pid, fd);
  const LoopResult fsync = TimeLoop(10'000, [&](std::uint64_t i) {
    (void)os.Pwrite(pid, fd, 2 * 4096, (i % 32) * 2 * 4096);
    (void)os.Fsync(pid, fd);
  });
  (void)os.Close(pid, fd);

  std::printf("%-28s %10llu allocs\n", "machine_new",
              static_cast<unsigned long long>(new_allocs));
  std::printf("%-28s %10llu allocs\n", "machine_snapshot",
              static_cast<unsigned long long>(snapshot_allocs));
  std::printf("%-28s %10llu allocs\n", "machine_fork",
              static_cast<unsigned long long>(fork_allocs));
  std::printf("%-28s %10.4f allocs/op\n", "fsync", fsync.allocs_per_op);
  json.Add("machine_new_allocs", static_cast<double>(new_allocs), "allocs");
  json.Add("machine_snapshot_allocs", static_cast<double>(snapshot_allocs), "allocs");
  json.Add("machine_fork_allocs", static_cast<double>(fork_allocs), "allocs");
  json.Add("fsync_allocs_per_op", fsync.allocs_per_op, "allocs");
}

// Os::FlushFileCache alone, on the machine a load_steady replay builds and
// flushes once in its set-up: 64 MB, two disks, a sort input, a grep set
// and two aging files for each of 80 clients, about 850 resident pages.
// Each op reads every file back in (untimed), then times the flush.
LoopResult BenchFlushFileCache() {
  Machine machine(PlatformProfile::Linux22(), ServiceShape(), /*machine_id=*/0,
                  /*seed=*/0x10AD);
  graysim::Os& os = machine.os();
  const graysim::Pid pid = os.default_pid();
  std::vector<std::string> files = {"/d0/sort_in"};
  (void)graywork::MakeFile(os, pid, files[0], 256 * 1024);
  auto add_set = [&](const std::string& dir, int count, std::uint64_t bytes) {
    const std::vector<std::string> set = graywork::MakeFileSet(os, pid, dir, count, bytes);
    files.insert(files.end(), set.begin(), set.end());
  };
  add_set("/d1/src", 4, 64 * 1024);
  for (int c = 0; c < 80; ++c) {
    add_set("/d0/age" + std::to_string(c), 2, 16 * 1024);
  }
  constexpr int kFlushes = 300;
  double secs = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t resident = 0;
  for (int i = 0; i <= kFlushes; ++i) {
    for (const std::string& f : files) {
      const int fd = os.Open(pid, f);
      (void)os.Pread(pid, fd, {}, 256 * 1024, 0);
      (void)os.Close(pid, fd);
    }
    resident += i == 0 ? 0 : os.FileCachePages();
    const gbench::AllocCounts alloc_start = gbench::AllocSnapshot();
    const auto start = std::chrono::steady_clock::now();
    os.FlushFileCache();
    const double flush_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (i > 0) {  // the first flush sizes the slot bitmap
      secs += flush_s;
      allocs += AllocsSince(alloc_start);
    }
  }
  std::printf("%-28s %10llu resident pages per flush\n", "flush_file_cache",
              static_cast<unsigned long long>(resident / kFlushes));
  LoopResult r;
  r.mops = kFlushes / secs / 1e6;
  r.allocs_per_op = static_cast<double>(allocs) / kFlushes;
  return r;
}

// Prices the public Crc32 over a seeded 1 MiB buffer, the checksum each
// checkpoint save and load runs over the whole image. Where the CPU has a
// carry-less multiply it takes about a tenth of the time of the slice-by-8
// loop it falls back to, so a build that quietly runs the table path fails
// perf-smoke's 5x gate here.
void BenchCrc32(gbench::JsonResults& json) {
  std::vector<std::uint8_t> bytes(std::size_t{1} << 20);
  XorShift rng{0xC4C32};
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  constexpr int kIters = 2000;
  std::uint32_t crc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    crc = graysim::Crc32(bytes.data(), bytes.size(), crc);  // chained: no pass can be skipped
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("%-28s %10.0f ops/s %10.1f MB/s (crc %08x)\n", "crc32_1mib", kIters / secs,
              kIters * static_cast<double>(bytes.size()) / 1e6 / secs, crc);
  json.Add("crc32_ops_per_s", kIters / secs, "ops/s");
}

// Prices EncodeMachineImage and DecodeMachineImage on a populated 64 MB,
// two-disk machine (perfbench ckpt_restart's shape). Most of its image is
// FFS cylinder-group bitmaps and inode-slot flags, and every byte is
// checksummed on both sides, so these rates fall about 25x if bitmap
// packing and the CRC go back to bit-at-a-time code, well past
// perf-smoke's 5x gate. False when the decoded image does not re-encode to
// the same bytes.
bool BenchImageCodec(gbench::JsonResults& json) {
  Machine machine(PlatformProfile::Linux22(), ServiceShape(), /*machine_id=*/0,
                  /*seed=*/0x10AD);
  Populate(machine.os());
  const MachineImage image = machine.Snapshot();

  constexpr int kIters = 100;
  std::vector<std::uint8_t> bytes;
  const auto encode_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    bytes = graysim::EncodeMachineImage(image);
  }
  const double encode_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - encode_start).count();

  MachineImage decoded;
  const auto decode_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    std::string error;
    if (!graysim::DecodeMachineImage(bytes, &decoded, &error)) {
      std::fprintf(stderr, "FAIL: image decode: %s\n", error.c_str());
      return false;
    }
  }
  const double decode_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - decode_start).count();
  if (graysim::EncodeMachineImage(decoded) != bytes) {
    std::fprintf(stderr, "FAIL: a decoded image re-encodes to other bytes\n");
    return false;
  }

  const double mb = static_cast<double>(bytes.size()) / 1e6;
  std::printf("%-28s %10.0f ops/s %10.1f MB/s (%.3f MB/image)\n", "image_encode",
              kIters / encode_s, kIters * mb / encode_s, mb);
  std::printf("%-28s %10.0f ops/s %10.1f MB/s\n", "image_decode", kIters / decode_s,
              kIters * mb / decode_s);
  json.Add("image_encode_ops_per_s", kIters / encode_s, "ops/s");
  json.Add("image_decode_ops_per_s", kIters / decode_s, "ops/s");
  return true;
}

}  // namespace

int main() {
  gbench::PrintHeader("Hot-path datastructure microbenchmarks");
  gbench::JsonResults json("micro_datastructures");

  // page_cache_hit shares the insert/evict fixture's warm cache: build the
  // fixture once, reuse for the hit benchmark, with pages 1..8 x many.
  MemSystem mem(MemSystem::Config{kPoolPages, MemPolicy::kUnifiedLru, 0});
  PageCache cache(&mem);
  CacheEvictions handler(&cache);
  mem.set_evict_handler(&handler);
  Nanos cost = 0;
  for (std::uint64_t inum = 1; inum <= 8; ++inum) {
    for (std::uint64_t p = 0; p < kPoolPages / 16; ++p) {
      (void)cache.Insert(inum, p, false, &cost);
    }
  }

  Report(json, "lru_touch", BenchLruTouch());
  Report(json, "page_cache_hit", BenchPageCacheHit(cache));
  Report(json, "insert_evict", BenchInsertEvict());
  Report(json, "event_push_pop", BenchEventQueue());

  // Wheel vs reference heap across pending-event depths. The wheel rows
  // should be flat; the heap rows are the O(log n) yardstick (reported,
  // not gated — the kernel links only the wheel).
  for (const std::uint64_t backlog : {std::uint64_t{1'000}, std::uint64_t{100'000},
                                      std::uint64_t{1'000'000}}) {
    char name[64];
    std::snprintf(name, sizeof(name), "event_wheel_%lluk_pending",
                  static_cast<unsigned long long>(backlog / 1000));
    Report(json, name, BenchEventQueueAtDepth<EventQueue>(backlog));
    std::snprintf(name, sizeof(name), "event_heap_%lluk_pending",
                  static_cast<unsigned long long>(backlog / 1000));
    Report(json, name, BenchEventQueueAtDepth<RefEventHeap>(backlog));
  }

  Report(json, "fiber_switch", BenchFiberSwitch());
  Report(json, "stat_path", BenchStatPath(), "allocs");
  Report(json, "create_unlink", BenchCreateUnlink(), "allocs");

  BenchSnapshotFork(json);
  BenchMachineAllocs(json);
  Report(json, "sched_dispatch", BenchSchedDispatch(), "allocs");
  Report(json, "flush_file_cache", BenchFlushFileCache(), "allocs");
  BenchCrc32(json);
  if (!BenchImageCodec(json)) {
    return 1;
  }

  json.Write();
  return 0;
}
