// Platform profiles and the machine cost model.
//
// A PlatformProfile bundles the policy knobs that distinguish the paper's
// three evaluation platforms (Linux 2.2.17, NetBSD 1.5, Solaris 7). The
// CostModel holds the latency/bandwidth constants of the simulated machine
// (2×P-III class, 896 MB RAM, IBM 9LZX disks).
#ifndef SRC_OS_PLATFORM_H_
#define SRC_OS_PLATFORM_H_

#include <cstdint>
#include <string>

#include "src/disk/disk.h"
#include "src/fs/ffs.h"
#include "src/mem/mem_system.h"
#include "src/net/net_schedule.h"
#include "src/sim/clock.h"
#include "src/sim/fault_plan.h"

namespace graysim {

struct CostModel {
  Nanos syscall_overhead = Micros(1.5);
  double copy_mb_per_s = 320.0;        // kernel<->user copy bandwidth
  Nanos mem_touch = 150;               // touching a resident page (user level)
  Nanos zero_fill_page = Micros(3.0);  // allocate + zero one page
  Nanos page_fault_overhead = Micros(2.0);
  double cpu_scan_mb_per_s = 150.0;    // application CPU processing rate
  double cpu_sort_mb_per_s = 40.0;     // in-memory sort rate (fastsort)
  Nanos fork_exec = Millis(2.0);       // fork+exec for the gbp pipe path

  [[nodiscard]] Nanos CopyCost(std::uint64_t bytes) const {
    const double ns_per_byte = 1e9 / (copy_mb_per_s * 1024.0 * 1024.0);
    return static_cast<Nanos>(static_cast<double>(bytes) * ns_per_byte);
  }
  [[nodiscard]] Nanos ScanCost(std::uint64_t bytes) const {
    const double ns_per_byte = 1e9 / (cpu_scan_mb_per_s * 1024.0 * 1024.0);
    return static_cast<Nanos>(static_cast<double>(bytes) * ns_per_byte);
  }
  [[nodiscard]] Nanos SortCost(std::uint64_t bytes) const {
    const double ns_per_byte = 1e9 / (cpu_sort_mb_per_s * 1024.0 * 1024.0);
    return static_cast<Nanos>(static_cast<double>(bytes) * ns_per_byte);
  }

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("syscall_overhead", s.syscall_overhead);
    v("copy_mb_per_s", s.copy_mb_per_s);
    v("mem_touch", s.mem_touch);
    v("zero_fill_page", s.zero_fill_page);
    v("page_fault_overhead", s.page_fault_overhead);
    v("cpu_scan_mb_per_s", s.cpu_scan_mb_per_s);
    v("cpu_sort_mb_per_s", s.cpu_sort_mb_per_s);
    v("fork_exec", s.fork_exec);
  }
};

struct PlatformProfile {
  std::string name;
  MemPolicy mem_policy = MemPolicy::kUnifiedLru;
  std::uint64_t file_cache_bytes = 0;  // partition size (kPartitionedFixedFile)
  AllocatorKind fs_allocator = AllocatorKind::kPacked;
  bool readahead = true;
  // Whether the platform offers a mincore(2)-style residency syscall
  // (paper §4.1 footnote 1: not broadly available).
  bool has_mincore = false;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("name", s.name);
    v("mem_policy", s.mem_policy);
    v("file_cache_bytes", s.file_cache_bytes);
    v("fs_allocator", s.fs_allocator);
    v("readahead", s.readahead);
    v("has_mincore", s.has_mincore);
  }

  // Linux 2.2-like: unified clock-LRU; nearly all memory is file cache.
  [[nodiscard]] static PlatformProfile Linux22() {
    PlatformProfile p;
    p.name = "linux2.2";
    p.mem_policy = MemPolicy::kUnifiedLru;
    p.fs_allocator = AllocatorKind::kPacked;
    p.has_mincore = true;  // Linux exposes mincore(2)
    return p;
  }

  // NetBSD 1.5-like: fixed 64 MB buffer cache ("a throwback to early UNIX").
  [[nodiscard]] static PlatformProfile NetBsd15() {
    PlatformProfile p;
    p.name = "netbsd1.5";
    p.mem_policy = MemPolicy::kPartitionedFixedFile;
    p.file_cache_bytes = 64ULL * 1024 * 1024;
    p.fs_allocator = AllocatorKind::kPacked;
    return p;
  }

  // Solaris 7-like: sticky file cache (hard to dislodge), sparser on-disk
  // packing of small files.
  [[nodiscard]] static PlatformProfile Solaris7() {
    PlatformProfile p;
    p.name = "solaris7";
    p.mem_policy = MemPolicy::kStickyFile;
    p.fs_allocator = AllocatorKind::kSparse;
    return p;
  }

  // Hypothetical LFS platform (paper §4.2.5: porting FLDC means swapping
  // the layout heuristic from i-number order to write-time order).
  [[nodiscard]] static PlatformProfile LfsVariant() {
    PlatformProfile p;
    p.name = "lfs";
    p.mem_policy = MemPolicy::kUnifiedLru;
    p.fs_allocator = AllocatorKind::kLogStructured;
    return p;
  }
};

struct MachineConfig {
  std::uint64_t phys_mem_bytes = 896ULL * 1024 * 1024;
  std::uint64_t kernel_reserved_bytes = 66ULL * 1024 * 1024;  // leaves ~830 MB
  std::uint32_t page_size = 4096;
  int num_disks = 5;
  DiskGeometry disk_geometry = DiskGeometry::Ibm9Lzx();
  FsParams fs_params;  // allocator overridden by the platform profile
  CostModel costs;
  Nanos scheduler_slice = Millis(10.0);
  // Multiplicative timing noise on every charged cost, uniform in
  // [1-jitter, 1+jitter]. Real machines are never noiseless; the gray-box
  // statistics only make sense against jittered observations. Deterministic
  // (seeded) so experiments stay reproducible.
  double timing_jitter = 0.10;
  std::uint64_t jitter_seed = 0x6a17;
  // Seed for the event queue's same-instant tie-breaking draws.
  std::uint64_t event_tie_seed = 0x5eed;
  // Write-behind: flush begins above this fraction of memory dirty.
  double dirty_ratio = 0.125;
  std::uint32_t readahead_min_pages = 8;
  std::uint32_t readahead_max_pages = 64;
  // Fault & interference schedule (disabled by default). When enabled the Os
  // arms a ChaosEngine at construction; see Os::ArmChaos for late arming.
  FaultPlan chaos;
  // Simulated network link (NetSend/NetRecv/NetPoll). Always constructed —
  // an idle link costs nothing; `net.seed` is machine-derived in fleets.
  NetSchedule net;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("phys_mem_bytes", s.phys_mem_bytes);
    v("kernel_reserved_bytes", s.kernel_reserved_bytes);
    v("page_size", s.page_size);
    v("num_disks", s.num_disks);
    v("disk_geometry", s.disk_geometry);
    v("fs_params", s.fs_params);
    v("costs", s.costs);
    v("scheduler_slice", s.scheduler_slice);
    v("timing_jitter", s.timing_jitter);
    v("jitter_seed", s.jitter_seed);
    v("event_tie_seed", s.event_tie_seed);
    v("dirty_ratio", s.dirty_ratio);
    v("readahead_min_pages", s.readahead_min_pages);
    v("readahead_max_pages", s.readahead_max_pages);
    v("chaos", s.chaos);
    v("net", s.net);
  }
};

}  // namespace graysim

#endif  // SRC_OS_PLATFORM_H_
