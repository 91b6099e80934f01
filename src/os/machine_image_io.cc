#include "src/os/machine_image_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/byte_io.h"

namespace graysim {

namespace {

// "GSIMIMG1" — eight ASCII bytes, written verbatim (endianness-free).
constexpr std::uint8_t kMagic[8] = {'G', 'S', 'I', 'M', 'I', 'M', 'G', '1'};

// Section tags, written (and required on load) in exactly this order. The
// order is load-bearing: CONFIG must parse before any section that needs
// the profile/config to construct its objects (MEM builds the MemSystem
// from them, DISKS needs the geometry).
enum class Section : std::uint32_t {
  kIdentity = 1,
  kConfig = 2,
  kKernel = 3,
  kFilesystems = 4,
  kDisks = 5,
  kNet = 6,
  kMem = 7,
  kTables = 8,
  kChaos = 9,
};

constexpr Section kSectionOrder[] = {
    Section::kIdentity, Section::kConfig, Section::kKernel,
    Section::kFilesystems, Section::kDisks, Section::kNet,
    Section::kMem, Section::kTables, Section::kChaos,
};

void Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
}

// ---- small-struct encoders -------------------------------------------------

void PutRngState(ByteWriter& w, const Rng::State& s) {
  w.U64(s.s0);
  w.U64(s.s1);
}

[[nodiscard]] Rng::State GetRngState(ByteReader& r) {
  Rng::State s;
  s.s0 = r.U64();
  s.s1 = r.U64();
  return s;
}

void PutHist(ByteWriter& w, const obs::Histogram& h) {
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    w.U64(h.bucket(i));
  }
  w.U64(h.count());
  w.U64(h.sum());
  w.U64(h.min());
  w.U64(h.max());
}

void GetHist(ByteReader& r, obs::Histogram* h) {
  std::uint64_t buckets[obs::Histogram::kBuckets];
  for (std::uint64_t& b : buckets) {
    b = r.U64();
  }
  const std::uint64_t count = r.U64();
  const std::uint64_t sum = r.U64();
  const std::uint64_t min = r.U64();
  const std::uint64_t max = r.U64();
  h->RestoreRaw(buckets, count, sum, min, max);
}

void PutDeviceState(ByteWriter& w, const SimDevice::State& s) {
  PutHist(w, s.service_hist);
  w.I64(s.busy_until);
  w.U64(s.tail_end_offset);
  w.Bool(s.tail_is_write);
  w.U64(s.depth);
  w.U64(s.max_depth);
  w.U64(s.total_requests);
  w.U64(s.coalesced_requests);
}

[[nodiscard]] SimDevice::State GetDeviceState(ByteReader& r) {
  SimDevice::State s;
  GetHist(r, &s.service_hist);
  s.busy_until = r.I64();
  s.tail_end_offset = r.U64();
  s.tail_is_write = r.Bool();
  s.depth = r.U64();
  s.max_depth = r.U64();
  s.total_requests = r.U64();
  s.coalesced_requests = r.U64();
  return s;
}

void PutFaultPlan(ByteWriter& w, const FaultPlan& p) {
  w.Bool(p.enabled);
  w.U64(p.seed);
  w.F64(p.read_eio_prob);
  w.F64(p.stat_eio_prob);
  w.F64(p.write_enospc_prob);
  w.F64(p.short_write_prob);
  w.I64(p.eio_latency);
  w.I64(p.stat_eio_latency);
  w.I64(p.degraded_disk);
  w.I64(p.degraded_period);
  w.F64(p.degraded_duty);
  w.F64(p.degraded_scale);
  w.F64(p.spike_prob);
  w.F64(p.spike_scale);
  w.I64(p.jitter_burst_period);
  w.F64(p.jitter_burst_duty);
  w.F64(p.jitter_burst_amplitude);
  w.I64(p.antagonist_period);
  w.U32(p.reader_burst_pages);
  w.U32(p.dirtier_burst_pages);
  w.I64(p.antagonist_disk);
  w.F64(p.net_drop_prob);
  w.I64(p.net_delay_period);
  w.F64(p.net_delay_duty);
  w.F64(p.net_delay_scale);
  w.I64(p.crash_at);
  w.I64(p.shock_period);
  w.I64(p.shock_duration);
  w.F64(p.shock_mem_fraction);
  w.I64(p.shock_alloc_stall);
}

[[nodiscard]] FaultPlan GetFaultPlan(ByteReader& r) {
  FaultPlan p;
  p.enabled = r.Bool();
  p.seed = r.U64();
  p.read_eio_prob = r.F64();
  p.stat_eio_prob = r.F64();
  p.write_enospc_prob = r.F64();
  p.short_write_prob = r.F64();
  p.eio_latency = r.I64();
  p.stat_eio_latency = r.I64();
  p.degraded_disk = static_cast<int>(r.I64());
  p.degraded_period = r.I64();
  p.degraded_duty = r.F64();
  p.degraded_scale = r.F64();
  p.spike_prob = r.F64();
  p.spike_scale = r.F64();
  p.jitter_burst_period = r.I64();
  p.jitter_burst_duty = r.F64();
  p.jitter_burst_amplitude = r.F64();
  p.antagonist_period = r.I64();
  p.reader_burst_pages = r.U32();
  p.dirtier_burst_pages = r.U32();
  p.antagonist_disk = static_cast<int>(r.I64());
  p.net_drop_prob = r.F64();
  p.net_delay_period = r.I64();
  p.net_delay_duty = r.F64();
  p.net_delay_scale = r.F64();
  p.crash_at = r.I64();
  p.shock_period = r.I64();
  p.shock_duration = r.I64();
  p.shock_mem_fraction = r.F64();
  p.shock_alloc_stall = r.I64();
  return p;
}

void PutNetSchedule(ByteWriter& w, const NetSchedule& n) {
  w.I64(n.latency);
  w.F64(n.bytes_per_sec);
  w.I64(n.send_overhead);
  w.F64(n.drop_prob);
  w.F64(n.reorder_prob);
  w.I64(n.reorder_delay);
  w.U64(n.queue_capacity);
  w.Bool(n.red);
  w.F64(n.red_min_fraction);
  w.F64(n.red_max_fraction);
  w.F64(n.red_max_prob);
  w.I64(n.recv_poll);
  w.U64(n.seed);
}

[[nodiscard]] NetSchedule GetNetSchedule(ByteReader& r) {
  NetSchedule n;
  n.latency = r.I64();
  n.bytes_per_sec = r.F64();
  n.send_overhead = r.I64();
  n.drop_prob = r.F64();
  n.reorder_prob = r.F64();
  n.reorder_delay = r.I64();
  n.queue_capacity = r.U64();
  n.red = r.Bool();
  n.red_min_fraction = r.F64();
  n.red_max_fraction = r.F64();
  n.red_max_prob = r.F64();
  n.recv_poll = r.I64();
  n.seed = r.U64();
  return n;
}

void PutOsStats(ByteWriter& w, const OsStats& s) {
  w.U64(s.syscalls);
  w.U64(s.batch_syscalls);
  w.U64(s.batched_ops);
  w.U64(s.cache_hits);
  w.U64(s.cache_misses);
  w.U64(s.disk_reads);
  w.U64(s.disk_writes);
  w.U64(s.swap_ins);
  w.U64(s.swap_outs);
  w.U64(s.readahead_pages);
  w.U64(s.writeback_pages);
  w.U64(s.daemon_wakeups);
  w.U64(s.queued_disk_requests);
  w.U64(s.net_sends);
  w.U64(s.net_recvs);
  w.U64(s.fsyncs);
  w.U64(s.syncfs_calls);
}

[[nodiscard]] OsStats GetOsStats(ByteReader& r) {
  OsStats s;
  s.syscalls = r.U64();
  s.batch_syscalls = r.U64();
  s.batched_ops = r.U64();
  s.cache_hits = r.U64();
  s.cache_misses = r.U64();
  s.disk_reads = r.U64();
  s.disk_writes = r.U64();
  s.swap_ins = r.U64();
  s.swap_outs = r.U64();
  s.readahead_pages = r.U64();
  s.writeback_pages = r.U64();
  s.daemon_wakeups = r.U64();
  s.queued_disk_requests = r.U64();
  s.net_sends = r.U64();
  s.net_recvs = r.U64();
  s.fsyncs = r.U64();
  s.syncfs_calls = r.U64();
  return s;
}

void PutChaosStats(ByteWriter& w, const ChaosStats& s) {
  w.U64(s.injected_read_errors);
  w.U64(s.injected_stat_errors);
  w.U64(s.injected_write_errors);
  w.U64(s.short_writes);
  w.U64(s.disk_spikes);
  w.U64(s.degraded_requests);
  w.U64(s.reader_ticks);
  w.U64(s.dirtier_ticks);
  w.U64(s.antagonist_pages);
  w.U64(s.pressure_shocks);
  w.U64(s.stalled_allocs);
  w.U64(s.injected_net_drops);
  w.U64(s.delayed_net_messages);
}

[[nodiscard]] ChaosStats GetChaosStats(ByteReader& r) {
  ChaosStats s;
  s.injected_read_errors = r.U64();
  s.injected_stat_errors = r.U64();
  s.injected_write_errors = r.U64();
  s.short_writes = r.U64();
  s.disk_spikes = r.U64();
  s.degraded_requests = r.U64();
  s.reader_ticks = r.U64();
  s.dirtier_ticks = r.U64();
  s.antagonist_pages = r.U64();
  s.pressure_shocks = r.U64();
  s.stalled_allocs = r.U64();
  s.injected_net_drops = r.U64();
  s.delayed_net_messages = r.U64();
  return s;
}

// ---- FlatMap: exact slot layout -------------------------------------------
// Written as (capacity, live count, then per live slot: index, key, value).
// The exact open-addressing layout is machine state: ForEach order is layout
// order, and a map rebuilt by reinsertion could legally iterate differently
// — enough to diverge a bit-identical replay.

template <typename V, typename PutV>
void PutFlatMap(ByteWriter& w, const FlatMap<V>& m, PutV put_value) {
  const std::size_t cap = m.slot_count();
  w.U64(cap);
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < cap; ++i) {
    if (m.slot_key(i) != FlatMap<V>::kEmptyKey) {
      ++live;
    }
  }
  w.U64(live);
  for (std::size_t i = 0; i < cap; ++i) {
    if (m.slot_key(i) == FlatMap<V>::kEmptyKey) {
      continue;
    }
    w.U64(i);
    w.U64(m.slot_key(i));
    put_value(m.slot_value(i));
  }
}

template <typename V, typename GetV>
[[nodiscard]] bool GetFlatMap(ByteReader& r, FlatMap<V>* m, GetV get_value) {
  const std::uint64_t cap = r.U64();
  // Power-of-two (or empty) capacity, bounded well past any real machine
  // (2^28 slots ≈ 4 GB of page keys) so a corrupt count cannot OOM us.
  if (!r.ok() || cap > (1ULL << 28) || (cap != 0 && (cap & (cap - 1)) != 0)) {
    return false;
  }
  const std::uint64_t live = r.Count(17);  // index + key + >= 1 value byte
  if (!r.ok() || live > cap) {
    return false;
  }
  m->RestoreRawLayout(static_cast<std::size_t>(cap));
  for (std::uint64_t n = 0; n < live; ++n) {
    const std::uint64_t idx = r.U64();
    const std::uint64_t key = r.U64();
    if (!r.ok() || idx >= cap || key == FlatMap<V>::kEmptyKey) {
      return false;
    }
    m->RestoreRawSlot(static_cast<std::size_t>(idx), key, get_value());
  }
  return r.ok();
}

// ---- section payloads ------------------------------------------------------

void PutIdentity(ByteWriter& w, const MachineImage& image) {
  w.U32(image.id);
  w.U64(image.root_seed);
}

void PutConfig(ByteWriter& w, const MachineImage& image) {
  const PlatformProfile& p = image.os.profile;
  w.Str(p.name);
  w.U8(static_cast<std::uint8_t>(p.mem_policy));
  w.U64(p.file_cache_bytes);
  w.U8(static_cast<std::uint8_t>(p.fs_allocator));
  w.Bool(p.readahead);
  w.Bool(p.has_mincore);

  const MachineConfig& c = image.os.config;
  w.U64(c.phys_mem_bytes);
  w.U64(c.kernel_reserved_bytes);
  w.U32(c.page_size);
  w.I64(c.num_disks);
  w.U64(c.disk_geometry.capacity_bytes);
  w.U32(c.disk_geometry.rpm);
  w.F64(c.disk_geometry.min_seek_ms);
  w.F64(c.disk_geometry.full_stroke_seek_ms);
  w.F64(c.disk_geometry.transfer_mb_per_s);
  w.F64(c.disk_geometry.controller_overhead_us);
  w.U64(c.disk_geometry.cylinder_span_bytes);
  w.F64(c.disk_geometry.inter_request_rotation_miss_ms);
  w.U32(c.fs_params.block_size);
  w.U64(c.fs_params.total_blocks);
  w.U64(c.fs_params.blocks_per_cg);
  w.U32(c.fs_params.inodes_per_cg);
  w.U32(c.fs_params.inode_size);
  w.U8(static_cast<std::uint8_t>(c.fs_params.allocator));
  w.U32(c.fs_params.sparse_file_gap_blocks);
  w.I64(c.costs.syscall_overhead);
  w.F64(c.costs.copy_mb_per_s);
  w.I64(c.costs.mem_touch);
  w.I64(c.costs.zero_fill_page);
  w.I64(c.costs.page_fault_overhead);
  w.F64(c.costs.cpu_scan_mb_per_s);
  w.F64(c.costs.cpu_sort_mb_per_s);
  w.I64(c.costs.fork_exec);
  w.I64(c.scheduler_slice);
  w.F64(c.timing_jitter);
  w.U64(c.jitter_seed);
  w.U64(c.event_tie_seed);
  w.F64(c.dirty_ratio);
  w.U32(c.readahead_min_pages);
  w.U32(c.readahead_max_pages);
  PutFaultPlan(w, c.chaos);
  PutNetSchedule(w, c.net);
}

[[nodiscard]] bool GetConfig(ByteReader& r, PlatformProfile* profile, MachineConfig* config) {
  profile->name = r.Str();
  profile->mem_policy = static_cast<MemPolicy>(r.U8());
  profile->file_cache_bytes = r.U64();
  profile->fs_allocator = static_cast<AllocatorKind>(r.U8());
  profile->readahead = r.Bool();
  profile->has_mincore = r.Bool();

  config->phys_mem_bytes = r.U64();
  config->kernel_reserved_bytes = r.U64();
  config->page_size = r.U32();
  config->num_disks = static_cast<int>(r.I64());
  config->disk_geometry.capacity_bytes = r.U64();
  config->disk_geometry.rpm = r.U32();
  config->disk_geometry.min_seek_ms = r.F64();
  config->disk_geometry.full_stroke_seek_ms = r.F64();
  config->disk_geometry.transfer_mb_per_s = r.F64();
  config->disk_geometry.controller_overhead_us = r.F64();
  config->disk_geometry.cylinder_span_bytes = r.U64();
  config->disk_geometry.inter_request_rotation_miss_ms = r.F64();
  config->fs_params.block_size = r.U32();
  config->fs_params.total_blocks = r.U64();
  config->fs_params.blocks_per_cg = r.U64();
  config->fs_params.inodes_per_cg = r.U32();
  config->fs_params.inode_size = r.U32();
  config->fs_params.allocator = static_cast<AllocatorKind>(r.U8());
  config->fs_params.sparse_file_gap_blocks = r.U32();
  config->costs.syscall_overhead = r.I64();
  config->costs.copy_mb_per_s = r.F64();
  config->costs.mem_touch = r.I64();
  config->costs.zero_fill_page = r.I64();
  config->costs.page_fault_overhead = r.I64();
  config->costs.cpu_scan_mb_per_s = r.F64();
  config->costs.cpu_sort_mb_per_s = r.F64();
  config->costs.fork_exec = r.I64();
  config->scheduler_slice = r.I64();
  config->timing_jitter = r.F64();
  config->jitter_seed = r.U64();
  config->event_tie_seed = r.U64();
  config->dirty_ratio = r.F64();
  config->readahead_min_pages = r.U32();
  config->readahead_max_pages = r.U32();
  config->chaos = GetFaultPlan(r);
  config->net = GetNetSchedule(r);
  // Sanity floor: a config that fails these would make the object graph
  // below inconsistent (division by zero page size, no disks to restore).
  if (!r.ok() || config->page_size == 0 || config->num_disks < 1 ||
      config->num_disks > 64 ||
      config->phys_mem_bytes <= config->kernel_reserved_bytes) {
    return false;
  }
  return true;
}

void PutKernel(ByteWriter& w, const Os::Image& os) {
  w.I64(os.now);
  PutRngState(w, os.kernel.tie_rng);
  w.U64(os.kernel.next_id);
  w.U64(os.kernel.scheduled_total);
  PutRngState(w, os.jitter_rng);
  w.U64(os.events.size());
  for (const EventQueue::RawEvent& ev : os.events) {
    w.I64(ev.when);
    w.U64(ev.tie);
    w.U64(ev.id);
    w.U32(ev.desc.kind);
    w.I64(ev.desc.dev);
    for (const std::uint64_t a : ev.desc.arg) {
      w.U64(a);
    }
    w.U8(static_cast<std::uint8_t>(ev.band));
  }
}

[[nodiscard]] bool GetKernel(ByteReader& r, Os::Image* os) {
  os->now = r.I64();
  os->kernel.tie_rng = GetRngState(r);
  os->kernel.next_id = r.U64();
  os->kernel.scheduled_total = r.U64();
  os->jitter_rng = GetRngState(r);
  os->events.resize(r.Count(85));  // 8+8+8 + 4+8+48 + 1
  for (EventQueue::RawEvent& ev : os->events) {
    ev.when = r.I64();
    ev.tie = r.U64();
    ev.id = r.U64();
    ev.desc.kind = r.U32();
    ev.desc.dev = static_cast<std::int32_t>(r.I64());
    for (std::uint64_t& a : ev.desc.arg) {
      a = r.U64();
    }
    const std::uint8_t band = r.U8();
    if (band > 1) {
      return false;
    }
    ev.band = static_cast<EventQueue::Band>(band);
  }
  return r.ok();
}

void PutMem(ByteWriter& w, const Os::Image& os) {
  const FrameTable& frames = os.mem->frames();
  const std::size_t n = frames.hot_array().size();
  w.U64(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FrameHot& h = frames.hot_array()[i];
    w.U32(h.lru_prev);
    w.U32(h.lru_next);
    w.U32(h.dirty_prev);
    w.U32(h.dirty_next);
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.U64(frames.touch_array()[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.U8(frames.flags_array()[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.U64(frames.key1_array()[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.U64(frames.key2_array()[i]);
  }
  w.U64(frames.free_list().size());
  for (const FrameId f : frames.free_list()) {
    w.U32(f);
  }
  // Intrusive-list heads (links live in the slab above).
  w.U32(os.mem->file_lru().front());
  w.U32(os.mem->file_lru().back());
  w.U64(os.mem->file_lru().size());
  w.U32(os.mem->anon_lru().front());
  w.U32(os.mem->anon_lru().back());
  w.U64(os.mem->anon_lru().size());
  w.U64(os.mem->file_pages());
  w.U64(os.mem->anon_pages());
  w.U64(os.mem->touch_seq());
  const MemStats& ms = os.mem->stats();
  w.U64(ms.evictions);
  w.U64(ms.file_evictions);
  w.U64(ms.anon_evictions);
  w.U64(ms.admissions_denied);

  PutFlatMap(w, os.cache->pages_map(), [&w](const FrameId& f) { w.U32(f); });
  // Only the page counts: each file's page span is derived state, rebuilt
  // from the page table on load.
  PutFlatMap(w, os.cache->files(), [&w](const PageCache::FileState& f) { w.U64(f.pages); });
  w.U32(os.cache->dirty_list().front());
  w.U32(os.cache->dirty_list().back());
  w.U64(os.cache->dirty_list().size());

  os.vm->SerializeTo(w);
}

[[nodiscard]] bool GetMem(ByteReader& r, Os::Image* os) {
  const std::uint64_t n = r.Count(41);  // 16 + 8 + 1 + 8 + 8 bytes per frame
  if (!r.ok()) {
    return false;
  }
  std::vector<FrameHot> hot(n);
  for (FrameHot& h : hot) {
    h.lru_prev = r.U32();
    h.lru_next = r.U32();
    h.dirty_prev = r.U32();
    h.dirty_next = r.U32();
  }
  std::vector<std::uint64_t> touch(n);
  for (std::uint64_t& t : touch) {
    t = r.U64();
  }
  std::vector<std::uint8_t> flags(n);
  for (std::uint8_t& f : flags) {
    f = r.U8();
  }
  std::vector<std::uint64_t> key1(n);
  for (std::uint64_t& k : key1) {
    k = r.U64();
  }
  std::vector<std::uint64_t> key2(n);
  for (std::uint64_t& k : key2) {
    k = r.U64();
  }
  std::vector<FrameId> free_frames(r.Count(4));
  for (FrameId& f : free_frames) {
    f = r.U32();
  }
  if (!r.ok()) {
    return false;
  }
  os->mem->frames().RestoreArrays(std::move(hot), std::move(touch), std::move(flags),
                                  std::move(key1), std::move(key2), std::move(free_frames));
  LruList file_lru;
  LruList anon_lru;
  {
    const FrameId head = r.U32();
    const FrameId tail = r.U32();
    file_lru.RestoreRaw(head, tail, r.U64());
    const FrameId ahead = r.U32();
    const FrameId atail = r.U32();
    anon_lru.RestoreRaw(ahead, atail, r.U64());
  }
  os->mem->RestoreLists(file_lru, anon_lru);
  const std::uint64_t file_pages = r.U64();
  const std::uint64_t anon_pages = r.U64();
  const std::uint64_t touch_seq = r.U64();
  MemStats ms;
  ms.evictions = r.U64();
  ms.file_evictions = r.U64();
  ms.anon_evictions = r.U64();
  ms.admissions_denied = r.U64();
  os->mem->RestoreCounters(file_pages, anon_pages, touch_seq, ms);

  if (!GetFlatMap(r, &os->cache->pages_map_mutable(),
                  [&r]() -> FrameId { return r.U32(); })) {
    return false;
  }
  if (!GetFlatMap(r, &os->cache->files_mutable(),
                  [&r]() { return PageCache::FileState{r.U64(), 0}; })) {
    return false;
  }
  os->cache->RebuildPageSpans();
  DirtyList dirty;
  {
    const FrameId head = r.U32();
    const FrameId tail = r.U32();
    dirty.RestoreRaw(head, tail, r.U64());
  }
  os->cache->RestoreDirtyList(dirty);

  return os->vm->DeserializeFrom(r) && r.ok();
}

void PutTables(ByteWriter& w, const Os::Image& os) {
  w.U64(os.fd_tables.size());
  for (const auto& table : os.fd_tables) {
    w.U64(table.size());
    for (const auto& fd : table) {
      w.Bool(fd.open);
      w.I64(fd.disk);
      w.U32(fd.inum);
      w.U64(fd.offset);
      w.U64(fd.next_seq_offset);
      w.U32(fd.ra_window_pages);
    }
  }
  PutFlatMap(w, os.inflight_reads, [&w](const auto& fill) {
    w.I64(fill.completion);
    w.U64(fill.token);
  });
  w.U64(os.next_read_token);
  w.Bool(os.flush_daemon_scheduled);
  w.Bool(os.page_daemon_scheduled);
  w.U32(os.next_pid);
  PutOsStats(w, os.os_stats);
}

[[nodiscard]] bool GetTables(ByteReader& r, Os::Image* os) {
  os->fd_tables.resize(r.Count(8));
  for (auto& table : os->fd_tables) {
    table.resize(r.Count(26));  // 1 + 8 + 4 + 8 + 8 + 4 per FdEntry (-3 slack)
    for (auto& fd : table) {
      fd.open = r.Bool();
      fd.disk = static_cast<int>(r.I64());
      fd.inum = r.U32();
      fd.offset = r.U64();
      fd.next_seq_offset = r.U64();
      fd.ra_window_pages = r.U32();
    }
  }
  // InflightRead is a private Os type; deduce it from the map's own value
  // accessor (access control restricts the name, not the type).
  using Fill = std::remove_cvref_t<decltype(os->inflight_reads.slot_value(0))>;
  if (!GetFlatMap(r, &os->inflight_reads, [&r]() {
        Fill fill;
        fill.completion = r.I64();
        fill.token = r.U64();
        return fill;
      })) {
    return false;
  }
  os->next_read_token = r.U64();
  os->flush_daemon_scheduled = r.Bool();
  os->page_daemon_scheduled = r.Bool();
  os->next_pid = r.U32();
  os->os_stats = GetOsStats(r);
  return r.ok();
}

void PutNet(ByteWriter& w, const NetDevice::State& s) {
  PutDeviceState(w, s.link);
  PutRngState(w, s.rng);
  w.U64(s.endpoints.size());
  for (const NetDevice::Endpoint& ep : s.endpoints) {
    w.U64(ep.inbox.size());
    for (const NetMessage& m : ep.inbox) {
      w.I64(m.from);
      w.U64(m.bytes);
      w.U64(m.tag);
      w.U64(m.seq);
      w.I64(m.sent_at);
    }
    w.U64(ep.in_flight.size());
    for (const Nanos t : ep.in_flight) {
      w.I64(t);
    }
    w.Bool(ep.closed);
  }
  PutHist(w, s.delivery_hist);
  w.U64(s.next_seq);
  w.U64(s.sent);
  w.U64(s.delivered);
  w.U64(s.loss_drops);
  w.U64(s.congestion_drops);
  w.U64(s.red_drops);
  w.U64(s.chaos_drops);
  w.U64(s.reordered);
}

[[nodiscard]] bool GetNet(ByteReader& r, NetDevice::State* s) {
  s->link = GetDeviceState(r);
  s->rng = GetRngState(r);
  s->endpoints.resize(r.Count(17));
  for (NetDevice::Endpoint& ep : s->endpoints) {
    const std::uint64_t inbox = r.Count(40);
    ep.inbox.clear();
    for (std::uint64_t i = 0; i < inbox; ++i) {
      NetMessage m;
      m.from = static_cast<std::int32_t>(r.I64());
      m.bytes = r.U64();
      m.tag = r.U64();
      m.seq = r.U64();
      m.sent_at = r.I64();
      ep.inbox.push_back(m);
    }
    ep.in_flight.resize(r.Count(8));
    for (Nanos& t : ep.in_flight) {
      t = r.I64();
    }
    ep.closed = r.Bool();
  }
  GetHist(r, &s->delivery_hist);
  s->next_seq = r.U64();
  s->sent = r.U64();
  s->delivered = r.U64();
  s->loss_drops = r.U64();
  s->congestion_drops = r.U64();
  s->red_drops = r.U64();
  s->chaos_drops = r.U64();
  s->reordered = r.U64();
  return r.ok();
}

void PutChaos(ByteWriter& w, const Os::Image& os) {
  w.Bool(os.chaos_armed);
  PutFaultPlan(w, os.chaos_plan);
  PutRngState(w, os.chaos_rng);
  PutChaosStats(w, os.chaos_stats);
  w.U64(os.chaos_epoch);
  w.U64(os.antagonist_reader_pos);
  w.U64(os.antagonist_dirty_pos);
}

[[nodiscard]] bool GetChaos(ByteReader& r, Os::Image* os) {
  os->chaos_armed = r.Bool();
  os->chaos_plan = GetFaultPlan(r);
  os->chaos_rng = GetRngState(r);
  os->chaos_stats = GetChaosStats(r);
  os->chaos_epoch = r.U64();
  os->antagonist_reader_pos = r.U64();
  os->antagonist_dirty_pos = r.U64();
  return r.ok();
}

// ---- file assembly ---------------------------------------------------------

// Frames one section in place at the end of `file`: the tag, then a length
// and a CRC that are patched once `put_payload` has written the bytes behind
// them.
template <typename PutPayload>
void AppendSection(ByteWriter& file, Section tag, PutPayload put_payload) {
  file.U32(static_cast<std::uint32_t>(tag));
  const std::size_t frame = file.size();
  file.U64(0);  // payload length
  file.U32(0);  // payload CRC32
  const std::size_t start = file.size();
  put_payload(file);
  const std::size_t len = file.size() - start;
  file.PatchU64(frame, len);
  file.PatchU32(frame + 8, Crc32(file.data().data() + start, len));
}

// Durable write: tmp file + fsync + rename + directory fsync — the host-side
// twin of the write-order model the simulated kernel exposes through Fsync.
[[nodiscard]] bool WriteFileDurably(const std::string& path,
                                    const std::vector<std::uint8_t>& bytes,
                                    std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    Fail(error, "open " + tmp + ": " + std::strerror(errno));
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      Fail(error, "write " + tmp + ": " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Fail(error, "fsync " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    Fail(error, "close " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Fail(error, "rename " + tmp + " -> " + path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  // fsync the directory so the rename itself is durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> EncodeMachineImage(const MachineImage& image) {
  const Os::Image& os = image.os;
  ByteWriter file;
  file.Bytes(kMagic, sizeof kMagic);
  file.U32(kMachineImageFormatVersion);
  file.U32(static_cast<std::uint32_t>(std::size(kSectionOrder)));

  AppendSection(file, Section::kIdentity, [&image](ByteWriter& w) { PutIdentity(w, image); });
  AppendSection(file, Section::kConfig, [&image](ByteWriter& w) { PutConfig(w, image); });
  AppendSection(file, Section::kKernel, [&os](ByteWriter& w) { PutKernel(w, os); });
  AppendSection(file, Section::kFilesystems, [&os](ByteWriter& w) {
    w.U64(os.filesystems.size());
    for (const Ffs& fs : os.filesystems) {
      fs.SerializeTo(w);
    }
  });
  AppendSection(file, Section::kDisks, [&os](ByteWriter& w) {
    w.U64(os.disks.size());
    for (const Disk& d : os.disks) {
      w.U64(d.head_pos());
      w.Bool(d.head_valid());
      const DiskStats& s = d.stats();
      w.U64(s.requests);
      w.U64(s.sequential_requests);
      w.U64(s.seeks);
      w.U64(s.bytes_read);
      w.U64(s.bytes_written);
      w.I64(s.busy_time);
    }
    w.U64(os.disk_devices.size());
    for (const SimDevice::State& s : os.disk_devices) {
      PutDeviceState(w, s);
    }
  });
  AppendSection(file, Section::kNet, [&os](ByteWriter& w) { PutNet(w, os.net); });
  AppendSection(file, Section::kMem, [&os](ByteWriter& w) { PutMem(w, os); });
  AppendSection(file, Section::kTables, [&os](ByteWriter& w) { PutTables(w, os); });
  AppendSection(file, Section::kChaos, [&os](ByteWriter& w) { PutChaos(w, os); });
  return file.Take();
}

bool SaveMachineImage(const MachineImage& image, const std::string& path, std::string* error) {
  return WriteFileDurably(path, EncodeMachineImage(image), error);
}

bool DecodeMachineImage(std::span<const std::uint8_t> bytes, MachineImage* out,
                        std::string* error) {
  ByteReader header(bytes.data(), bytes.size());
  std::uint8_t magic[sizeof kMagic];
  if (!header.Bytes(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    Fail(error, "not a graysim machine image (bad magic)");
    return false;
  }
  const std::uint32_t version = header.U32();
  if (!header.ok() || version != kMachineImageFormatVersion) {
    Fail(error, "unsupported format version " + std::to_string(version));
    return false;
  }
  const std::uint32_t section_count = header.U32();
  if (!header.ok() || section_count != std::size(kSectionOrder)) {
    Fail(error, "unexpected section count");
    return false;
  }

  // Verify framing and CRCs for EVERY section before parsing any: a file
  // with a corrupt later section must be rejected without side effects.
  struct RawSection {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };
  RawSection sections[std::size(kSectionOrder)];
  for (std::size_t i = 0; i < std::size(kSectionOrder); ++i) {
    const std::uint32_t tag = header.U32();
    const std::uint64_t len = header.U64();
    const std::uint32_t crc = header.U32();
    if (!header.ok() || tag != static_cast<std::uint32_t>(kSectionOrder[i]) ||
        len > header.remaining()) {
      Fail(error, "truncated or malformed section table");
      return false;
    }
    const std::uint8_t* payload = header.Take(static_cast<std::size_t>(len));
    if (Crc32(payload, static_cast<std::size_t>(len)) != crc) {
      Fail(error, "section " + std::to_string(tag) + " checksum mismatch");
      return false;
    }
    sections[i] = RawSection{payload, static_cast<std::size_t>(len)};
  }
  if (header.remaining() != 0) {
    Fail(error, "trailing bytes after last section");
    return false;
  }

  auto reader = [&sections](Section s) {
    const RawSection& raw = sections[static_cast<std::size_t>(s) - 1];
    return ByteReader(raw.data, raw.size);
  };

  MachineImage image;
  {
    ByteReader r = reader(Section::kIdentity);
    image.id = r.U32();
    image.root_seed = r.U64();
    if (!r.Done()) {
      Fail(error, "malformed identity section");
      return false;
    }
  }
  {
    ByteReader r = reader(Section::kConfig);
    if (!GetConfig(r, &image.os.profile, &image.os.config) || !r.Done()) {
      Fail(error, "malformed config section");
      return false;
    }
  }
  const PlatformProfile& profile = image.os.profile;
  const MachineConfig& config = image.os.config;
  {
    ByteReader r = reader(Section::kKernel);
    if (!GetKernel(r, &image.os) || !r.Done()) {
      Fail(error, "malformed kernel section");
      return false;
    }
  }
  {
    ByteReader r = reader(Section::kFilesystems);
    const std::uint64_t n = r.Count(32);
    if (!r.ok() || n != static_cast<std::uint64_t>(config.num_disks)) {
      Fail(error, "filesystem count mismatch");
      return false;
    }
    // Construct with the config's fs params (as the Os constructor does);
    // DeserializeFrom overwrites every field including the params.
    FsParams fs_params = config.fs_params;
    fs_params.block_size = config.page_size;
    fs_params.allocator = profile.fs_allocator;
    image.os.filesystems.reserve(n);
    for (std::uint64_t d = 0; d < n; ++d) {
      image.os.filesystems.emplace_back(fs_params, config.disk_geometry.capacity_bytes);
      if (!image.os.filesystems.back().DeserializeFrom(r)) {
        Fail(error, "malformed filesystem " + std::to_string(d));
        return false;
      }
    }
    if (!r.Done()) {
      Fail(error, "malformed filesystem section");
      return false;
    }
  }
  {
    ByteReader r = reader(Section::kDisks);
    const std::uint64_t n = r.Count(57);
    if (!r.ok() || n != static_cast<std::uint64_t>(config.num_disks)) {
      Fail(error, "disk count mismatch");
      return false;
    }
    image.os.disks.reserve(n);
    for (std::uint64_t d = 0; d < n; ++d) {
      image.os.disks.emplace_back(config.disk_geometry, static_cast<int>(d));
      const std::uint64_t head_pos = r.U64();
      const bool head_valid = r.Bool();
      DiskStats s;
      s.requests = r.U64();
      s.sequential_requests = r.U64();
      s.seeks = r.U64();
      s.bytes_read = r.U64();
      s.bytes_written = r.U64();
      s.busy_time = r.I64();
      image.os.disks.back().RestoreState(head_pos, head_valid, s);
    }
    const std::uint64_t nd = r.Count(8);
    if (!r.ok() || nd != n) {
      Fail(error, "disk device count mismatch");
      return false;
    }
    image.os.disk_devices.reserve(nd);
    for (std::uint64_t d = 0; d < nd; ++d) {
      image.os.disk_devices.push_back(GetDeviceState(r));
    }
    if (!r.Done()) {
      Fail(error, "malformed disk section");
      return false;
    }
  }
  {
    ByteReader r = reader(Section::kNet);
    if (!GetNet(r, &image.os.net) || !r.Done()) {
      Fail(error, "malformed net section");
      return false;
    }
  }
  {
    // Build the memory hierarchy exactly as the Os constructor sizes it,
    // then overwrite with the captured state (mirrors Os::CaptureImage).
    image.os.mem = std::make_unique<MemSystem>(MemSystem::Config{
        (config.phys_mem_bytes - config.kernel_reserved_bytes) / config.page_size,
        profile.mem_policy, profile.file_cache_bytes / config.page_size});
    image.os.cache = std::make_unique<PageCache>(image.os.mem.get());
    image.os.vm = std::make_unique<Vm>(image.os.mem.get());
    ByteReader r = reader(Section::kMem);
    if (!GetMem(r, &image.os) || !r.Done()) {
      Fail(error, "malformed memory section");
      return false;
    }
  }
  {
    ByteReader r = reader(Section::kTables);
    if (!GetTables(r, &image.os) || !r.Done()) {
      Fail(error, "malformed tables section");
      return false;
    }
  }
  {
    ByteReader r = reader(Section::kChaos);
    if (!GetChaos(r, &image.os) || !r.Done()) {
      Fail(error, "malformed chaos section");
      return false;
    }
  }

  *out = std::move(image);
  return true;
}

bool LoadMachineImage(const std::string& path, MachineImage* out, std::string* error) {
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
      Fail(error, "cannot open " + path);
      return false;
    }
    const std::streamsize size = in.tellg();
    in.seekg(0);
    bytes.resize(static_cast<std::size_t>(size));
    if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
      Fail(error, "cannot read " + path);
      return false;
    }
  }

  std::string why;
  if (!DecodeMachineImage(bytes, out, &why)) {
    Fail(error, path + ": " + why);
    return false;
  }
  return true;
}

}  // namespace graysim
