#include "src/os/os.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>

namespace graysim {

namespace {

constexpr int ToErr(FsErr err) { return -static_cast<int>(err); }

// Pages the page daemon reclaims per activation before re-arming; small
// batches keep its progress paced by the eviction I/O it submits.
constexpr std::uint64_t kPageDaemonBatch = 32;
// Re-arm interval while below the high watermark and no eviction I/O is
// outstanding (clean reclaim is CPU-bound).
constexpr Nanos kPageDaemonTick = Micros(100.0);

// Builds the snapshot descriptor scheduled alongside an event closure, so a
// machine image can rebuild the closure later (see Os::MaterializeEvent).
[[nodiscard]] EventDesc Desc(EventKind kind, std::int32_t dev = 0,
                             std::initializer_list<std::uint64_t> args = {}) {
  EventDesc d;
  d.kind = static_cast<std::uint32_t>(kind);
  d.dev = dev;
  std::size_t i = 0;
  for (const std::uint64_t a : args) {
    d.arg[i++] = a;
  }
  return d;
}

}  // namespace

Os::Sizing Os::SizeOf(const PlatformProfile& profile, const MachineConfig& config) {
  Sizing s;
  s.mem = MemSystem::Config{(config.phys_mem_bytes - config.kernel_reserved_bytes) /
                                config.page_size,
                            profile.mem_policy, profile.file_cache_bytes / config.page_size};
  s.num_disks = config.num_disks;
  const std::uint64_t disk_blocks = config.disk_geometry.capacity_bytes / config.page_size;
  s.data_fs = config.fs_params;
  s.data_fs.block_size = config.page_size;
  s.data_fs.allocator = profile.fs_allocator;
  if (s.data_fs.total_blocks == 0) {
    s.data_fs.total_blocks = disk_blocks;
  }
  // The swap disk's file system only uses the lower half; the upper half is
  // the paging area.
  s.swap_fs = s.data_fs;
  s.swap_fs.total_blocks = disk_blocks / 2;
  return s;
}

// `profile` binds as a reference, so it is sized before anything moves it.
Os::Os(PlatformProfile profile, MachineConfig config)
    : Os(SizeOf(profile, config), std::move(profile), config) {}

Os::Os(const Sizing& sizing, PlatformProfile&& profile, const MachineConfig& config)
    : profile_(std::move(profile)),
      config_(config),
      events_(config_.event_tie_seed),
      scheduler_(&clock_, &events_, config_.scheduler_slice),
      mem_(sizing.mem),
      cache_(&mem_),
      vm_(&mem_),
      jitter_rng_(config.jitter_seed) {
  assert(config_.num_disks >= 1);
  for (int d = 0; d < config_.num_disks; ++d) {
    disks_.emplace_back(config_.disk_geometry, d);
    filesystems_.push_back(
        std::make_unique<Ffs>(sizing.Fs(d), config_.disk_geometry.capacity_bytes));
  }
  // Queues are built after every Disk is emplaced: they hold raw pointers
  // into disks_, which must not reallocate afterwards.
  for (int d = 0; d < config_.num_disks; ++d) {
    disk_queues_.push_back(std::make_unique<DiskQueue>(&disks_[d], &clock_, &events_));
    disk_queues_.back()->set_jitter([this](Nanos cost) { return Jittered(cost); });
    disk_queues_.back()->device().set_snapshot_dev(d);
  }
  swap_disk_ = config_.num_disks - 1;
  swap_base_offset_ = config_.disk_geometry.capacity_bytes / 2;
  // Write-behind threshold. On the partitioned platform dirty data lives in
  // the fixed file partition, so the limit scales with that, not with all
  // of memory (which would never trigger).
  const std::uint64_t dirty_base = profile_.mem_policy == MemPolicy::kPartitionedFixedFile
                                       ? mem_.config().file_cache_pages
                                       : mem_.total_pages();
  dirty_limit_pages_ =
      static_cast<std::uint64_t>(static_cast<double>(dirty_base) * config_.dirty_ratio);
  page_daemon_low_pages_ = std::min<std::uint64_t>(256, mem_.total_pages() / 64);
  page_daemon_high_pages_ = 2 * page_daemon_low_pages_;

  mem_.set_evict_handler(this);

  // Wire the trace sink through the kernel components at construction so
  // StartTrace() later is a pure enable — no re-plumbing, and the track ids
  // are stable whether or not tracing is ever turned on.
  events_.set_trace(&trace_);
  scheduler_.set_trace(&trace_);
  for (int d = 0; d < config_.num_disks; ++d) {
    const std::uint32_t track = trace_.RegisterTrack("disk/" + std::to_string(d));
    disk_queues_[d]->set_trace(&trace_, track);
  }
  // The link is always constructed (an idle one schedules nothing and draws
  // nothing); timing noise on round trips comes from the jittered syscall
  // charges, so the link itself stays a pure function of NetSchedule::seed.
  net_ = std::make_unique<NetDevice>(config_.net, &clock_, &events_);
  net_->set_trace(&trace_, trace_.RegisterTrack("net/0"));

  fd_tables_.resize(1);  // default pid 0

  if (config_.chaos.enabled) {
    ArmChaos(config_.chaos);
  }
}

// ---- observability ----

void Os::StartTrace(std::size_t capacity) { trace_.Enable(capacity); }

void Os::BindMetrics(obs::MetricsRegistry* registry) const {
  obs::MetricsRegistry& r = *registry;
  // One counter per OsStats field, named "os." + the field name. The name is
  // built in place: one allocation at most, as for a literal.
  OsStats::VisitFields(os_stats_, [&r](std::string_view field, const std::uint64_t& value) {
    std::string name;
    name.reserve(3 + field.size());
    name.append("os.").append(field);
    r.AddCounter(std::move(name), &value);
  });
  r.AddGauge("os.events_scheduled", "", [this] {
    return static_cast<double>(events_.scheduled_total());
  });
  r.AddGauge("os.virtual_time_ns", "ns", [this] { return static_cast<double>(clock_.now()); });
  r.AddGauge("os.file_cache_pages", "pages", [this] {
    return static_cast<double>(cache_.resident_pages());
  });
  r.AddGauge("os.free_mem_bytes", "bytes", [this] {
    return static_cast<double>(FreeMemBytes());
  });
  // Chaos counters read through chaos_stats(): zeros when disarmed, and the
  // ChaosStats struct itself stays untouched for the determinism snapshots.
  r.AddGauge("chaos.injected_read_errors", "", [this] {
    return static_cast<double>(chaos_stats().injected_read_errors);
  });
  r.AddGauge("chaos.injected_write_errors", "", [this] {
    return static_cast<double>(chaos_stats().injected_write_errors);
  });
  r.AddGauge("chaos.injected_stat_errors", "", [this] {
    return static_cast<double>(chaos_stats().injected_stat_errors);
  });
  r.AddGauge("chaos.short_writes", "", [this] {
    return static_cast<double>(chaos_stats().short_writes);
  });
  r.AddGauge("chaos.disk_spikes", "", [this] {
    return static_cast<double>(chaos_stats().disk_spikes);
  });
  r.AddGauge("chaos.degraded_requests", "", [this] {
    return static_cast<double>(chaos_stats().degraded_requests);
  });
  r.AddGauge("chaos.antagonist_pages", "pages", [this] {
    return static_cast<double>(chaos_stats().antagonist_pages);
  });
  r.AddGauge("chaos.pressure_shocks", "", [this] {
    return static_cast<double>(chaos_stats().pressure_shocks);
  });
  r.AddGauge("chaos.stalled_allocs", "", [this] {
    return static_cast<double>(chaos_stats().stalled_allocs);
  });
  r.AddGauge("chaos.injected_net_drops", "", [this] {
    return static_cast<double>(chaos_stats().injected_net_drops);
  });
  r.AddGauge("chaos.delayed_net_messages", "", [this] {
    return static_cast<double>(chaos_stats().delayed_net_messages);
  });
  const NetDevice* net = net_.get();
  r.AddGauge("net0.sent", "", [net] { return static_cast<double>(net->sent()); });
  r.AddGauge("net0.delivered", "", [net] { return static_cast<double>(net->delivered()); });
  r.AddGauge("net0.dropped", "", [net] { return static_cast<double>(net->dropped()); });
  r.AddGauge("net0.congestion_drops", "",
             [net] { return static_cast<double>(net->congestion_drops()); });
  r.AddGauge("net0.reordered", "", [net] { return static_cast<double>(net->reordered()); });
  r.AddGauge("net0.link_busy_ns", "ns",
             [net] { return static_cast<double>(net->link().busy_until()); });
  r.AddHistogram("net0.delivery_ns", "ns", &net_->delivery_hist());
  r.AddHistogram("net0.service_ns", "ns", &net_->link().service_hist());
  for (int d = 0; d < num_disks(); ++d) {
    const std::string prefix = "disk" + std::to_string(d);
    const DiskStats& ds = disks_[d].stats();
    r.AddCounter(prefix + ".requests", &ds.requests);
    r.AddCounter(prefix + ".seeks", &ds.seeks);
    r.AddCounter(prefix + ".bytes_read", &ds.bytes_read, "bytes");
    r.AddCounter(prefix + ".bytes_written", &ds.bytes_written, "bytes");
    const DiskQueue* q = disk_queues_[d].get();
    r.AddGauge(prefix + ".coalesced_requests", "",
               [q] { return static_cast<double>(q->coalesced_requests()); });
    r.AddGauge(prefix + ".max_depth", "", [q] { return static_cast<double>(q->max_depth()); });
    r.AddGauge(prefix + ".busy_ns", "ns", [q] { return static_cast<double>(q->busy_until()); });
    r.AddHistogram(prefix + ".service_ns", "ns", &q->service_hist());
  }
}

// ---- chaos layer ----

void Os::ArmChaosHooks(const FaultPlan& plan) {
  chaos_ = std::make_unique<ChaosEngine>(plan);
  if (plan.degraded_period > 0 || plan.spike_prob > 0.0) {
    for (std::size_t d = 0; d < disk_queues_.size(); ++d) {
      const int disk = static_cast<int>(d);
      disk_queues_[d]->set_service_scale([this, disk](Nanos service) {
        return chaos_->ScaleService(disk, clock_.now(), service);
      });
    }
  }
  if (plan.net_drop_prob > 0.0) {
    net_->set_drop_hook([this] { return chaos_->InjectNetDrop(); });
  }
  if (plan.net_delay_period > 0) {
    net_->set_delay_scale([this](Nanos now) { return chaos_->NetDelayScale(now); });
  }
}

void Os::ArmChaos(const FaultPlan& plan) {
  DisarmChaos();
  if (!plan.enabled) {
    return;
  }
  const std::uint64_t epoch = ++chaos_epoch_;
  antagonist_reader_pos_ = 0;
  antagonist_dirty_pos_ = 0;
  ArmChaosHooks(plan);
  if (plan.antagonist_period > 0 &&
      (plan.reader_burst_pages > 0 || plan.dirtier_burst_pages > 0)) {
    events_.ScheduleAt(clock_.now() + plan.antagonist_period, EventQueue::Band::kCompletion,
                       [this, epoch] { AntagonistTick(epoch); },
                       Desc(EventKind::kAntagonistTick, 0, {epoch}));
  }
  if (plan.shock_period > 0 && plan.shock_mem_fraction > 0.0) {
    events_.ScheduleAt(clock_.now() + plan.shock_period, EventQueue::Band::kCompletion,
                       [this, epoch] { ShockTick(epoch); },
                       Desc(EventKind::kShockTick, 0, {epoch}));
  }
  // Crash-stop: a plain scheduled event, not a draw, so a crash-only plan
  // perturbs nothing before the instant. Guarded `> now` so re-arming after
  // recovery (crash_at now in the past) cannot re-fire it.
  if (plan.crash_at > clock_.now()) {
    events_.ScheduleAt(plan.crash_at, EventQueue::Band::kCompletion,
                       [this, epoch] { CrashNow(epoch); },
                       Desc(EventKind::kCrash, 0, {epoch}));
  }
}

void Os::DisarmChaos() {
  if (chaos_ == nullptr) {
    return;
  }
  ++chaos_epoch_;  // orphans pending antagonist/shock ticks
  for (auto& q : disk_queues_) {
    q->set_service_scale(nullptr);
  }
  net_->set_drop_hook(nullptr);
  net_->set_delay_scale(nullptr);
  const int disk = std::clamp(chaos_->plan().antagonist_disk, 0, num_disks() - 1);
  cache_.DropFile(Tag(disk, kAntagonistLocalInum));
  cache_.DropFile(Tag(0, kShockLocalInum));
  chaos_.reset();
}

// ---- crash-stop & recovery ----

void Os::CrashNow(std::uint64_t epoch) {
  if (chaos_ == nullptr || epoch != chaos_epoch_ || crashed_) {
    return;  // stale event from a disarmed/re-armed plan, or already down
  }
  // Runs inside EventQueue dispatch: throwing here would corrupt the queue
  // mid-batch, so only mark the machine dead and ready every sleeper. Each
  // fiber unwinds at its own next charge/wake boundary — the same place a
  // real interrupt would find it.
  crashed_ = true;
  crash_instant_ = clock_.now();
  scheduler_.WakeAll();
}

void Os::ThrowIfCrashed() {
  // Only fiber contexts unwind; standalone callers (benches driving pid 0
  // outside RunProcesses) observe the crash via crashed() instead — there
  // is no fiber stack to kill.
  if (crashed_ && scheduler_.active()) {
    throw CrashUnwind{};
  }
}

RecoveryStats Os::Recover() {
  assert(!in_scheduler_run_ && "recovery runs at quiescence");
  assert(crashed_ && "Recover without a crash");
  ++recovery_stats_.crashes;
  const Nanos start = clock_.now();

  // Volatile state dies. First the pending event population: every disk
  // WRITE whose completion has not fired is torn — the write-order model
  // says a write is durable exactly when its completion event runs. Reads
  // (kDeviceCompletion with arg[0]==0, kReadFillCompletion) lose nothing,
  // and dev == -1 is the net link, whose loss is not disk damage.
  for (const EventQueue::RawEvent& ev : events_.ExportPending()) {
    if (ev.desc.kind == static_cast<std::uint32_t>(EventKind::kDeviceCompletion) &&
        ev.desc.dev >= 0 && ev.desc.arg[0] == 1) {
      ++recovery_stats_.torn_writes;
    }
  }
  events_.DiscardPending();

  // The page cache is RAM: every page goes, and the dirty ones — writes
  // the kernel accepted but never made durable — are the lost work. Dirty
  // metadata blocks are tracked separately; fsck rewrites those below.
  std::vector<std::pair<Inum, std::uint64_t>> dirty;
  cache_.DropAll(&dirty);
  std::vector<std::pair<int, std::uint64_t>> meta_repairs;
  for (const auto& [inum, page] : dirty) {
    ++recovery_stats_.lost_dirty_pages;
    if (IsMetaInum(inum)) {
      ++recovery_stats_.repaired_meta_blocks;
      meta_repairs.emplace_back(DiskOfInum(inum), page);  // page IS the block
    }
  }
  inflight_reads_.Clear();
  fd_tables_.clear();
  fd_tables_.resize(1);  // default pid 0, as at construction
  flush_daemon_scheduled_ = false;
  page_daemon_scheduled_ = false;
  direct_reclaim_wait_ = 0;
  in_background_ = false;
  net_->CrashReset(clock_.now());
  for (auto& q : disk_queues_) {
    q->device().CrashReset(clock_.now());
  }
  crashed_ = false;

  // fsck: re-read every cylinder group's metadata range (superblock copy +
  // inode table) on every disk, then rewrite the metadata blocks that were
  // dirty in RAM at the crash — their on-disk copies are stale or torn.
  // All real, charged I/O on the restarted machine's timeline: recovery
  // latency is a measured output, not a constant.
  Nanos last = 0;
  for (int d = 0; d < num_disks(); ++d) {
    const Ffs& f = *filesystems_[d];
    for (std::size_t g = 0; g < f.GroupCount(); ++g) {
      const auto [first_block, data_start] = f.GroupMetaRange(g);
      last = std::max(last, SubmitDiskIo(d, first_block, data_start - first_block,
                                         /*is_write=*/false, nullptr));
    }
  }
  for (const auto& [d, block] : meta_repairs) {
    last = std::max(last, SubmitDiskIo(d, block, 1, /*is_write=*/true, nullptr));
  }
  WaitUntil(default_pid(), last);
  recovery_stats_.recovery_time = clock_.now() - start;

  // The interference environment reboots with the machine: re-arm the same
  // plan from scratch (fresh chaos RNG, fresh antagonist/shock ticks). The
  // guard in ArmChaos keeps the now-past crash_at from re-firing.
  if (chaos_ != nullptr) {
    const FaultPlan plan = chaos_->plan();
    ArmChaos(plan);
  }
  return recovery_stats_;
}

void Os::AntagonistTick(std::uint64_t epoch) {
  if (chaos_ == nullptr || epoch != chaos_epoch_) {
    return;
  }
  BackgroundScope background(this);  // antagonists are daemons, not processes
  trace_.Instant(obs::kTrackChaos, "antagonist", clock_.now());
  const FaultPlan& plan = chaos_->plan();
  ChaosStats& cs = chaos_->stats_mutable();
  const int disk = std::clamp(plan.antagonist_disk, 0, num_disks() - 1);
  const Inum tagged = Tag(disk, kAntagonistLocalInum);
  // Pseudo-file page keys double as disk blocks; keep them in the (always
  // file-system-backed) lower half of the device. Reader and dirtier work
  // disjoint halves of that range so they never collide.
  const std::uint64_t blocks = config_.disk_geometry.capacity_bytes / config_.page_size / 2;
  const std::uint64_t half = blocks / 2;

  Nanos io_done = 0;  // antagonists self-clock on their own I/O (below)
  if (plan.reader_burst_pages > 0) {
    ++cs.reader_ticks;
    const std::uint64_t start = antagonist_reader_pos_ % half;
    const std::uint64_t run = std::min<std::uint64_t>(plan.reader_burst_pages, half - start);
    antagonist_reader_pos_ = (start + run) % half;
    // One streaming read on the device (queue contention)...
    io_done = std::max(io_done, SubmitDiskIo(disk, start, run, /*is_write=*/false, nullptr));
    // ...whose pages land in the cache (LRU pollution).
    for (std::uint64_t k = 0; k < run; ++k) {
      if (!cache_.Resident(tagged, start + k)) {
        Nanos evict_cost = 0;
        (void)cache_.Insert(tagged, start + k, /*dirty=*/false, &evict_cost);
        ++cs.antagonist_pages;
      }
    }
  }

  // Dirtiers are throttled at the dirty limit, as real kernels throttle any
  // writer: an open-loop dirty source would outrun writeback bandwidth and
  // grow the disk queue (and virtual time) without bound.
  if (plan.dirtier_burst_pages > 0 && cache_.dirty_pages() < dirty_limit_pages_) {
    ++cs.dirtier_ticks;
    for (std::uint32_t k = 0; k < plan.dirtier_burst_pages; ++k) {
      const std::uint64_t block = half + (antagonist_dirty_pos_++ % half);
      Nanos evict_cost = 0;
      if (cache_.Resident(tagged, block)) {
        cache_.MarkDirty(tagged, block);
      } else if (!cache_.Insert(tagged, block, /*dirty=*/true, &evict_cost)) {
        // Sticky cache refused admission: write through.
        io_done = std::max(io_done, SubmitDiskIo(disk, block, 1, /*is_write=*/true, nullptr));
      }
      ++cs.antagonist_pages;
    }
    MaybeWakeFlushDaemon();
  }

  MaybeWakePageDaemon();
  // Self-clocking, like a real streaming process: the next burst cannot be
  // issued before this one's I/O completes. Without this the antagonist
  // outruns a degraded disk and the queue — and virtual time — diverge.
  const Nanos next = std::max(clock_.now() + plan.antagonist_period, io_done);
  events_.ScheduleAt(next, EventQueue::Band::kCompletion,
                     [this, epoch] { AntagonistTick(epoch); },
                     Desc(EventKind::kAntagonistTick, 0, {epoch}));
}

void Os::ShockTick(std::uint64_t epoch) {
  if (chaos_ == nullptr || epoch != chaos_epoch_) {
    return;
  }
  BackgroundScope background(this);
  const FaultPlan& plan = chaos_->plan();
  ++chaos_->stats_mutable().pressure_shocks;
  trace_.Instant(obs::kTrackChaos, "shock", clock_.now(), "grab_pages",
                 static_cast<std::uint64_t>(plan.shock_mem_fraction *
                                            static_cast<double>(mem_.total_pages())));
  const Inum tagged = Tag(0, kShockLocalInum);
  const std::uint64_t grab = static_cast<std::uint64_t>(
      plan.shock_mem_fraction * static_cast<double>(mem_.total_pages()));
  for (std::uint64_t k = 0; k < grab; ++k) {
    // Clean pages: the grab's job is cache displacement. The competitor's
    // contention cost is charged separately — every zero-fill inside the
    // shock window pays plan.shock_alloc_stall (see ChaosEngine::AllocStall)
    // — because an eviction-side charge would be absorbed by the background
    // page daemon and never reach a foreground prober's touch timings.
    if (!cache_.Resident(tagged, k)) {
      Nanos evict_cost = 0;
      (void)cache_.Insert(tagged, k, /*dirty=*/false, &evict_cost);
    }
  }
  MaybeWakePageDaemon();
  // Release the grabbed memory when the shock subsides.
  if (plan.shock_duration > 0) {
    events_.ScheduleAt(clock_.now() + plan.shock_duration, EventQueue::Band::kCompletion,
                       [this, epoch] {
                         if (chaos_ != nullptr && epoch == chaos_epoch_) {
                           cache_.DropFile(Tag(0, kShockLocalInum));
                         }
                       },
                       Desc(EventKind::kShockRelease, 0, {epoch}));
  }
  events_.ScheduleAt(clock_.now() + plan.shock_period, EventQueue::Band::kCompletion,
                     [this, epoch] { ShockTick(epoch); },
                     Desc(EventKind::kShockTick, 0, {epoch}));
}

Nanos Os::OnEvict(const Page& page) {
  if (page.kind == PageKind::kFile) {
    const Inum tagged = static_cast<Inum>(page.key1);
    // Cluster writeback: when reclaim lands on a dirty page, clean the
    // contiguous dirty run behind it in the same request (those pages are
    // next in LRU order anyway and will be reclaimed for free once clean).
    std::uint64_t run = 0;
    if (page.dirty) {
      run = cache_.CleanDirtyRunAfter(tagged, page.key2, 255);
    }
    const bool dirty = cache_.OnEvicted(page);
    if (!dirty) {
      return 0;
    }
    const int disk = DiskOfInum(tagged);
    std::uint64_t block = page.key2;
    if (!IsPseudoInum(tagged)) {
      if (filesystems_[disk]->BlockOf(LocalInum(tagged), page.key2, &block) != FsErr::kOk) {
        return 0;  // file vanished concurrently; nothing to write
      }
    }
    os_stats_.writeback_pages += 1 + run;
    const Nanos done = SubmitDiskIo(disk, block, 1 + run, /*is_write=*/true, nullptr);
    if (!in_background_) {
      // Direct reclaim in process context: the faulting process waits for
      // this writeback (DrainDirectReclaim), as real kernels make it.
      direct_reclaim_wait_ = std::max(direct_reclaim_wait_, done);
    }
    return 0;
  }
  const std::uint64_t slot = vm_.OnEvicted(page);
  ++os_stats_.swap_outs;
  const Nanos done = SubmitSwapIo(slot, /*is_write=*/true);
  if (!in_background_) {
    direct_reclaim_wait_ = std::max(direct_reclaim_wait_, done);
  }
  return 0;
}

// ---- helpers ----

bool Os::ParsePath(std::string_view path, PathRef* out) const {
  if (path.size() < 2 || path[0] != '/' || path[1] != 'd') {
    return false;
  }
  std::size_t i = 2;
  std::size_t disk = 0;
  bool any = false;
  while (i < path.size() && path[i] >= '0' && path[i] <= '9') {
    disk = disk * 10 + static_cast<std::size_t>(path[i] - '0');
    // Checked at every digit, so the next multiply cannot overflow.
    if (disk >= disks_.size()) {
      return false;
    }
    ++i;
    any = true;
  }
  if (!any) {
    return false;
  }
  if (i < path.size() && path[i] != '/') {
    return false;
  }
  out->disk = static_cast<int>(disk);
  out->sub = path.substr(i);
  return true;
}

Nanos Os::Jittered(Nanos cost) {
  double amplitude = config_.timing_jitter;
  if (chaos_ != nullptr) {
    // Jitter bursts are a square wave over virtual time, not a draw, so the
    // jitter stream consumes exactly one draw per charged cost either way.
    amplitude = chaos_->JitterAmplitude(clock_.now(), amplitude);
  }
  if (amplitude <= 0.0 || cost == 0) {
    return cost;
  }
  const double factor = 1.0 + amplitude * (2.0 * jitter_rng_.NextDouble() - 1.0);
  return static_cast<Nanos>(static_cast<double>(cost) * factor);
}

void Os::Charge(Pid pid, Nanos cost) {
  // Crash boundary, checked before the jitter draw so a dead machine stops
  // consuming the RNG stream, and again after the scheduler charge — the
  // crash event fires mid-advance, and the fiber must die on return rather
  // than run on past the instant.
  ThrowIfCrashed();
  cost = Jittered(cost);
  if (in_scheduler_run_ && pid < sched_slots_.size() && sched_slots_[pid] >= 0) {
    scheduler_.Charge(sched_slots_[pid], cost);
    ThrowIfCrashed();
    return;
  }
  clock_.Advance(cost);
  if (events_.next_time() <= clock_.now()) {
    events_.RunDue(clock_.now());
  }
}

void Os::WaitUntil(Pid pid, Nanos deadline) {
  if (in_scheduler_run_ && pid < sched_slots_.size() && sched_slots_[pid] >= 0) {
    // Blocking releases the CPU: other processes run until the deadline.
    scheduler_.SleepUntil(sched_slots_[pid], deadline);
    // A crash readies every sleeper early (WakeAll); the woken fiber dies
    // here instead of resuming its syscall against a dead machine.
    ThrowIfCrashed();
    return;
  }
  if (deadline > clock_.now()) {
    clock_.AdvanceTo(deadline);
  }
  events_.RunDue(clock_.now());
}

void Os::DrainDirectReclaim(Pid pid) {
  if (direct_reclaim_wait_ == 0) {
    return;
  }
  const Nanos deadline = direct_reclaim_wait_;
  direct_reclaim_wait_ = 0;
  WaitUntil(pid, deadline);
}

Nanos Os::SubmitDiskIo(int disk, std::uint64_t block, std::uint64_t pages, bool is_write,
                       DiskQueue::CompletionFn on_complete) {
  if (is_write) {
    ++os_stats_.disk_writes;
  } else {
    ++os_stats_.disk_reads;
  }
  ++os_stats_.queued_disk_requests;
  return disk_queues_[disk]->Submit(block * config_.page_size, pages * config_.page_size,
                                    is_write, on_complete);
}

Nanos Os::SubmitDiskIo(int disk, std::uint64_t block, std::uint64_t pages, bool is_write,
                       DiskQueue::CompletionFn on_complete, const EventDesc& desc) {
  if (is_write) {
    ++os_stats_.disk_writes;
  } else {
    ++os_stats_.disk_reads;
  }
  ++os_stats_.queued_disk_requests;
  return disk_queues_[disk]->Submit(block * config_.page_size, pages * config_.page_size,
                                    is_write, on_complete, desc);
}

Nanos Os::SubmitSwapIo(std::uint64_t slot, bool is_write) {
  const std::uint64_t offset = swap_base_offset_ + slot * config_.page_size;
  assert(offset + config_.page_size <= config_.disk_geometry.capacity_bytes);
  if (is_write) {
    ++os_stats_.disk_writes;
  } else {
    ++os_stats_.disk_reads;
  }
  ++os_stats_.queued_disk_requests;
  return disk_queues_[swap_disk_]->Submit(offset, config_.page_size, is_write, nullptr);
}

Nanos Os::SubmitReadFill(int disk, Inum tagged, std::uint64_t first_page,
                         std::uint64_t npages, std::uint64_t start_block, bool readahead) {
  const std::uint64_t token = next_read_token_++;
  const Nanos done = SubmitDiskIo(
      disk, start_block, npages, /*is_write=*/false,
      [this, tagged, first_page, npages, token, readahead] {
        FillPages(tagged, first_page, npages, token, readahead);
      },
      Desc(EventKind::kReadFillCompletion, disk,
           {tagged, first_page, npages, token, readahead ? 1u : 0u}));
  for (std::uint64_t k = 0; k < npages; ++k) {
    inflight_reads_[PageKey(tagged, first_page + k)] = InflightRead{done, token};
  }
  return done;
}

void Os::FillPages(Inum tagged, std::uint64_t first_page, std::uint64_t npages,
                   std::uint64_t token, bool readahead) {
  BackgroundScope background(this);  // runs off a completion event
  for (std::uint64_t k = 0; k < npages; ++k) {
    const std::uint64_t page = first_page + k;
    const InflightRead* fill = inflight_reads_.Find(PageKey(tagged, page));
    if (fill == nullptr || fill->token != token) {
      continue;  // invalidated (truncate/unlink/flush) while in flight
    }
    inflight_reads_.Erase(PageKey(tagged, page));
    if (cache_.Resident(tagged, page)) {
      continue;  // dirtied by an overlapping write while the read was queued
    }
    Nanos evict_cost = 0;
    (void)cache_.Insert(tagged, page, /*dirty=*/false, &evict_cost);
    if (readahead) {
      ++os_stats_.readahead_pages;
    }
  }
  MaybeWakePageDaemon();
}

void Os::InvalidateInflight(Inum tagged, std::uint64_t from_page) {
  inflight_reads_.EraseIf([tagged, from_page](std::uint64_t key, const InflightRead&) {
    return static_cast<Inum>(key >> 32) == tagged && (key & 0xFFFFFFFFULL) >= from_page;
  });
}

void Os::MetaRead(Pid pid, int disk, std::uint64_t block) {
  const Inum meta = Tag(disk, kMetaLocalInum);
  if (cache_.Access(meta, block)) {
    ++os_stats_.cache_hits;
    Charge(pid, config_.costs.mem_touch);
    return;
  }
  ++os_stats_.cache_misses;
  if (const InflightRead* fill = inflight_reads_.Find(PageKey(meta, block)); fill != nullptr) {
    WaitUntil(pid, fill->completion);
  } else {
    WaitUntil(pid, SubmitReadFill(disk, meta, block, 1, block, /*readahead=*/false));
  }
  Charge(pid, config_.costs.mem_touch);
}

void Os::MetaDirty(Pid pid, int disk, std::uint64_t block) {
  const Inum meta = Tag(disk, kMetaLocalInum);
  Nanos evict_cost = 0;
  if (cache_.Insert(meta, block, /*dirty=*/true, &evict_cost)) {
    DrainDirectReclaim(pid);  // any reclaim writeback triggered by the insert
    Charge(pid, config_.costs.mem_touch);
  } else {
    // Sticky cache refused admission: write through.
    WaitUntil(pid, SubmitDiskIo(disk, block, 1, /*is_write=*/true, nullptr));
  }
  MaybeWakeFlushDaemon();
}

void Os::ChargeWalk(Pid pid, int disk, const PathLookup& rec) {
  const auto read = [&](std::uint64_t block) { MetaRead(pid, disk, block); };
  filesystems_[disk]->WalkReads(rec, read);
}

int Os::AllocFd(Pid pid, int disk, Inum inum) {
  auto& table = fd_tables_[pid];
  const auto free_slot =
      std::find_if(table.begin(), table.end(), [](const FdEntry& e) { return !e.open; });
  const auto fd = static_cast<int>(free_slot - table.begin());
  if (free_slot == table.end()) {
    table.emplace_back();
  }
  table[fd] = FdEntry{true, disk, inum, 0, 0, 0};
  return fd;
}

std::uint8_t Os::ContentByte(Inum tagged, std::uint64_t offset) {
  std::uint64_t x = (static_cast<std::uint64_t>(tagged) << 32) ^ offset;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::uint8_t>(x & 0xff);
}

Os::FdEntry* Os::GetFd(Pid pid, int fd) {
  if (pid >= fd_tables_.size()) {
    return nullptr;
  }
  auto& table = fd_tables_[pid];
  if (fd < 0 || fd >= static_cast<int>(table.size()) || !table[fd].open) {
    return nullptr;
  }
  return &table[fd];
}

// ---- processes ----

void Os::RunProcesses(const std::vector<std::function<void(Pid)>>& bodies) {
  assert(!in_scheduler_run_);
  std::vector<Pid> pids;
  pids.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const Pid pid = next_pid_++;
    pids.push_back(pid);
    if (pid >= fd_tables_.size()) {
      fd_tables_.resize(pid + 1);
    }
  }
  sched_slots_.assign(next_pid_, -1);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    sched_slots_[pids[i]] = static_cast<int>(i);
  }
  // Each wrapper captures one pointer and an index, which std::function
  // holds inline, so starting a process allocates no closure.
  struct RunContext {
    Os* os;
    const std::vector<std::function<void(Pid)>>* bodies;
    const std::vector<Pid>* pids;
  };
  const RunContext run{this, &bodies, &pids};
  std::vector<std::function<void(int)>> wrapped;
  wrapped.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    wrapped.push_back([r = &run, i](int) {
      const Pid pid = (*r->pids)[i];
      try {
        (*r->bodies)[i](pid);
      } catch (const CrashUnwind&) {
        // Crash-stop: this fiber's stack dies here. Destructors already ran
        // during the unwind; fall through to release so the host-side
        // process bookkeeping (anon memory, fds) dies with it.
      }
      // Process exit: release anonymous memory and fd table.
      r->os->vm_.ReleaseProcess(pid);
      r->os->fd_tables_[pid].clear();
    });
  }
  in_scheduler_run_ = true;
  scheduler_.Run(wrapped);
  in_scheduler_run_ = false;
  std::fill(sched_slots_.begin(), sched_slots_.end(), -1);
}

void Os::Sleep(Pid pid, Nanos duration) { WaitUntil(pid, clock_.now() + duration); }

// ---- network ----

int Os::NetEndpoint(Pid pid) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  return net_->CreateEndpoint();
}

std::int64_t Os::NetSend(Pid pid, int from, int to, std::uint64_t bytes, std::uint64_t tag) {
  ++os_stats_.syscalls;
  ++os_stats_.net_sends;
  // Charged like a write: syscall entry plus the user->kernel copy; the
  // wire time is the link's, not the caller's.
  Charge(pid, config_.costs.syscall_overhead + config_.costs.CopyCost(bytes));
  if (from < 0 || from >= net_->num_endpoints() || to < 0 || to >= net_->num_endpoints()) {
    return ToErr(FsErr::kInvalid);
  }
  (void)net_->Send(from, to, bytes, tag);
  return static_cast<std::int64_t>(bytes);
}

std::int64_t Os::NetRecv(Pid pid, int endpoint, Nanos timeout, NetMessage* out) {
  ++os_stats_.syscalls;
  ++os_stats_.net_recvs;
  Charge(pid, config_.costs.syscall_overhead);
  if (endpoint < 0 || endpoint >= net_->num_endpoints()) {
    return ToErr(FsErr::kInvalid);
  }
  // Saturating: a "forever" timeout must not wrap past the clock.
  const Nanos deadline = timeout > EventQueue::kNever - clock_.now()
                             ? EventQueue::kNever
                             : clock_.now() + timeout;
  while (true) {
    // A crashed peer machine (or this machine's own past crash) closes the
    // endpoint via NetDevice::CrashReset. Fail fast, ECONNRESET-style: the
    // in-flight messages were wiped with the endpoint, so blocking on
    // EarliestArrival would otherwise sleep forever on kNever.
    if (net_->Closed(endpoint)) {
      return ToErr(FsErr::kConnReset);
    }
    if (net_->Recv(endpoint, out)) {
      Charge(pid, config_.costs.CopyCost(out->bytes));
      return static_cast<std::int64_t>(out->bytes);
    }
    if (clock_.now() >= deadline) {
      return ToErr(FsErr::kTimedOut);
    }
    // Sleep to the earliest known arrival when one is in flight (the
    // delivery event runs in Band::kCompletion before this wake), else in
    // recv_poll increments so a not-yet-sent message is still noticed.
    const Nanos arrival = net_->EarliestArrival(endpoint);
    Nanos wake = arrival == EventQueue::kNever ? clock_.now() + config_.net.recv_poll : arrival;
    wake = std::min(std::max(wake, clock_.now() + 1), deadline);
    WaitUntil(pid, wake);
  }
}

std::int64_t Os::NetPoll(Pid pid, int endpoint) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  if (endpoint < 0 || endpoint >= net_->num_endpoints()) {
    return ToErr(FsErr::kInvalid);
  }
  return static_cast<std::int64_t>(net_->Pending(endpoint));
}

void Os::Compute(Pid pid, Nanos duration) {
  while (duration > 0) {
    const Nanos q = std::min(duration, config_.scheduler_slice);
    Charge(pid, q);
    duration -= q;
  }
}

// ---- files ----

int Os::Open(Pid pid, std::string_view path) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  const Ffs& f = *filesystems_[ref.disk];
  PathLookup rec;
  if (const FsErr err = f.Lookup(ref.sub, &rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  InodeAttr attr;
  (void)f.GetAttr(rec, &attr);
  if (attr.is_dir) {
    return ToErr(FsErr::kIsDir);
  }
  ChargeWalk(pid, ref.disk, rec);
  return AllocFd(pid, ref.disk, attr.inum);
}

int Os::Close(Pid pid, int fd) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  e->open = false;
  return 0;
}

std::int64_t Os::Pread(Pid pid, int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                       std::uint64_t offset) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  return PreadImpl(pid, fd, buf, len, offset);
}

std::int64_t Os::PreadImpl(Pid pid, int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                           std::uint64_t offset) {
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  if (chaos_ != nullptr && chaos_->InjectReadError()) {
    // Transient media error. The kernel burned time on command retries
    // before giving up, so the failure is slow — naive probe statistics that
    // fold failed samples in get badly skewed, which is the point.
    trace_.Instant(obs::kTrackChaos, "eio.read", clock_.now());
    Charge(pid, chaos_->plan().eio_latency);
    return ToErr(FsErr::kIo);
  }
  Ffs& f = *filesystems_[e->disk];
  InodeAttr attr;
  if (f.GetAttr(e->inum, &attr) != FsErr::kOk) {
    return ToErr(FsErr::kNotFound);
  }
  if (offset >= attr.size || len == 0) {
    return 0;
  }
  len = std::min(len, attr.size - offset);
  const std::uint64_t ps = config_.page_size;
  const std::uint64_t first = offset / ps;
  const std::uint64_t last = (offset + len - 1) / ps;
  const std::uint64_t file_pages = (attr.size + ps - 1) / ps;
  const Inum tagged = Tag(e->disk, e->inum);

  // Sequential readahead window.
  const bool sequential = profile_.readahead && offset == e->next_seq_offset;
  if (sequential) {
    e->ra_window_pages = e->ra_window_pages == 0
                             ? config_.readahead_min_pages
                             : std::min(e->ra_window_pages * 2, config_.readahead_max_pages);
  } else {
    e->ra_window_pages = 0;
  }
  e->next_seq_offset = offset + len;

  Nanos copy_cost = 0;
  for (std::uint64_t p = first; p <= last; ++p) {
    const std::uint64_t page_start = p * ps;
    const std::uint64_t lo = std::max(offset, page_start);
    const std::uint64_t hi = std::min(offset + len, page_start + ps);
    if (cache_.Access(tagged, p)) {
      ++os_stats_.cache_hits;
      copy_cost += config_.costs.CopyCost(hi - lo);
      continue;
    }
    ++os_stats_.cache_misses;
    // A readahead (or a concurrent reader's demand fetch) already has this
    // page on the wire: wait for that request instead of re-issuing it.
    if (const InflightRead* fill = inflight_reads_.Find(PageKey(tagged, p)); fill != nullptr) {
      WaitUntil(pid, fill->completion);
      (void)cache_.Access(tagged, p);
      copy_cost += config_.costs.CopyCost(hi - lo);
      continue;
    }
    // Build the demand run: missing, disk-contiguous pages of this request.
    std::uint64_t start_block = 0;
    if (f.BlockOf(e->inum, p, &start_block) != FsErr::kOk) {
      return ToErr(FsErr::kInvalid);
    }
    std::uint64_t run = 1;
    while (p + run <= last) {
      std::uint64_t b = 0;
      if (f.BlockOf(e->inum, p + run, &b) != FsErr::kOk || b != start_block + run) {
        break;
      }
      if (cache_.Resident(tagged, p + run) ||
          inflight_reads_.Contains(PageKey(tagged, p + run))) {
        break;
      }
      ++run;
    }
    const Nanos done = SubmitReadFill(e->disk, tagged, p, run, start_block,
                                      /*readahead=*/false);
    // When reading sequentially, push the readahead window beyond the
    // request as a separate background fill: the process blocks only for
    // its demand pages while the prefetch queues behind them (contiguous,
    // so the device coalesces it into the same sequential stream).
    if (e->ra_window_pages > 0 && p + run == last + 1) {
      const std::uint64_t ra_limit = std::min(file_pages - 1, p + e->ra_window_pages - 1);
      std::uint64_t ra_run = 0;
      while (last + 1 + ra_run <= ra_limit) {
        const std::uint64_t q = last + 1 + ra_run;
        std::uint64_t b = 0;
        if (f.BlockOf(e->inum, q, &b) != FsErr::kOk || b != start_block + (q - p)) {
          break;
        }
        if (cache_.Resident(tagged, q) || inflight_reads_.Contains(PageKey(tagged, q))) {
          break;
        }
        ++ra_run;
      }
      if (ra_run > 0) {
        (void)SubmitReadFill(e->disk, tagged, last + 1, ra_run,
                             start_block + (last + 1 - p), /*readahead=*/true);
      }
    }
    WaitUntil(pid, done);
    // Copy the requested portion of the run.
    const std::uint64_t run_hi = std::min(offset + len, (p + run) * ps);
    copy_cost += config_.costs.CopyCost(run_hi - lo);
    p += run - 1;
  }
  Charge(pid, copy_cost);
  f.TouchAtime(e->inum, clock_.now());

  if (!buf.empty()) {
    const std::uint64_t fill = std::min<std::uint64_t>(len, buf.size());
    for (std::uint64_t i = 0; i < fill; ++i) {
      buf[i] = ContentByte(tagged, offset + i);
    }
  }
  return static_cast<std::int64_t>(len);
}

std::int64_t Os::Pwrite(Pid pid, int fd, std::uint64_t len, std::uint64_t offset) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  if (len == 0) {
    return 0;
  }
  if (chaos_ != nullptr) {
    if (chaos_->InjectWriteError()) {
      trace_.Instant(obs::kTrackChaos, "enospc.write", clock_.now());
      Charge(pid, chaos_->plan().eio_latency);
      return ToErr(FsErr::kNoSpace);
    }
    // A short write persists a non-empty prefix: the call below proceeds
    // with the truncated length and returns it, exactly as POSIX allows.
    const std::uint64_t want = len;
    len = chaos_->MaybeShortWrite(len);
    if (len != want) {
      trace_.Instant(obs::kTrackChaos, "short_write", clock_.now(), "len", len);
    }
  }
  Ffs& f = *filesystems_[e->disk];
  InodeAttr attr;
  if (f.GetAttr(e->inum, &attr) != FsErr::kOk) {
    return ToErr(FsErr::kNotFound);
  }
  const std::uint64_t old_size = attr.size;
  const std::uint64_t new_size = std::max(old_size, offset + len);
  if (const FsErr err = f.Resize(e->inum, new_size, clock_.now()); err != FsErr::kOk) {
    return ToErr(err);
  }
  const std::uint64_t ps = config_.page_size;
  const std::uint64_t first = offset / ps;
  const std::uint64_t last = (offset + len - 1) / ps;
  const Inum tagged = Tag(e->disk, e->inum);

  Nanos copy_cost = config_.costs.CopyCost(len);
  for (std::uint64_t p = first; p <= last; ++p) {
    const std::uint64_t page_start = p * ps;
    const bool covers_whole_page = offset <= page_start && offset + len >= page_start + ps;
    const bool existed_before = page_start < old_size;
    if (!covers_whole_page && existed_before && !cache_.Resident(tagged, p)) {
      // Read-modify-write of a partially overwritten page.
      ++os_stats_.cache_misses;
      if (const InflightRead* fill = inflight_reads_.Find(PageKey(tagged, p));
          fill != nullptr) {
        WaitUntil(pid, fill->completion);
      } else {
        std::uint64_t block = 0;
        if (f.BlockOf(e->inum, p, &block) == FsErr::kOk) {
          WaitUntil(pid, SubmitReadFill(e->disk, tagged, p, 1, block, /*readahead=*/false));
        }
      }
    }
    Nanos evict_cost = 0;
    if (!cache_.Insert(tagged, p, /*dirty=*/true, &evict_cost)) {
      // Sticky cache refused admission: write through.
      std::uint64_t block = 0;
      if (f.BlockOf(e->inum, p, &block) == FsErr::kOk) {
        WaitUntil(pid, SubmitDiskIo(e->disk, block, 1, /*is_write=*/true, nullptr));
      }
    }
    DrainDirectReclaim(pid);
  }
  Charge(pid, copy_cost);
  e->next_seq_offset = offset + len;  // writes also train the sequence detector
  MaybeWakeFlushDaemon();
  MaybeWakePageDaemon();
  // Dirty throttle: a writer far ahead of the flusher blocks until the
  // device catches up (balance_dirty_pages-style backpressure).
  if (cache_.dirty_pages() > 2 * dirty_limit_pages_) {
    WaitUntil(pid, disk_queues_[e->disk]->busy_until());
  }
  return static_cast<std::int64_t>(len);
}

std::int64_t Os::Read(Pid pid, int fd, std::span<std::uint8_t> buf, std::uint64_t len) {
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  const std::uint64_t offset = e->offset;
  const std::int64_t n = Pread(pid, fd, buf, len, offset);
  if (n > 0) {
    // Pread may have been interleaved with other calls; re-fetch the entry
    // (fd tables can grow) before advancing the offset.
    if (FdEntry* e2 = GetFd(pid, fd); e2 != nullptr) {
      e2->offset = offset + static_cast<std::uint64_t>(n);
    }
  }
  return n;
}

std::int64_t Os::Write(Pid pid, int fd, std::uint64_t len) {
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  const std::uint64_t offset = e->offset;
  const std::int64_t n = Pwrite(pid, fd, len, offset);
  if (n > 0) {
    if (FdEntry* e2 = GetFd(pid, fd); e2 != nullptr) {
      e2->offset = offset + static_cast<std::uint64_t>(n);
    }
  }
  return n;
}

std::int64_t Os::Lseek(Pid pid, int fd, std::uint64_t offset) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  if (offset == kSeekEnd) {
    InodeAttr attr;
    if (filesystems_[e->disk]->GetAttr(e->inum, &attr) != FsErr::kOk) {
      return ToErr(FsErr::kNotFound);
    }
    e->offset = attr.size;
  } else {
    e->offset = offset;
  }
  return static_cast<std::int64_t>(e->offset);
}

int Os::Fsync(Pid pid, int fd) {
  ++os_stats_.syscalls;
  ++os_stats_.fsyncs;
  Charge(pid, config_.costs.syscall_overhead);
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  writeback_pages_.clear();
  cache_.TakeDirtyOfFile(Tag(e->disk, e->inum), &writeback_pages_);
  Nanos done = SubmitWritebackRuns(writeback_pages_);
  // fsync also covers writes the flusher already has in flight for this
  // file; FCFS queues mean waiting for the device drain is sufficient.
  done = std::max(done, disk_queues_[e->disk]->busy_until());
  WaitUntil(pid, done);
  return 0;
}

int Os::Syncfs(Pid pid, int disk) {
  ++os_stats_.syscalls;
  ++os_stats_.syncfs_calls;
  Charge(pid, config_.costs.syscall_overhead);
  if (disk < 0 || disk >= num_disks()) {
    return ToErr(FsErr::kInvalid);
  }
  // Everything dirty on this disk — file data AND metadata (fsync skips
  // the latter; a checkpoint barrier cannot).
  writeback_pages_.clear();
  cache_.TakeDirtyMatching([disk](Inum inum) { return DiskOfInum(inum) == disk; },
                           &writeback_pages_);
  Nanos done = SubmitWritebackRuns(writeback_pages_);
  done = std::max(done, disk_queues_[disk]->busy_until());
  WaitUntil(pid, done);
  return 0;
}

int Os::Ftruncate(Pid pid, int fd, std::uint64_t size) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  Ffs& f = *filesystems_[e->disk];
  InodeAttr attr;
  (void)f.GetAttr(e->inum, &attr);
  if (const FsErr err = f.Resize(e->inum, size, clock_.now()); err != FsErr::kOk) {
    return ToErr(err);
  }
  if (size < attr.size) {
    const std::uint64_t ps = config_.page_size;
    const std::uint64_t keep = (size + ps - 1) / ps;
    const Inum tagged = Tag(e->disk, e->inum);
    cache_.DropFilePagesFrom(tagged, keep);
    InvalidateInflight(tagged, keep);
  }
  return 0;
}

int Os::Mincore(Pid pid, int fd, std::uint64_t offset, std::uint64_t length,
                std::vector<bool>* resident) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  if (!profile_.has_mincore) {
    return ToErr(FsErr::kInvalid);  // interface not available on this platform
  }
  FdEntry* e = GetFd(pid, fd);
  if (e == nullptr) {
    return ToErr(FsErr::kInvalid);
  }
  graysim::InodeAttr attr;
  if (filesystems_[e->disk]->GetAttr(e->inum, &attr) != FsErr::kOk) {
    return ToErr(FsErr::kNotFound);
  }
  const std::uint64_t ps = config_.page_size;
  const std::uint64_t end = std::min(attr.size, offset + length);
  resident->clear();
  if (offset >= end) {
    return 0;
  }
  const Inum tagged = Tag(e->disk, e->inum);
  Nanos walk_cost = 0;
  for (std::uint64_t p = offset / ps; p <= (end - 1) / ps; ++p) {
    resident->push_back(cache_.Resident(tagged, p));
    walk_cost += 50;  // the kernel walks page-table/radix entries
  }
  Charge(pid, walk_cost);
  return 0;
}

int Os::Creat(Pid pid, std::string_view path) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  Ffs& f = *filesystems_[ref.disk];
  f.set_clock_hint(clock_.now());
  PathLookup rec;
  Inum inum = kInvalidInum;
  const FsErr lookup = f.Lookup(ref.sub, &rec);
  if (lookup == FsErr::kOk) {
    // POSIX creat truncates an existing file.
    InodeAttr attr;
    (void)f.GetAttr(rec, &attr);
    if (attr.is_dir) {
      return ToErr(FsErr::kIsDir);
    }
    inum = attr.inum;
    cache_.DropFile(Tag(ref.disk, inum));
    InvalidateInflight(Tag(ref.disk, inum), 0);
    if (const FsErr err = f.Resize(inum, 0, clock_.now()); err != FsErr::kOk) {
      return ToErr(err);
    }
  } else if (lookup == FsErr::kNotFound) {
    // Re-stamps the record, so the walk below still steps through it.
    if (const FsErr err = f.Create(&rec, &inum); err != FsErr::kOk) {
      return ToErr(err);
    }
  } else {
    return ToErr(lookup);
  }
  ChargeWalk(pid, ref.disk, rec);
  MetaDirty(pid, ref.disk, f.InodeBlockOf(inum));
  return AllocFd(pid, ref.disk, inum);
}

int Os::Stat(Pid pid, std::string_view path, InodeAttr* out) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  return StatImpl(pid, path, out);
}

int Os::StatImpl(Pid pid, std::string_view path, InodeAttr* out) {
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  if (chaos_ != nullptr && chaos_->InjectStatError()) {
    trace_.Instant(obs::kTrackChaos, "eio.stat", clock_.now());
    Charge(pid, chaos_->plan().stat_eio_latency);
    return ToErr(FsErr::kIo);
  }
  const Ffs& f = *filesystems_[ref.disk];
  PathLookup rec;
  if (const FsErr err = f.Lookup(ref.sub, &rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  (void)f.GetAttr(rec, out);
  ChargeWalk(pid, ref.disk, rec);
  return 0;
}

// ---- batched syscalls ----

void Os::PreadBatch(Pid pid, std::span<const PreadBatchOp> ops,
                    std::span<BatchOpResult> out) {
  ++os_stats_.syscalls;
  ++os_stats_.batch_syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  const std::size_t n = std::min(ops.size(), out.size());
  os_stats_.batched_ops += n;
  for (std::size_t i = 0; i < n; ++i) {
    const Nanos t0 = clock_.now();
    const std::int64_t rc = PreadImpl(pid, ops[i].fd, {}, ops[i].len, ops[i].offset);
    out[i] = BatchOpResult{clock_.now() - t0, rc};
  }
}

void Os::StatBatch(Pid pid, std::span<const std::string> paths, std::span<InodeAttr> attrs,
                   std::span<BatchOpResult> out) {
  ++os_stats_.syscalls;
  ++os_stats_.batch_syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  const std::size_t n = std::min({paths.size(), attrs.size(), out.size()});
  os_stats_.batched_ops += n;
  for (std::size_t i = 0; i < n; ++i) {
    const Nanos t0 = clock_.now();
    const int rc = StatImpl(pid, paths[i], &attrs[i]);
    out[i] = BatchOpResult{clock_.now() - t0, rc};
  }
}

void Os::VmTouchBatch(Pid pid, std::span<const VmTouchBatchOp> ops,
                      std::span<BatchOpResult> out) {
  // Memory accesses: no syscall entry to count or charge.
  const std::size_t n = std::min(ops.size(), out.size());
  os_stats_.batched_ops += n;
  for (std::size_t i = 0; i < n; ++i) {
    const Nanos t0 = clock_.now();
    VmTouch(pid, ops[i].area, ops[i].page_index, ops[i].write);
    out[i] = BatchOpResult{clock_.now() - t0, 0};
  }
}

int Os::Unlink(Pid pid, std::string_view path) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  Ffs& f = *filesystems_[ref.disk];
  f.set_clock_hint(clock_.now());
  PathLookup rec;
  if (const FsErr err = f.Lookup(ref.sub, &rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  ChargeWalk(pid, ref.disk, rec);
  // The walk may have blocked while another process renamed or unlinked
  // part of the path, in which case Ffs::Unlink resolves it again: drop the
  // pages of the inode the unlink frees.
  Inum inum = kInvalidInum;
  if (const FsErr err = f.Unlink(rec, &inum); err != FsErr::kOk) {
    return ToErr(err);
  }
  cache_.DropFile(Tag(ref.disk, inum));
  InvalidateInflight(Tag(ref.disk, inum), 0);
  MetaDirty(pid, ref.disk, f.InodeBlockOf(inum));
  return 0;
}

int Os::Mkdir(Pid pid, std::string_view path) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  Ffs& f = *filesystems_[ref.disk];
  f.set_clock_hint(clock_.now());
  PathLookup rec;
  (void)f.Lookup(ref.sub, &rec);
  Inum inum = kInvalidInum;
  if (const FsErr err = f.Mkdir(&rec, &inum); err != FsErr::kOk) {
    return ToErr(err);
  }
  MetaDirty(pid, ref.disk, f.InodeBlockOf(inum));
  return 0;
}

int Os::Rmdir(Pid pid, std::string_view path) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  Ffs& f = *filesystems_[ref.disk];
  f.set_clock_hint(clock_.now());
  PathLookup rec;
  if (const FsErr err = f.Lookup(ref.sub, &rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  const std::uint64_t inode_block = f.InodeBlockOf(rec.target.inum);
  if (const FsErr err = f.Rmdir(rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  MetaDirty(pid, ref.disk, inode_block);
  return 0;
}

int Os::Rename(Pid pid, std::string_view from, std::string_view to) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef rfrom;
  PathRef rto;
  if (!ParsePath(from, &rfrom) || !ParsePath(to, &rto)) {
    return ToErr(FsErr::kInvalid);
  }
  if (rfrom.disk != rto.disk) {
    return ToErr(FsErr::kInvalid);  // no cross-device rename
  }
  Ffs& f = *filesystems_[rfrom.disk];
  f.set_clock_hint(clock_.now());
  PathLookup from_rec;
  PathLookup to_rec;
  (void)f.Lookup(rfrom.sub, &from_rec);
  (void)f.Lookup(rto.sub, &to_rec);
  // A rename that will replace a file drops the file's pages before the
  // walk, whose metadata reads then find its frames free (a replaced empty
  // directory has none). A rename that will fail, or that replaces nothing,
  // keeps them.
  const Inum doomed = f.RenameReplaces(from_rec, to_rec);
  if (doomed != kInvalidInum) {
    cache_.DropFile(Tag(rto.disk, doomed));
    InvalidateInflight(Tag(rto.disk, doomed), 0);
  }
  ChargeWalk(pid, rfrom.disk, from_rec);
  // The walk may have blocked while another process changed either path or
  // cached pages of the target, in which case Ffs::Rename resolves both
  // again: drop the pages of the inode the rename frees. Uncontended, the
  // drop above left none.
  Inum freed = kInvalidInum;
  Inum moved = kInvalidInum;
  if (const FsErr err = f.Rename(from_rec, to_rec, &freed, &moved); err != FsErr::kOk) {
    return ToErr(err);
  }
  if (freed != kInvalidInum) {
    cache_.DropFile(Tag(rto.disk, freed));
    InvalidateInflight(Tag(rto.disk, freed), 0);
  }
  MetaDirty(pid, rfrom.disk, f.InodeBlockOf(moved));
  return 0;
}

int Os::ReadDir(Pid pid, std::string_view path, std::vector<DirEntryInfo>* out) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  const Ffs& f = *filesystems_[ref.disk];
  PathLookup rec;
  if (const FsErr err = f.Lookup(ref.sub, &rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  if (f.DirBlocks(rec.target.inum, &first, &count) == FsErr::kOk) {
    for (std::uint64_t b = first; b < first + count; ++b) {
      MetaRead(pid, ref.disk, b);
    }
  }
  // The reads may have blocked: ListDir resolves the path again if the
  // namespace changed meanwhile.
  if (const FsErr err = f.ListDir(rec, out); err != FsErr::kOk) {
    return ToErr(err);
  }
  return 0;
}

int Os::Utimes(Pid pid, std::string_view path, Nanos atime, Nanos mtime) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return ToErr(FsErr::kInvalid);
  }
  Ffs& f = *filesystems_[ref.disk];
  PathLookup rec;
  if (const FsErr err = f.Lookup(ref.sub, &rec); err != FsErr::kOk) {
    return ToErr(err);
  }
  (void)f.SetTimes(rec.target.inum, atime, mtime);
  MetaDirty(pid, ref.disk, f.InodeBlockOf(rec.target.inum));
  return 0;
}

// ---- memory ----

VmAreaId Os::VmAlloc(Pid pid, std::uint64_t bytes) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  const std::uint64_t pages = (bytes + config_.page_size - 1) / config_.page_size;
  return vm_.Alloc(pid, pages);
}

void Os::VmFree(Pid pid, VmAreaId area) {
  ++os_stats_.syscalls;
  Charge(pid, config_.costs.syscall_overhead);
  vm_.Free(pid, area);
}

void Os::VmTouch(Pid pid, VmAreaId area, std::uint64_t page_index, bool write) {
  // A memory access, not a syscall: no syscall overhead.
  const VmTouchResult r = vm_.Touch(pid, area, page_index, write);
  switch (r.outcome) {
    case TouchOutcome::kResident:
    case TouchOutcome::kZeroRead:
      Charge(pid, config_.costs.mem_touch);
      return;
    case TouchOutcome::kZeroFill: {
      DrainDirectReclaim(pid);  // reclaim writeback/swap-out triggered by the fill
      Nanos cost = config_.costs.zero_fill_page;
      if (chaos_ != nullptr) {
        cost += chaos_->AllocStall(clock_.now());
      }
      Charge(pid, cost);
      MaybeWakePageDaemon();
      return;
    }
    case TouchOutcome::kSwapIn: {
      ++os_stats_.swap_ins;
      DrainDirectReclaim(pid);
      WaitUntil(pid, SubmitSwapIo(r.swap_slot, /*is_write=*/false));
      Charge(pid, config_.costs.page_fault_overhead);
      MaybeWakePageDaemon();
      return;
    }
    case TouchOutcome::kDenied:
      // Should be unreachable under all three policies; model as a hard
      // fault so misconfigurations surface in experiments rather than hang.
      Charge(pid, config_.costs.page_fault_overhead + Millis(10.0));
      return;
  }
}

// ---- background daemons ----

void Os::MaybeWakeFlushDaemon() {
  if (flush_daemon_scheduled_ || cache_.dirty_pages() <= dirty_limit_pages_) {
    return;
  }
  flush_daemon_scheduled_ = true;
  events_.ScheduleAt(clock_.now(), EventQueue::Band::kCompletion,
                     [this] { FlushDaemonRun(); }, Desc(EventKind::kFlushDaemon));
}

void Os::FlushDaemonRun() {
  BackgroundScope background(this);  // daemon work runs off an event, not a process
  flush_daemon_scheduled_ = false;
  ++os_stats_.daemon_wakeups;
  if (cache_.dirty_pages() <= dirty_limit_pages_) {
    return;
  }
  trace_.Begin(obs::kTrackFlushDaemon, "flush", clock_.now());
  const std::uint64_t target = dirty_limit_pages_ / 2;
  const std::uint64_t excess = cache_.dirty_pages() - target;
  writeback_pages_.clear();
  cache_.TakeOldestDirty(excess, &writeback_pages_);
  (void)SubmitWritebackRuns(writeback_pages_);
  trace_.End(obs::kTrackFlushDaemon, "flush", clock_.now());
}

void Os::MaybeWakePageDaemon() {
  if (profile_.mem_policy != MemPolicy::kUnifiedLru || page_daemon_scheduled_) {
    return;
  }
  if (mem_.free_pages() >= page_daemon_low_pages_) {
    return;
  }
  page_daemon_scheduled_ = true;
  events_.ScheduleAt(clock_.now(), EventQueue::Band::kCompletion,
                     [this] { PageDaemonRun(); }, Desc(EventKind::kPageDaemon));
}

void Os::PageDaemonRun() {
  BackgroundScope background(this);  // daemon work runs off an event, not a process
  ++os_stats_.daemon_wakeups;
  if (mem_.free_pages() >= page_daemon_high_pages_) {
    page_daemon_scheduled_ = false;
    return;
  }
  trace_.Begin(obs::kTrackPageDaemon, "reclaim", clock_.now());
  const std::uint64_t evicted =
      mem_.ReclaimToFree(page_daemon_high_pages_, kPageDaemonBatch);
  trace_.End(obs::kTrackPageDaemon, "reclaim", clock_.now());
  if (evicted == 0) {
    // Nothing clean to take. Dirty and anonymous reclaim costs I/O, which
    // stays in process context (direct reclaim) so the allocator pays the
    // wait — the signal MAC reads. Go idle until the next fault re-arms us.
    page_daemon_scheduled_ = false;
    return;
  }
  events_.ScheduleAt(clock_.now() + kPageDaemonTick, EventQueue::Band::kCompletion,
                     [this] { PageDaemonRun(); }, Desc(EventKind::kPageDaemon));
}

Nanos Os::SubmitWritebackRuns(std::span<const std::pair<Inum, std::uint64_t>> pages) {
  if (pages.empty()) {
    return 0;
  }
  // The device submissions below call only the disk's jitter and
  // service-scale hooks and ScheduleAt, never back into writeback, so the
  // scratch targets are not overwritten while the loop reads them.
  assert(!in_writeback_);
  in_writeback_ = true;
  // Map to (disk, disk block), sort, and coalesce contiguous runs so each
  // run goes to the device as one request. A target is nothing but its
  // sort key, so the submissions do not depend on the order of `pages`.
  std::vector<WritebackTarget>& targets = writeback_targets_;
  targets.clear();
  for (const auto& [tagged, page] : pages) {
    const int disk = DiskOfInum(tagged);
    std::uint64_t block = page;
    if (!IsPseudoInum(tagged)) {
      if (filesystems_[disk]->BlockOf(LocalInum(tagged), page, &block) != FsErr::kOk) {
        continue;  // truncated/unlinked since dirtying
      }
    }
    targets.push_back(WritebackTarget{disk, block});
  }
  std::sort(targets.begin(), targets.end(),
            [](const WritebackTarget& a, const WritebackTarget& b) {
              return a.disk != b.disk ? a.disk < b.disk : a.block < b.block;
            });
  Nanos done = 0;
  std::size_t i = 0;
  while (i < targets.size()) {
    std::size_t j = i + 1;
    while (j < targets.size() && targets[j].disk == targets[i].disk &&
           targets[j].block == targets[j - 1].block + 1) {
      ++j;
    }
    os_stats_.writeback_pages += j - i;
    done = std::max(done, SubmitDiskIo(targets[i].disk, targets[i].block, j - i,
                                       /*is_write=*/true, nullptr));
    i = j;
  }
  in_writeback_ = false;
  return done;
}

// ---- experiment control & introspection ----

void Os::FlushFileCache() {
  cache_.DropAll(nullptr);
  inflight_reads_.Clear();
}

bool Os::PageResidentPath(std::string_view path, std::uint64_t page_index) const {
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return false;
  }
  PathLookup rec;
  if (filesystems_[ref.disk]->Lookup(ref.sub, &rec) != FsErr::kOk) {
    return false;
  }
  return cache_.Resident(Tag(ref.disk, rec.target.inum), page_index);
}

double Os::ResidentFraction(std::string_view path) const {
  PathRef ref;
  if (!ParsePath(path, &ref)) {
    return 0.0;
  }
  const Ffs& f = *filesystems_[ref.disk];
  PathLookup rec;
  InodeAttr attr;
  if (f.Lookup(ref.sub, &rec) != FsErr::kOk || f.GetAttr(rec, &attr) != FsErr::kOk) {
    return 0.0;
  }
  const std::uint64_t pages = (attr.size + config_.page_size - 1) / config_.page_size;
  if (pages == 0) {
    return 1.0;
  }
  const std::uint64_t resident = cache_.ResidentPagesOfFile(Tag(ref.disk, attr.inum));
  return static_cast<double>(resident) / static_cast<double>(pages);
}

// ---- snapshot / fork ----

Os::Image Os::CaptureImage() const {
  assert(!in_scheduler_run_ && "snapshot requires quiescence (no live fiber stacks)");
  assert(direct_reclaim_wait_ == 0 && !in_background_);
  assert(!crashed_ && "checkpoint after Recover(), not mid-crash");
  Image img;
  img.profile = profile_;
  img.config = config_;
  img.now = clock_.now();
  img.events = events_.ExportPending();
#ifndef NDEBUG
  for (const EventQueue::RawEvent& ev : img.events) {
    assert(ev.desc.kind != static_cast<std::uint32_t>(EventKind::kNone) &&
           "pending event lacks a snapshot descriptor");
  }
#endif
  img.kernel = events_.SnapshotKernelState();
  img.jitter_rng = jitter_rng_.state();
  img.filesystems.reserve(filesystems_.size());
  for (const auto& fs : filesystems_) {
    img.filesystems.push_back(*fs);
  }
  img.disks = disks_;
  img.disk_devices.reserve(disk_queues_.size());
  for (const auto& q : disk_queues_) {
    img.disk_devices.push_back(q->device().CaptureState());
  }
  img.net = net_->CaptureState();
  img.mem = std::make_unique<MemSystem>(mem_.config());
  img.mem->CopyStateFrom(mem_);
  img.cache = std::make_unique<PageCache>(img.mem.get());
  img.cache->CopyStateFrom(cache_);
  img.vm = std::make_unique<Vm>(img.mem.get());
  img.vm->CopyStateFrom(vm_);
  img.fd_tables = fd_tables_;
  img.inflight_reads = inflight_reads_;
  img.next_read_token = next_read_token_;
  img.flush_daemon_scheduled = flush_daemon_scheduled_;
  img.page_daemon_scheduled = page_daemon_scheduled_;
  img.next_pid = next_pid_;
  img.os_stats = os_stats_;
  img.chaos_epoch = chaos_epoch_;
  img.antagonist_reader_pos = antagonist_reader_pos_;
  img.antagonist_dirty_pos = antagonist_dirty_pos_;
  if (chaos_ != nullptr) {
    img.chaos_armed = true;
    img.chaos_plan = chaos_->plan();
    img.chaos_rng = chaos_->rng_state();
    img.chaos_stats = chaos_->stats();
  }
  return img;
}

void Os::RestoreImage(const Image& img) {
  assert(!in_scheduler_run_);
  assert(events_.empty() && clock_.now() == 0 && chaos_ == nullptr &&
         "RestoreImage overwrites a freshly constructed, chaos-free Os");
  // Restore the full config (construction ran with chaos stripped so the
  // constructor's ArmChaos scheduled nothing; see Machine's fork path).
  config_.chaos = img.config.chaos;
  clock_.AdvanceTo(img.now);
  events_.RestoreKernelState(img.kernel);
  jitter_rng_.set_state(img.jitter_rng);
  for (std::size_t d = 0; d < filesystems_.size(); ++d) {
    *filesystems_[d] = img.filesystems[d];
    disks_[d] = img.disks[d];
    disk_queues_[d]->device().RestoreState(img.disk_devices[d]);
  }
  net_->RestoreState(img.net);
  mem_.CopyStateFrom(*img.mem);
  cache_.CopyStateFrom(*img.cache);
  vm_.CopyStateFrom(*img.vm);
  fd_tables_ = img.fd_tables;
  inflight_reads_ = img.inflight_reads;
  next_read_token_ = img.next_read_token;
  flush_daemon_scheduled_ = img.flush_daemon_scheduled;
  page_daemon_scheduled_ = img.page_daemon_scheduled;
  next_pid_ = img.next_pid;
  os_stats_ = img.os_stats;
  antagonist_reader_pos_ = img.antagonist_reader_pos;
  antagonist_dirty_pos_ = img.antagonist_dirty_pos;
  if (img.chaos_armed) {
    ArmChaosHooks(img.chaos_plan);
    chaos_->set_rng_state(img.chaos_rng);
    chaos_->set_stats(img.chaos_stats);
  }
  // The epoch transfers verbatim — the captured tick events carry the
  // original's epoch values and must match (or stay orphaned, if the
  // original had disarmed a plan with ticks still in flight).
  chaos_epoch_ = img.chaos_epoch;
  // Events last: every subsystem a rebuilt closure can touch is in place.
  for (const EventQueue::RawEvent& ev : img.events) {
    events_.ImportPending(ev, MaterializeEvent(ev.desc));
  }
}

EventFn Os::MaterializeEvent(const EventDesc& d) {
  switch (static_cast<EventKind>(d.kind)) {
    case EventKind::kDeviceCompletion: {
      // A completion with no callback: plain disk I/O, swap, writeback, or
      // (dev == -1) the net link's serialization slot.
      SimDevice& dev = d.dev < 0 ? net_->link_mutable() : disk_queues_[d.dev]->device();
      return dev.MakeCompletionEvent(nullptr);
    }
    case EventKind::kReadFillCompletion: {
      const Inum tagged = static_cast<Inum>(d.arg[0]);
      const std::uint64_t first_page = d.arg[1];
      const std::uint64_t npages = d.arg[2];
      const std::uint64_t token = d.arg[3];
      const bool readahead = d.arg[4] != 0;
      return disk_queues_[d.dev]->device().MakeCompletionEvent(
          [this, tagged, first_page, npages, token, readahead] {
            FillPages(tagged, first_page, npages, token, readahead);
          });
    }
    case EventKind::kNetDeliver: {
      NetMessage msg;
      msg.from = static_cast<std::int32_t>(d.arg[1]);
      msg.bytes = d.arg[2];
      msg.tag = d.arg[3];
      msg.seq = d.arg[4];
      msg.sent_at = static_cast<Nanos>(d.arg[5]);
      return net_->RebuildDeliver(d.dev, msg, static_cast<Nanos>(d.arg[0]));
    }
    case EventKind::kAntagonistTick: {
      const std::uint64_t epoch = d.arg[0];
      return EventFn([this, epoch] { AntagonistTick(epoch); });
    }
    case EventKind::kShockTick: {
      const std::uint64_t epoch = d.arg[0];
      return EventFn([this, epoch] { ShockTick(epoch); });
    }
    case EventKind::kCrash: {
      const std::uint64_t epoch = d.arg[0];
      return EventFn([this, epoch] { CrashNow(epoch); });
    }
    case EventKind::kShockRelease: {
      const std::uint64_t epoch = d.arg[0];
      return EventFn([this, epoch] {
        if (chaos_ != nullptr && epoch == chaos_epoch_) {
          cache_.DropFile(Tag(0, kShockLocalInum));
        }
      });
    }
    case EventKind::kFlushDaemon:
      return EventFn([this] { FlushDaemonRun(); });
    case EventKind::kPageDaemon:
      return EventFn([this] { PageDaemonRun(); });
    case EventKind::kNone:
      break;
  }
  assert(false && "unmaterializable event descriptor");
  return EventFn([] {});
}

std::uint64_t Os::Image::ApproxBytes() const {
  std::uint64_t bytes = sizeof(Image);
  bytes += events.capacity() * sizeof(EventQueue::RawEvent);
  for (const Ffs& f : filesystems) {
    bytes += f.ApproxBytes();
  }
  bytes += disks.capacity() * sizeof(Disk);
  bytes += disk_devices.capacity() * sizeof(SimDevice::State);
  for (const NetDevice::Endpoint& ep : net.endpoints) {
    bytes += sizeof(ep) + ep.inbox.size() * sizeof(NetMessage) +
             ep.in_flight.capacity() * sizeof(Nanos);
  }
  if (mem != nullptr) {
    bytes += sizeof(MemSystem) + mem->frames().ApproxBytes();
  }
  if (cache != nullptr) {
    bytes += cache->ApproxBytes();
  }
  if (vm != nullptr) {
    bytes += vm->ApproxBytes();
  }
  for (const auto& table : fd_tables) {
    bytes += table.capacity() * sizeof(FdEntry);
  }
  bytes += inflight_reads.capacity_bytes();
  return bytes;
}

}  // namespace graysim
