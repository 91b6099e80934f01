// ckpt_restart: checkpoint-restart of a scale_fleet-shaped machine.
//
// The machine (64 MB, 2 disks, a sort input, a grep set and an aging
// directory) runs 32-process fastsort/grep/aging waves. After each wave the
// benchmark does Snapshot -> SaveMachineImage -> LoadMachineImage -> Fork, and
// the next wave runs on the fork. Most host time falls on image_io (the save
// with its host fsync, and the load) and on snapshot/fork. One op is one
// cycle: a wave plus the checkpoint-restore after it.
//
// Correctness: the chain's end state (OsStats, MemStats, virtual time) must
// equal that of the same waves run on one machine without checkpoints.
//
// Traced runs also run the MAC layer probe during set-up, so the gray.mac
// and gray.probe per-layer metrics come from this workload.
#include <algorithm>
#include <functional>
#include <string>

#include "bench/alloc_hook.h"
#include "perfbench/graybench.h"
#include "src/workloads/aging.h"
#include "src/workloads/fastsort.h"
#include "src/workloads/filegen.h"
#include "src/workloads/grep.h"

namespace perfbench {

namespace {

using graysim::Machine;
using graysim::Nanos;
using graysim::Os;
using graysim::Pid;

constexpr int kWave = 32;     // processes per wave
constexpr int kCycles = 32;   // cycles per chain
constexpr int kSetupReps = 25;

const std::vector<std::string> kGrepPaths = {"/d1/src/f0", "/d1/src/f1", "/d1/src/f2",
                                             "/d1/src/f3"};

std::unique_ptr<Machine> NewMachine(std::uint64_t seed) {
  graysim::MachineConfig cfg;
  cfg.phys_mem_bytes = 64 * kMb;
  cfg.kernel_reserved_bytes = 16 * kMb;
  cfg.num_disks = 2;
  std::unique_ptr<Machine> machine;
  {
    Scope span("os.machine_new", 0);
    machine = std::make_unique<Machine>(graysim::PlatformProfile::Linux22(), cfg, 0, seed);
  }
  Scope span("workloads.populate", 0);
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/sort_in", 256 * 1024);
  (void)graywork::MakeFileSet(os, pid, "/d1/src", 4, 64 * 1024);
  (void)graywork::MakeFileSet(os, pid, "/d0/age", 4, 32 * 1024);
  os.FlushFileCache();
  return machine;
}

// Wave `wave`'s process bodies: process j = wave * kWave + k runs fastsort's
// read phase, a grep of the set, or one aging epoch, by j mod 3. A pure
// function of (machine identity, wave), so a fork replays the same waves.
std::vector<std::function<void(Pid)>> WaveBodies(Machine& m, int wave) {
  Os& os = m.os();
  std::vector<std::function<void(Pid)>> bodies;
  for (int k = 0; k < kWave; ++k) {
    const int j = wave * kWave + k;
    switch (j % 3) {
      case 0:
        bodies.push_back([&os](Pid pid) {
          graywork::FastsortOptions opt;
          opt.input = "/d0/sort_in";
          opt.record_bytes = 128;
          opt.write_runs = false;
          (void)graywork::Fastsort(&os, pid).Run(opt);
        });
        break;
      case 1:
        bodies.push_back([&os](Pid pid) { (void)graywork::Grep(&os, pid).Run(kGrepPaths); });
        break;
      default:
        bodies.push_back([&os, &m, j](Pid pid) {
          graywork::DirectoryAger ager(&os, pid, "/d0/age", 32 * 1024,
                                       m.DeriveSeed(1000 + static_cast<std::uint64_t>(j)));
          ager.RunEpoch(2);
        });
        break;
    }
  }
  return bodies;
}

std::uint64_t EndState(const Machine& m) {
  Fnv fnv;
  fnv.Add(m.Now());
  AddOsStats(&fnv, m.os().stats());
  AddMemStats(&fnv, m.os().mem_stats());
  return fnv.value();
}

struct Chain {
  std::uint64_t cycles = 0;
  std::uint64_t failed = 0;
  std::vector<double> wave_virt_ms;
  std::vector<double> cycle_host_ms;
  std::uint64_t image_bytes = 0;
  std::uint64_t end_state = 0;
  graysim::OsStats os;
  graysim::MemStats mem;
  obs::MetricsSnapshot metrics;
  Nanos virtual_ns = 0;
};

// kCycles cycles from a fork of `base`. With `checkpoint` false the same
// waves run back to back on one machine: the reference end state.
Chain RunChain(const graysim::MachineImage& base, bool checkpoint, const std::string& path,
               std::uint64_t first_op, std::vector<std::string>* errors) {
  Chain chain;
  std::unique_ptr<Machine> machine = Machine::Fork(base);
  const Nanos start = machine->Now();
  for (int wave = 0; wave < kCycles; ++wave) {
    const std::uint64_t op = first_op + static_cast<std::uint64_t>(wave);
    Scope cycle("op", op);
    const Nanos v0 = machine->Now();
    {
      Scope span("os.run_processes", op);
      machine->RunProcesses(WaveBodies(*machine, wave));
    }
    chain.wave_virt_ms.push_back(static_cast<double>(machine->Now() - v0) / 1e6);
    if (checkpoint) {
      std::string error;
      std::unique_ptr<Machine> fork =
          CheckpointRoundTrip(*machine, path, op, &chain.image_bytes, &error);
      if (fork == nullptr) {
        errors->push_back("ckpt_restart cycle " + std::to_string(wave) + ": " + error);
        ++chain.failed;
      } else {
        machine = std::move(fork);
      }
    }
    chain.cycle_host_ms.push_back(static_cast<double>(cycle.Close()) / 1e6);
    ++chain.cycles;
  }
  chain.end_state = EndState(*machine);
  chain.os = machine->os().stats();
  chain.mem = machine->os().mem_stats();
  chain.metrics = machine->SnapshotMetrics();
  chain.virtual_ns = machine->Now() - start;
  return chain;
}

}  // namespace

Report RunCkptRestart(const Options& options) {
  Report report;
  const std::string path = options.out_dir + "/ckpt_restart.gsim";

  // ---- set-up: the populated machine, captured as the chain's base ----
  SetTracing(options.trace);
  graysim::MachineImage base;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = HostNs();
    const std::unique_ptr<Machine> machine = NewMachine(options.root_seed);
    {
      Scope span("os.snapshot", 0);
      base = machine->Snapshot();
    }
    report.setup_s.push_back(static_cast<double>(HostNs() - t0) / 1e9);
  }
  if (options.trace) {
    MacLayerProbe(options, &report);
  }
  SetTracing(false);

  // ---- pin: the same waves without checkpoints ----
  const Chain reference = RunChain(base, /*checkpoint=*/false, path, 0, &report.errors);

  // ---- timed phase: checkpointed chains until the budget is spent ----
  Chain first;
  const gbench::AllocCounts allocs0 = gbench::AllocSnapshot();
  const std::int64_t t0 = HostNs();
  const int min_chains = options.trace ? 2 : 1;
  for (int i = 0; i < min_chains || BudgetLeft(options, t0); ++i) {
    const bool traced = options.trace && i % 2 == 1;
    SetTracing(traced);
    const std::int64_t c0 = HostNs();
    Chain chain = RunChain(base, /*checkpoint=*/true, path, 1 + report.attempted, &report.errors);
    const double wall_s = static_cast<double>(HostNs() - c0) / 1e9;
    SetTracing(false);
    report.AddRepetition(chain.cycles, chain.failed, chain.cycle_host_ms,
                         static_cast<double>(chain.cycles), wall_s, traced);
    if (chain.end_state != reference.end_state) {
      report.errors.push_back(
          "ckpt_restart: the checkpointed chain ended in another state than the "
          "checkpoint-free run of the same waves");
      report.failed = report.attempted;
    }
    if (i == 0) {
      first = std::move(chain);
    }
  }
  report.timed_allocs = gbench::AllocSnapshot().allocs - allocs0.allocs;

  // ---- virtual-clock results of one chain ----
  report.virtual_digest = first.end_state;
  report.virt_samples = first.cycles;
  report.virt_ok = first.cycles - first.failed;
  report.virt_p50_ms = Quantile(first.wave_virt_ms, 0.50);
  report.virt_p90_ms = Quantile(first.wave_virt_ms, 0.90);
  report.virt_p99_ms = Quantile(first.wave_virt_ms, 0.99);
  report.virt_s = static_cast<double>(first.virtual_ns) / 1e9;

  const obs::MetricsSnapshot& fleet = first.metrics;
  obs::Histogram disk_service;
  double disk_busy_ns = 0.0;
  for (const char* name : {"disk0.service_ns", "disk1.service_ns"}) {
    if (const obs::Histogram* h = fleet.FindHistogram(name)) {
      disk_service.Merge(*h);
      disk_busy_ns += static_cast<double>(h->sum());
    }
  }
  const double hits = static_cast<double>(first.os.cache_hits);
  const double misses = static_cast<double>(first.os.cache_misses);
  std::map<std::string, double>& l = report.layer;
  l["image_io.image_mb"] = static_cast<double>(first.image_bytes) / kMb;
  l["sim.events"] = fleet.ScalarValue("os.events_scheduled");
  l["os.syscalls"] = static_cast<double>(first.os.syscalls);
  l["os.fsyncs"] = static_cast<double>(first.os.fsyncs);
  l["cache.hits"] = hits;
  l["cache.misses"] = misses;
  l["cache.hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  l["cache.file_pages"] = fleet.ScalarValue("os.file_cache_pages");
  l["disk.requests"] = fleet.ScalarValue("disk0.requests") + fleet.ScalarValue("disk1.requests");
  l["disk.queued"] = static_cast<double>(first.os.queued_disk_requests);
  l["disk.coalesced"] = fleet.ScalarValue("disk0.coalesced_requests") +
                        fleet.ScalarValue("disk1.coalesced_requests");
  l["disk.max_depth"] = std::max(fleet.ScalarValue("disk0.max_depth"),
                                 fleet.ScalarValue("disk1.max_depth"));
  l["disk.busy_share"] =
      first.virtual_ns > 0 ? disk_busy_ns / (2.0 * static_cast<double>(first.virtual_ns)) : 0.0;
  l["disk.service_ms.p50"] = disk_service.Quantile(0.50) / 1e6;
  l["disk.service_ms.p99"] = disk_service.Quantile(0.99) / 1e6;
  l["mem.evictions"] = static_cast<double>(first.mem.evictions);
  l["vm.swap_ins"] = static_cast<double>(first.os.swap_ins);
  l["vm.swap_outs"] = static_cast<double>(first.os.swap_outs);
  return report;
}

}  // namespace perfbench
