// load_steady: graysimd replay of the examples/load_steady.scn shape.
//
// 128 machines x 80 clients = 10,240 open-loop Poisson streams at 1 Hz with
// the fastsort:1 grep:4 aging:2 filegen:1 mix and chaos 0.1. The load is
// open-loop in virtual time; on the host it is a batch job whose machines are
// replayed on Options::threads host threads (one; see main.cc). One op is one
// grayservice::RunLoadMachine call.
// The replay window is long enough that request replay, not machine set-up,
// takes most of the host time.
//
// Set-up (machine construction, file population, fiber start-up) happens
// inside RunLoadMachine, so set-up time is measured on a twin of the fleet
// whose window is too short for any arrival.
#include <algorithm>
#include <atomic>
#include <bit>
#include <string>
#include <thread>

#include "bench/alloc_hook.h"
#include "perfbench/graybench.h"
#include "src/service/load_service.h"
#include "src/service/scenario.h"
#include "src/workloads/filegen.h"

namespace perfbench {

namespace {

using grayservice::LoadScenario;
using grayservice::MachineLoadResult;

constexpr int kMachines = 128;
constexpr int kClients = 80;
constexpr double kWindowS = 6.0;
constexpr int kSetupReps = 5;

// Pin: a four-machine cut of the committed examples/load_steady.scn (seed
// 0x10AD, 1.5 s window), replayed through RunLoadFleet. The digest covers
// the fleet latency digest and every counter, gauge and histogram of the
// merged fleet metrics, so a change that leaves latencies alone but moves
// kernel state still fails. It does not depend on --seed; every run checks
// it.
constexpr int kPinMachines = 4;
constexpr std::uint64_t kPinnedFleetDigest = 0x306ef68dd89ff67eULL;

LoadScenario Steady(std::uint64_t seed, double window_s) {
  LoadScenario s;
  s.name = "load_steady";
  s.machines = kMachines;
  s.clients = kClients;
  s.arrival = grayservice::ArrivalKind::kPoisson;
  s.rate_hz = 1.0;
  s.duration_s = window_s;
  s.mix[0] = 1;  // fastsort
  s.mix[1] = 4;  // grep
  s.mix[2] = 2;  // aging
  s.mix[3] = 1;  // filegen
  s.chaos = 0.1;
  s.slow_ms = 100.0;
  s.timeout_ms = 500.0;
  s.seed = seed;
  s.profile = "linux2.2";
  return s;
}

struct MachineRun {
  double host_ms = 0.0;
  MachineLoadResult result;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<MachineRun> machines;  // indexed by machine id
};

// Replays every machine of `scenario` once; `threads` host threads pull
// machine ids from a shared counter. Op ids are first_op + machine id, or 0
// (set-up) when first_op is 0.
Pass FleetPass(const LoadScenario& scenario, int threads, const char* span_name,
               std::uint64_t first_op) {
  Pass pass;
  pass.machines.resize(static_cast<std::size_t>(scenario.machines));
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int id = next.fetch_add(1); id < scenario.machines; id = next.fetch_add(1)) {
      MachineRun& run = pass.machines[static_cast<std::size_t>(id)];
      Scope span(span_name, first_op == 0 ? 0 : first_op + static_cast<std::uint64_t>(id));
      run.result = grayservice::RunLoadMachine(scenario, static_cast<std::uint32_t>(id));
      run.host_ms = static_cast<double>(span.Close()) / 1e6;
    }
  };
  const std::int64_t t0 = HostNs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& th : pool) {
    th.join();
  }
  pass.wall_s = static_cast<double>(HostNs() - t0) / 1e9;
  return pass;
}

double SumScalar(const Pass& pass, const char* name) {
  double total = 0.0;
  for (const MachineRun& m : pass.machines) {
    total += m.result.metrics.ScalarValue(name);
  }
  return total;
}

double SumHostMs(const Pass& pass) {
  double total = 0.0;
  for (const MachineRun& m : pass.machines) {
    total += m.host_ms;
  }
  return total;
}

std::uint64_t FleetDigest(const Pass& pass) {
  Fnv fnv;
  for (const MachineRun& m : pass.machines) {
    fnv.Add(m.result.digest);
  }
  return fnv.value();
}

std::uint64_t Requests(const Pass& pass) {
  std::uint64_t n = 0;
  for (const MachineRun& m : pass.machines) {
    n += m.result.counts.requests;
  }
  return n;
}

// Traced runs only: the public calls RunLoadMachine makes before its first
// request, repeated from outside on stand-alone machines of the same shape
// (64 MB, 2 disks, a sort input, a grep set and one aging directory per
// client), then one checkpoint round trip of such a machine.
void SetupLayers(const Options& options, Report* report) {
  constexpr int kReplicas = 4;
  graysim::MachineConfig cfg;
  cfg.phys_mem_bytes = 64 * kMb;
  cfg.kernel_reserved_bytes = 16 * kMb;
  cfg.num_disks = 2;
  std::unique_ptr<graysim::Machine> machine;
  for (int id = 0; id < kReplicas; ++id) {
    {
      Scope span("os.machine_new", 0);
      machine = std::make_unique<graysim::Machine>(graysim::PlatformProfile::Linux22(), cfg,
                                                   static_cast<std::uint32_t>(id),
                                                   options.root_seed);
    }
    Scope span("workloads.populate", 0);
    graysim::Os& os = machine->os();
    const graysim::Pid pid = os.default_pid();
    (void)graywork::MakeFile(os, pid, "/d0/sort_in", 256 * 1024);
    (void)graywork::MakeFileSet(os, pid, "/d1/src", 4, 64 * 1024);
    for (int c = 0; c < kClients; ++c) {
      (void)graywork::MakeFileSet(os, pid, "/d0/age" + std::to_string(c), 2, 16 * 1024);
    }
    os.FlushFileCache();
  }
  std::uint64_t image_bytes = 0;
  std::string error;
  if (CheckpointRoundTrip(*machine, options.out_dir + "/load_steady.gsim", 0, &image_bytes,
                          &error) == nullptr) {
    report->errors.push_back("load_steady checkpoint round trip: " + error);
  }
  report->layer["image_io.image_mb"] = static_cast<double>(image_bytes) / kMb;
}

}  // namespace

Report RunLoadSteady(const Options& options) {
  Report report;
  const int threads = options.threads;
  report.threads = threads;

  // ---- pin ----
  {
    LoadScenario pin = Steady(0x10AD, 1.5);
    pin.machines = kPinMachines;
    const grayservice::FleetLoadReport fleet = grayservice::RunLoadFleet(pin, threads);
    Fnv fnv;
    fnv.Add(fleet.digest);
    for (const obs::MetricsSnapshot::Scalar& scalar : fleet.metrics.scalars()) {
      fnv.Add(std::bit_cast<std::uint64_t>(scalar.value));
    }
    for (const obs::MetricsSnapshot::NamedHistogram& h : fleet.metrics.histograms()) {
      fnv.Add(h.histogram.count());
      fnv.Add(h.histogram.sum());
    }
    if (fnv.value() != kPinnedFleetDigest) {
      report.errors.push_back(PinMismatch("load_steady pin", fnv.value(), kPinnedFleetDigest));
    }
  }

  // ---- set-up: the zero-window twin ----
  const LoadScenario scenario = Steady(options.root_seed, kWindowS);
  LoadScenario twin = scenario;
  twin.duration_s = 0.0;
  std::vector<double> setup_ms_per_machine;
  double twin_events = 0.0;
  double twin_syscalls = 0.0;
  SetTracing(options.trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Pass pass = FleetPass(twin, threads, "service.setup_twin", 0);
    report.setup_s.push_back(pass.wall_s);
    setup_ms_per_machine.push_back(SumHostMs(pass) / kMachines);
    if (Requests(pass) != 0) {
      report.errors.push_back("load_steady: the zero-window twin completed requests");
    }
    twin_events = SumScalar(pass, "os.events_scheduled");
    twin_syscalls = SumScalar(pass, "os.syscalls");
  }
  if (options.trace) {
    SetupLayers(options, &report);
  }
  SetTracing(false);
  const double setup_ms = Median(setup_ms_per_machine);

  // ---- warm-up: one untimed pass, the reference every timed pass must
  // reproduce. The first full pass after the twin passes runs markedly slower
  // than the rest (its per-op p90 about 1.5x theirs), so it is not timed.
  const Pass first = FleetPass(scenario, threads, "service.run_load_machine", 0);

  // ---- timed phase: whole-fleet passes until the budget is spent ----
  std::vector<double> us_per_request;
  std::vector<double> ns_per_event;
  std::vector<double> ns_per_syscall;
  const gbench::AllocCounts allocs0 = gbench::AllocSnapshot();
  const std::int64_t t0 = HostNs();
  const int min_passes = options.trace ? 2 : 1;
  for (int i = 0; i < min_passes || BudgetLeft(options, t0); ++i) {
    // In a traced run every second pass records spans; the others measure
    // the untraced rate the tracing overhead is taken against.
    const bool traced = options.trace && i % 2 == 1;
    SetTracing(traced);
    Pass pass = FleetPass(scenario, threads, "service.run_load_machine",
                          1 + report.attempted);
    SetTracing(false);
    const std::uint64_t requests = Requests(pass);
    const double replay_ms = SumHostMs(pass) - setup_ms * kMachines;
    std::vector<double> ops_host_ms;
    for (const MachineRun& m : pass.machines) {
      ops_host_ms.push_back(m.host_ms);
    }
    report.AddRepetition(kMachines, 0, ops_host_ms, static_cast<double>(requests),
                         pass.wall_s, traced);
    us_per_request.push_back(replay_ms * 1e3 / static_cast<double>(requests));
    ns_per_event.push_back(replay_ms * 1e6 /
                           (SumScalar(pass, "os.events_scheduled") - twin_events));
    ns_per_syscall.push_back(replay_ms * 1e6 / (SumScalar(pass, "os.syscalls") - twin_syscalls));
    if (FleetDigest(pass) != FleetDigest(first)) {
      report.errors.push_back("load_steady: a fleet pass diverged from the warm-up pass");
      report.failed += kMachines;
    }
  }
  report.timed_allocs = gbench::AllocSnapshot().allocs - allocs0.allocs;

  // ---- virtual-clock results of one pass (every pass reproduced it) ----
  obs::MetricsSnapshot fleet;
  grayservice::LoadCounts counts;
  double virtual_ns = 0.0;
  double max_depth = 0.0;
  for (const MachineRun& m : first.machines) {
    fleet.Merge(m.result.metrics);
    counts.requests += m.result.counts.requests;
    counts.ok += m.result.counts.ok;
    counts.errors += m.result.counts.errors;
    counts.timeouts += m.result.counts.timeouts;
    counts.late_starts += m.result.counts.late_starts;
    virtual_ns += static_cast<double>(m.result.virtual_time);
    for (const char* q : {"disk0.max_depth", "disk1.max_depth"}) {
      max_depth = std::max(max_depth, m.result.metrics.ScalarValue(q));
    }
  }
  report.virtual_digest = FleetDigest(first);
  const obs::Histogram* latency = fleet.FindHistogram("svc.request_latency_ns");
  if (latency == nullptr || latency->count() == 0) {
    report.errors.push_back("load_steady: the fleet recorded no request latency");
  } else {
    report.virt_p50_ms = latency->Quantile(0.50) / 1e6;
    report.virt_p90_ms = latency->Quantile(0.90) / 1e6;
    report.virt_p99_ms = latency->Quantile(0.99) / 1e6;
  }
  report.virt_samples = counts.requests;
  report.virt_ok = counts.ok;
  report.virt_s = kWindowS;

  obs::Histogram disk_service;
  double disk_busy_ns = 0.0;
  for (const char* name : {"disk0.service_ns", "disk1.service_ns"}) {
    if (const obs::Histogram* h = fleet.FindHistogram(name)) {
      disk_service.Merge(*h);
      disk_busy_ns += static_cast<double>(h->sum());
    }
  }
  const double hits = fleet.ScalarValue("os.cache_hits");
  const double misses = fleet.ScalarValue("os.cache_misses");
  std::map<std::string, double>& l = report.layer;
  l["service.requests"] = static_cast<double>(counts.requests);
  l["service.errors"] = static_cast<double>(counts.errors);
  l["service.timeouts"] = static_cast<double>(counts.timeouts);
  l["service.late_starts"] = static_cast<double>(counts.late_starts);
  l["service.setup_ms_per_machine"] = setup_ms;
  l["service.host_us_per_request"] = Median(us_per_request);
  l["sim.events"] = fleet.ScalarValue("os.events_scheduled");
  l["sim.host_ns_per_event"] = Median(ns_per_event);
  l["os.syscalls"] = fleet.ScalarValue("os.syscalls");
  l["os.host_ns_per_syscall"] = Median(ns_per_syscall);
  l["os.fsyncs"] = fleet.ScalarValue("os.fsyncs");
  l["os.chaos.injected_errors"] = fleet.ScalarValue("chaos.injected_read_errors") +
                                  fleet.ScalarValue("chaos.injected_write_errors") +
                                  fleet.ScalarValue("chaos.injected_stat_errors");
  l["os.chaos.stalled_allocs"] = fleet.ScalarValue("chaos.stalled_allocs");
  l["os.chaos.degraded_requests"] = fleet.ScalarValue("chaos.degraded_requests");
  l["cache.hits"] = hits;
  l["cache.misses"] = misses;
  l["cache.hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  l["cache.file_pages"] = fleet.ScalarValue("os.file_cache_pages");
  l["disk.requests"] = fleet.ScalarValue("disk0.requests") + fleet.ScalarValue("disk1.requests");
  l["disk.queued"] = fleet.ScalarValue("os.queued_disk_requests");
  l["disk.coalesced"] = fleet.ScalarValue("disk0.coalesced_requests") +
                        fleet.ScalarValue("disk1.coalesced_requests");
  l["disk.max_depth"] = max_depth;
  l["disk.busy_share"] = virtual_ns > 0.0 ? disk_busy_ns / (2.0 * virtual_ns) : 0.0;
  l["disk.service_ms.p50"] = disk_service.Quantile(0.50) / 1e6;
  l["disk.service_ms.p99"] = disk_service.Quantile(0.99) / 1e6;
  l["vm.swap_ins"] = fleet.ScalarValue("os.swap_ins");
  l["vm.swap_outs"] = fleet.ScalarValue("os.swap_outs");
  return report;
}

}  // namespace perfbench
