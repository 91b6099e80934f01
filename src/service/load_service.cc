#include "src/service/load_service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "src/os/machine.h"
#include "src/os/os.h"
#include "src/service/arrival.h"
#include "src/sim/fault_plan.h"
#include "src/sim/rng.h"
#include "src/workloads/aging.h"
#include "src/workloads/fastsort.h"
#include "src/workloads/filegen.h"
#include "src/workloads/grep.h"

namespace grayservice {

namespace {

using graysim::Machine;
using graysim::MachineConfig;
using graysim::Nanos;
using graysim::Os;
using graysim::Pid;
using graysim::PlatformProfile;

constexpr std::uint64_t kMb = 1024ULL * 1024;

// DeriveSeed stream tags. Client streams get a disjoint tag per role so a
// client's arrival schedule, its request-mix draws, and its ager churn are
// three decorrelated streams of the one (fleet seed, machine id) identity.
constexpr std::uint64_t kChaosStream = 0x5E27ECE;
constexpr std::uint64_t kArrivalStreamBase = 0x10000000;
constexpr std::uint64_t kMixStreamBase = 0x20000000;
constexpr std::uint64_t kAgerStreamBase = 0x30000000;

// One service machine is a small host, same shape as scale_fleet's: the
// scenario's pressure comes from stream count across the fleet, not memory
// pressure within one box.
MachineConfig ServiceConfig() {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 64 * kMb;
  cfg.kernel_reserved_bytes = 16 * kMb;
  cfg.num_disks = 2;
  return cfg;
}

PlatformProfile ProfileByName(const std::string& name) {
  if (name == "netbsd1.5") {
    return PlatformProfile::NetBsd15();
  }
  if (name == "solaris7") {
    return PlatformProfile::Solaris7();
  }
  return PlatformProfile::Linux22();
}

// The machine's file population: a shared sort input and grep set, plus a
// per-client aging directory and scratch slot so concurrent clients churn
// disjoint namespaces.
void SetupLoadMachine(Machine& m, int clients, std::vector<std::string>* grep_paths) {
  Os& os = m.os();
  const Pid pid = os.default_pid();
  graywork::MakeFile(os, pid, "/d0/sort_in", 256 * 1024);
  *grep_paths = graywork::MakeFileSet(os, pid, "/d1/src", 4, 64 * 1024);
  for (int c = 0; c < clients; ++c) {
    (void)graywork::MakeFileSet(os, pid, "/d0/age" + std::to_string(c), 2, 16 * 1024);
  }
  os.FlushFileCache();
}

// Weighted draw over the scenario mix. `total` is the precomputed weight
// sum (validated positive by the parser).
RequestKind DrawKind(graysim::Rng& rng, const int (&mix)[kNumRequestKinds], int total) {
  auto pick = static_cast<int>(rng.Below(static_cast<std::uint64_t>(total)));
  for (int k = 0; k < kNumRequestKinds; ++k) {
    pick -= mix[k];
    if (pick < 0) {
      return static_cast<RequestKind>(k);
    }
  }
  return RequestKind::kGrep;
}

// One bounded request unit. Returns true when the request hit at least one
// failed syscall (chaos EIO/ENOSPC, missing file) — the workloads surface
// these as io_errors / failure returns instead of swallowing them.
bool RunRequest(Os& os, Pid pid, RequestKind kind,
                const std::vector<std::string>& grep_paths, graywork::DirectoryAger& ager,
                const std::string& scratch) {
  switch (kind) {
    case RequestKind::kFastsort: {
      graywork::FastsortOptions opt;
      opt.input = "/d0/sort_in";
      opt.record_bytes = 128;
      opt.write_runs = false;  // read phase only: no run files to age the FS
      const graywork::FastsortReport r = graywork::Fastsort(&os, pid).Run(opt);
      return r.io_errors > 0;
    }
    case RequestKind::kGrep: {
      const graywork::GrepResult r = graywork::Grep(&os, pid).Run(grep_paths);
      return r.io_errors > 0;
    }
    case RequestKind::kAging:
      return ager.RunEpoch(2) > 0;
    case RequestKind::kFilegen:
      return !graywork::MakeFile(os, pid, scratch, 32 * 1024);
  }
  return false;
}

// What one machine's clients share. Each client body captures a pointer to
// it and the client's index, small enough for std::function to hold without
// a heap allocation.
struct ClientShared {
  const LoadScenario& scenario;
  Machine& m;
  const std::vector<std::string>& grep_paths;
  // Arrival instants anchor here, captured before RunProcesses: fibers
  // first run at different Now() values (earlier fibers advance the clock),
  // so a per-fiber origin would make the schedule — and with it the
  // digest — depend on fiber start order.
  Nanos window_start;
  Nanos window_ns;
  Nanos slow_ns;
  Nanos timeout_ns;
  int mix_total;
  std::uint32_t slow_track;
  obs::Histogram& latency;
  LoadCounts& counts;
};

// Client `c`'s open-loop stream: every arrival inside the window, each
// served as one request.
void RunClient(const ClientShared& s, int c, Pid pid) {
  Os& os = s.m.os();
  const auto cc = static_cast<std::uint64_t>(c);
  ArrivalProcess arrivals(s.scenario, s.m.DeriveSeed(kArrivalStreamBase + cc));
  graysim::Rng mix_rng(s.m.DeriveSeed(kMixStreamBase + cc));
  graywork::DirectoryAger ager(&os, pid, "/d0/age" + std::to_string(c), 16 * 1024,
                               s.m.DeriveSeed(kAgerStreamBase + cc));
  const std::string scratch = "/d0/scratch" + std::to_string(c);
  for (;;) {
    const Nanos offset = arrivals.Next();
    if (offset >= s.window_ns || os.crashed()) {
      break;
    }
    const Nanos scheduled = s.window_start + offset;
    const Nanos now = os.Now();
    if (now < scheduled) {
      os.Sleep(pid, scheduled - now);
    } else if (now > scheduled) {
      // Open loop: the stream was still serving the previous request
      // when this one arrived. It runs immediately and its latency
      // includes the queueing delay it already accumulated.
      ++s.counts.late_starts;
    }
    const RequestKind kind = DrawKind(mix_rng, s.scenario.mix, s.mix_total);
    const bool error = RunRequest(os, pid, kind, s.grep_paths, ager, scratch);
    const Nanos request_latency = os.Now() - scheduled;
    s.latency.Record(request_latency);
    ++s.counts.requests;
    if (error) {
      ++s.counts.errors;
    }
    if (request_latency >= s.slow_ns) {
      ++s.counts.slow;
      os.trace().Complete(s.slow_track, "slow_request", scheduled, request_latency, "client",
                          cc);
    }
    if (request_latency > s.timeout_ns) {
      ++s.counts.timeouts;
    } else if (!error) {
      ++s.counts.ok;
    }
  }
}

void Accumulate(LoadCounts* into, const LoadCounts& from) {
  into->requests += from.requests;
  into->ok += from.ok;
  into->errors += from.errors;
  into->timeouts += from.timeouts;
  into->slow += from.slow;
  into->late_starts += from.late_starts;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void FnvMix(std::uint64_t* state, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *state ^= (value >> (8 * i)) & 0xFF;
    *state *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t LatencyDigest(const obs::Histogram& latency, const LoadCounts& counts) {
  std::uint64_t digest = kFnvOffset;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    FnvMix(&digest, latency.bucket(i));
  }
  FnvMix(&digest, latency.count());
  FnvMix(&digest, latency.sum());
  FnvMix(&digest, latency.min());
  FnvMix(&digest, latency.max());
  FnvMix(&digest, counts.requests);
  FnvMix(&digest, counts.ok);
  FnvMix(&digest, counts.errors);
  FnvMix(&digest, counts.timeouts);
  FnvMix(&digest, counts.slow);
  FnvMix(&digest, counts.late_starts);
  return digest;
}

MachineLoadResult RunLoadMachine(const LoadScenario& scenario, std::uint32_t machine_id,
                                 std::size_t trace_capacity) {
  Machine m(ProfileByName(scenario.profile), ServiceConfig(), machine_id, scenario.seed);
  Os& os = m.os();
  if (trace_capacity > 0) {
    os.StartTrace(trace_capacity);
  }
  const std::uint32_t slow_track = os.trace().RegisterTrack("svc/slow");

  std::vector<std::string> grep_paths;
  SetupLoadMachine(m, scenario.clients, &grep_paths);

  if (scenario.chaos > 0.0) {
    os.ArmChaos(
        graysim::FaultPlan::Interference(scenario.chaos, m.DeriveSeed(kChaosStream)));
  }

  // Service-owned series, registered into the machine's registry so they
  // ride the standard snapshot/merge path next to the kernel's own.
  obs::Histogram latency;
  LoadCounts counts;
  m.metrics().AddHistogram("svc.request_latency_ns", "ns", &latency);
  m.metrics().AddCounter("svc.requests", &counts.requests);
  m.metrics().AddCounter("svc.ok", &counts.ok);
  m.metrics().AddCounter("svc.errors", &counts.errors);
  m.metrics().AddCounter("svc.timeouts", &counts.timeouts);
  m.metrics().AddCounter("svc.slow", &counts.slow);
  m.metrics().AddCounter("svc.late_starts", &counts.late_starts);

  const auto window_ns = static_cast<Nanos>(graysim::Seconds(scenario.duration_s));
  const auto slow_ns = static_cast<Nanos>(graysim::Millis(scenario.slow_ms));
  const auto timeout_ns = static_cast<Nanos>(graysim::Millis(scenario.timeout_ms));
  int mix_total = 0;
  for (const int w : scenario.mix) {
    mix_total += w;
  }

  const ClientShared shared{scenario, m, grep_paths, os.Now(), window_ns, slow_ns,
                            timeout_ns, mix_total, slow_track, latency, counts};
  std::vector<std::function<void(Pid)>> bodies;
  bodies.reserve(static_cast<std::size_t>(scenario.clients));
  for (int c = 0; c < scenario.clients; ++c) {
    bodies.push_back([&shared, c](Pid pid) { RunClient(shared, c, pid); });
  }
  m.RunProcesses(bodies);

  MachineLoadResult result;
  result.counts = counts;
  result.virtual_time = os.Now();
  result.digest = LatencyDigest(latency, counts);
  result.metrics = m.SnapshotMetrics();
  if (trace_capacity > 0) {
    std::vector<obs::TraceEvent> events;
    os.trace().Snapshot(&events);
    for (const obs::TraceEvent& e : events) {
      if (e.track == slow_track) {
        result.slow_spans.push_back(e);
      }
    }
  }
  return result;
}

FleetLoadReport RunLoadFleet(const LoadScenario& scenario, int threads,
                             std::size_t trace_capacity) {
  const int machines = scenario.machines;
  threads = std::max(1, std::min(threads, machines));

  std::vector<MachineLoadResult> results(static_cast<std::size_t>(machines));
  if (threads == 1) {
    for (int id = 0; id < machines; ++id) {
      results[static_cast<std::size_t>(id)] =
          RunLoadMachine(scenario, static_cast<std::uint32_t>(id), trace_capacity);
    }
  } else {
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int id = next.fetch_add(1, std::memory_order_relaxed); id < machines;
             id = next.fetch_add(1, std::memory_order_relaxed)) {
          results[static_cast<std::size_t>(id)] =
              RunLoadMachine(scenario, static_cast<std::uint32_t>(id), trace_capacity);
        }
      });
    }
    for (std::thread& th : pool) {
      th.join();
    }
  }

  // Roll up in machine-id order regardless of which thread ran what, so the
  // merged snapshot (and hence every derived percentile) is identical
  // between threaded and sequential runs.
  FleetLoadReport report;
  std::uint64_t digest = kFnvOffset;
  for (int id = 0; id < machines; ++id) {
    MachineLoadResult& r = results[static_cast<std::size_t>(id)];
    Accumulate(&report.counts, r.counts);
    report.metrics.Merge(r.metrics);
    report.machine_digests.push_back(r.digest);
    report.fleet_virtual += r.virtual_time;
    FnvMix(&digest, r.digest);
    if (!r.slow_spans.empty()) {
      report.slow.emplace_back(static_cast<std::uint32_t>(id), std::move(r.slow_spans));
    }
  }
  report.digest = digest;
  return report;
}

bool WriteSlowTrace(const FleetLoadReport& report, const std::string& path) {
  if (report.slow.empty()) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& [machine_id, spans] : report.slow) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"machine%u\"}}",
                 first ? "" : ",", machine_id, machine_id);
    first = false;
    for (const obs::TraceEvent& e : spans) {
      // Chrome trace timestamps are microseconds; keep ns precision in the
      // fraction.
      std::fprintf(f,
                   ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%llu}}",
                   e.name, machine_id, static_cast<double>(e.virtual_ns) / 1000.0,
                   static_cast<double>(e.dur_ns) / 1000.0,
                   e.arg_name != nullptr ? e.arg_name : "arg",
                   static_cast<unsigned long long>(e.arg));
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace grayservice
