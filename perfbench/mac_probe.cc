// The MAC layer probe: the robustness_matrix MAC cell, run in traced runs.
//
// One 512 MB Linux 2.2 machine is forked from a fresh image with
// interference 0.5 armed. Each round runs hardened
// GbAllocBlocking(192 MB, 320 MB, 1 MB), touches every admitted page, then
// sleeps 20 ms of virtual time; rounds repeat for a fixed virtual budget
// (one session). Nearly all host time is page-touch probing in gray.mac and
// gray.probe through vm and mem: one fiber, no files, no service.
//
// It feeds the per-layer metrics only. As a workload of its own its host
// time was too unsteady to carry an end-to-end bound: on a shared 4-vCPU
// host, the round time of this memory-bound loop moved between two speeds
// (p50 24 ms vs 38 ms) from run to run, and the spread of ops_per_host_s
// over ten seeds was 0.31-0.45 of its median in three trials.
#include <optional>
#include <string>

#include "perfbench/graybench.h"
#include "src/gray/mac/mac.h"
#include "src/gray/sim_sys.h"

namespace perfbench {

namespace {

using graysim::Machine;
using graysim::MachineImage;
using graysim::Nanos;
using graysim::Os;
using graysim::Pid;

constexpr double kIntensity = 0.5;
constexpr std::uint64_t kMinBytes = 192 * kMb;
constexpr std::uint64_t kMaxBytes = 320 * kMb;
// Admission latencies depend on where a session's interference bursts fall,
// so the probe pools short sessions, each with its own chaos seed.
constexpr int kSessions = 4;
constexpr Nanos kSessionBudget = graysim::Millis(10'000.0);

// Pin: FNV over MacMetrics, ProbeReport and OsStats of a short session on
// the seed-0x10AD machine.
constexpr Nanos kPinBudget = graysim::Millis(2'000.0);
constexpr std::uint64_t kPinnedDigest = 0xaee9a091680c9a25ULL;

struct Session {
  std::uint64_t rounds = 0;
  std::uint64_t admitted_bytes = 0;
  double alloc_host_ns = 0.0;
  gray::MacMetrics mac;
  gray::ProbeReport probe;
  Nanos virtual_ns = 0;  // first round start to last round end
  std::uint64_t digest = 0;
};

MachineImage FreshImage(std::uint64_t seed) {
  graysim::MachineConfig cfg;
  cfg.phys_mem_bytes = 512 * kMb;
  return Machine(graysim::PlatformProfile::Linux22(), cfg, 0, seed).Snapshot();
}

// Runs admission rounds on a fork of `image` until `budget` of virtual time
// has passed. A refused admission (GbAllocBlocking returning nullopt) ends
// the session and is reported through *errors.
Session RunSession(const MachineImage& image, std::uint64_t chaos_seed, Nanos budget,
                   std::vector<std::string>* errors) {
  const std::unique_ptr<Machine> machine = Machine::Fork(image);
  Os& os = machine->os();
  os.ArmChaos(graysim::FaultPlan::Interference(kIntensity, chaos_seed));
  Session s;
  os.RunProcesses({[&](Pid pid) {
    gray::SimSys sys(&os, pid);
    gray::MacOptions options;
    options.hardened = true;
    gray::Mac mac(&sys, options);
    const Nanos t0 = os.Now();
    const Nanos end = t0 + budget;
    while (os.Now() < end) {
      Scope round("gray.mac.round", 0);
      std::optional<gray::GbAllocation> alloc;
      {
        Scope span("gray.mac.alloc", 0);
        alloc = mac.GbAllocBlocking(kMinBytes, kMaxBytes, kMb);
        s.alloc_host_ns += static_cast<double>(span.Close());
      }
      ++s.rounds;
      if (!alloc.has_value()) {
        errors->push_back("mac probe: GbAllocBlocking refused an admission");
        break;
      }
      {
        Scope span("gray.mac.touch", 0);
        const std::uint64_t pages = alloc->PageCount();
        for (std::uint64_t p = 0; p < pages; ++p) {
          alloc->Touch(p, /*write=*/true);
        }
        span.Close(pages);
      }
      s.admitted_bytes += alloc->bytes();
      {
        Scope span("gray.mac.release", 0);
        alloc->Release();
      }
      s.virtual_ns = os.Now() - t0;
      Scope span("os.sleep", 0);
      os.Sleep(pid, graysim::Millis(20.0));
    }
    s.mac = mac.metrics();
    s.probe = mac.probe_report();
  }});

  Fnv fnv;
  const gray::MacMetrics& m = s.mac;
  for (const std::uint64_t v :
       {m.pages_probed, m.slow_touches, m.early_skips, m.failed_iterations, m.retries,
        m.aborted_verifications, m.backoffs, m.recalibrations, m.probe_time, m.wait_time}) {
    fnv.Add(v);
  }
  const gray::ProbeReport& p = s.probe;
  for (const std::uint64_t v :
       {p.probes, p.batches, p.pread_probes, p.memtouch_probes, p.stat_probes, p.net_probes,
        p.failed_probes, p.retried_probes, p.bytes_touched, p.probe_time}) {
    fnv.Add(v);
  }
  AddOsStats(&fnv, os.stats());
  s.digest = fnv.value();
  return s;
}

}  // namespace

void MacLayerProbe(const Options& options, Report* report) {
  const bool tracing = Tracing();
  SetTracing(false);
  const Session pin = RunSession(FreshImage(0x10AD), 0x10AD, kPinBudget, &report->errors);
  if (pin.digest != kPinnedDigest) {
    report->errors.push_back(PinMismatch("mac probe pin", pin.digest, kPinnedDigest));
  }
  SetTracing(tracing);

  const MachineImage image = FreshImage(options.root_seed);
  std::uint64_t rounds = 0;
  std::uint64_t admitted_bytes = 0;
  double alloc_host_ns = 0.0;
  double virt_s = 0.0;
  gray::MacMetrics m;
  gray::ProbeReport p;
  for (int n = 0; n < kSessions; ++n) {
    const Session s = RunSession(image, options.root_seed + static_cast<std::uint64_t>(n),
                                 kSessionBudget, &report->errors);
    rounds += s.rounds;
    admitted_bytes += s.admitted_bytes;
    alloc_host_ns += s.alloc_host_ns;
    virt_s += static_cast<double>(s.virtual_ns) / 1e9;
    m.pages_probed += s.mac.pages_probed;
    m.slow_touches += s.mac.slow_touches;
    m.aborted_verifications += s.mac.aborted_verifications;
    m.retries += s.mac.retries;
    m.recalibrations += s.mac.recalibrations;
    p.probes += s.probe.probes;
    p.batches += s.probe.batches;
    p.failed_probes += s.probe.failed_probes;
    p.retried_probes += s.probe.retried_probes;
    p.probe_time += s.probe.probe_time;
  }

  std::map<std::string, double>& l = report->layer;
  l["gray.mac.pages_probed"] = static_cast<double>(m.pages_probed);
  l["gray.mac.slow_touches"] = static_cast<double>(m.slow_touches);
  l["gray.mac.aborted_verifications"] = static_cast<double>(m.aborted_verifications);
  l["gray.mac.retries"] = static_cast<double>(m.retries);
  l["gray.mac.recalibrations"] = static_cast<double>(m.recalibrations);
  l["gray.mac.admit_ratio"] =
      rounds > 0 ? static_cast<double>(admitted_bytes) / (static_cast<double>(rounds) * kMaxBytes)
                 : 0.0;
  l["gray.probe.probes"] = static_cast<double>(p.probes);
  l["gray.probe.batches"] = static_cast<double>(p.batches);
  l["gray.probe.failed"] = static_cast<double>(p.failed_probes);
  l["gray.probe.retried"] = static_cast<double>(p.retried_probes);
  l["gray.probe.host_ns_per_probe"] =
      p.probes > 0 ? alloc_host_ns / static_cast<double>(p.probes) : 0.0;
  l["gray.probe.virt_share"] =
      virt_s > 0.0 ? static_cast<double>(p.probe_time) / 1e9 / virt_s : 0.0;
}

}  // namespace perfbench
