#include "src/gray/classic/scenario.h"

#include <algorithm>
#include <memory>

#include "src/gray/sim_sys.h"
#include "src/os/machine.h"

namespace grayclassic {

namespace {

// TCP: senders start this far apart to desynchronize their start-up bursts,
// and the router queue depth is sampled at this grain for avg_queue.
constexpr graysim::Nanos kSenderStagger = 1'000'000;
constexpr graysim::Nanos kQueueSamplePeriod = 2'000'000;

// Coscheduling: the ring size and the local jobs' compute granularity.
constexpr int kRingProcs = 4;
constexpr graysim::Nanos kLocalGrain = 100'000;
// Fine-grain communication needs a fine-grain scheduler: the default 10 ms
// slice would make every response wait out multi-slice rotations.
constexpr graysim::Nanos kCoschedSlice = 1'000'000;
// Local jobs hold off this long so the ring benchmarks its round trip on a
// quiet host (Table 1: known state is required for benchmarks). The spin
// limit then tracks the coordinated-case response, not the
// rotation-inflated contended one.
constexpr graysim::Nanos kLocalStartDelay = 20'000'000;

// Manners: foreground compute granularity.
constexpr graysim::Nanos kFgGrain = 2'000'000;

// The classic scenarios exercise the CPU, the VM, and the link — not the
// disks — so a lean host keeps Machine construction cheap.
graysim::MachineConfig HostConfig(const graysim::NetSchedule& net,
                                  const graysim::FaultPlan& chaos) {
  graysim::MachineConfig config;
  config.phys_mem_bytes = 64ULL * 1024 * 1024;
  config.kernel_reserved_bytes = 16ULL * 1024 * 1024;
  config.num_disks = 1;
  config.net = net;
  config.chaos = chaos;
  return config;
}

}  // namespace

double JainFairness(const std::vector<std::uint64_t>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  double sumsq = 0.0;
  for (const std::uint64_t x : xs) {
    const auto v = static_cast<double>(x);
    sum += v;
    sumsq += v * v;
  }
  if (sumsq == 0.0) {
    return 0.0;
  }
  return sum * sum / (static_cast<double>(xs.size()) * sumsq);
}

TcpScenarioResult RunTcpScenario(const TcpScenarioOptions& options) {
  graysim::Machine machine(options.profile, HostConfig(options.net, options.chaos));
  graysim::Os& os = machine.os();

  const int n = std::max(1, options.num_senders);
  // Endpoint ids are assigned in creation order; allocating them up front
  // from the driver keeps the assignment independent of fiber scheduling.
  const int receiver_ep = os.NetEndpoint(os.default_pid());
  std::vector<int> sender_eps(static_cast<std::size_t>(n));
  for (int& ep : sender_eps) {
    ep = os.NetEndpoint(os.default_pid());
  }

  TcpScenarioResult result;
  result.senders.resize(static_cast<std::size_t>(n));
  TcpReceiverStats receiver_stats;
  auto senders_left = std::make_shared<int>(n);
  double queue_samples = 0.0;
  double queue_depth_sum = 0.0;

  std::vector<std::function<void(graysim::Pid)>> bodies;
  // Receiver: outlives the senders' worst RTO backoff, then idles out.
  const graysim::Nanos idle_timeout = 2 * TcpIcl::kMaxRto + 50'000'000;
  bodies.push_back([&, receiver_ep](graysim::Pid pid) {
    gray::SimSys sys(&os, pid);
    receiver_stats = RunTcpReceiver(&sys, receiver_ep, idle_timeout);
  });
  for (int i = 0; i < n; ++i) {
    bodies.push_back([&, i](graysim::Pid pid) {
      gray::SimSys sys(&os, pid);
      if (i > 0) {
        sys.SleepNs(static_cast<graysim::Nanos>(i) * kSenderStagger);
      }
      TcpIcl icl(&sys, TcpIclOptions{sender_eps[static_cast<std::size_t>(i)], receiver_ep});
      result.senders[static_cast<std::size_t>(i)] = icl.Run();
      --*senders_left;
    });
  }
  // Queue sampler: kernel-side observer (harness privilege, not gray-box).
  bodies.push_back([&](graysim::Pid pid) {
    while (*senders_left > 0) {
      os.Sleep(pid, kQueueSamplePeriod);
      queue_depth_sum += static_cast<double>(os.net().link().depth());
      queue_samples += 1.0;
    }
  });

  os.RunProcesses(bodies);
  result.virtual_time = os.Now();

  std::vector<std::uint64_t> acked;
  acked.reserve(result.senders.size());
  for (const TcpIclResult& s : result.senders) {
    result.acked += s.acked;
    result.timeouts += s.timeouts;
    result.avg_cwnd += s.avg_cwnd / static_cast<double>(n);
    acked.push_back(s.acked);
  }
  result.delivered = receiver_stats.in_order;
  result.delivered_bytes = receiver_stats.bytes;
  result.congestion_drops = os.net().congestion_drops() + os.net().red_drops();
  result.random_losses = os.net().loss_drops();
  result.chaos_drops = os.net().chaos_drops();
  result.fairness = JainFairness(acked);
  result.avg_queue = queue_samples > 0.0 ? queue_depth_sum / queue_samples : 0.0;
  const double capacity_bytes = options.net.bytes_per_sec *
                                static_cast<double>(TcpIcl::kRunFor) / 1e9;
  result.goodput = capacity_bytes > 0.0
                       ? static_cast<double>(result.delivered_bytes) / capacity_bytes
                       : 0.0;
  return result;
}

CoschedScenarioResult RunCoschedScenario(const CoschedScenarioOptions& options) {
  graysim::MachineConfig host = HostConfig(graysim::NetSchedule{}, options.chaos);
  host.scheduler_slice = kCoschedSlice;
  graysim::Machine machine(options.profile, host);
  graysim::Os& os = machine.os();

  const int n = kRingProcs;
  const int echo_ep = os.NetEndpoint(os.default_pid());
  std::vector<int> proc_eps(static_cast<std::size_t>(n));
  for (int& ep : proc_eps) {
    ep = os.NetEndpoint(os.default_pid());
  }

  CoschedScenarioResult result;
  result.procs.resize(static_cast<std::size_t>(n));
  auto ring_left = std::make_shared<int>(n);
  graysim::Nanos local_busy_total = 0;

  std::vector<std::function<void(graysim::Pid)>> bodies;
  bodies.push_back([&, echo_ep](graysim::Pid pid) {
    gray::SimSys sys(&os, pid);
    (void)RunCoschedEcho(&sys, echo_ep, 50'000'000);
  });
  for (int i = 0; i < n; ++i) {
    bodies.push_back([&, i](graysim::Pid pid) {
      gray::SimSys sys(&os, pid);
      CoschedIcl icl(&sys, CoschedIclOptions{proc_eps[static_cast<std::size_t>(i)],
                                             proc_eps[static_cast<std::size_t>((i + 1) % n)],
                                             echo_ep, options.policy});
      result.procs[static_cast<std::size_t>(i)] = icl.Run();
      --*ring_left;
      // Serve stragglers until the whole ring is done (a single quiet
      // Linger window is not enough when chaos can drop a resend); locals
      // already saw the job end, so job-time accounting excludes this tail.
      while (*ring_left > 0) {
        icl.Linger();
      }
    });
  }
  for (int j = 0; j < options.local_jobs; ++j) {
    bodies.push_back([&](graysim::Pid pid) {
      os.Sleep(pid, kLocalStartDelay);
      while (*ring_left > 0) {
        os.Compute(pid, kLocalGrain);
        local_busy_total += kLocalGrain;
      }
    });
  }

  os.RunProcesses(bodies);
  result.virtual_time = os.Now();

  double bench_rtt_sum = 0.0;
  for (const CoschedIclResult& p : result.procs) {
    result.job_time = std::max(result.job_time, p.elapsed);
    result.spin_time += p.spin_time;
    result.blocks += p.blocks;
    result.fast_waits += p.fast_waits;
    result.resends += p.resends;
    result.any_gave_up = result.any_gave_up || p.gave_up;
    bench_rtt_sum += static_cast<double>(p.benchmark_rtt);
  }
  // Dedicated lock-step ideal: every ring process's compute serializes on
  // the one CPU, plus a round trip of coordination per iteration.
  const double ideal =
      static_cast<double>(CoschedIcl::kIterations) *
      (static_cast<double>(n) * static_cast<double>(CoschedIcl::kCompute) +
       bench_rtt_sum / static_cast<double>(n));
  result.slowdown =
      ideal > 0.0 ? static_cast<double>(result.job_time) / ideal : 0.0;
  result.local_cpu_share =
      options.local_jobs > 0 && result.job_time > 0
          ? static_cast<double>(local_busy_total) /
                (static_cast<double>(result.job_time) *
                 static_cast<double>(options.local_jobs))
          : 0.0;
  return result;
}

MannersScenarioResult RunMannersScenario(const MannersScenarioOptions& options) {
  graysim::Machine machine(options.profile,
                           HostConfig(graysim::NetSchedule{}, options.chaos));
  graysim::Os& os = machine.os();

  MannersScenarioResult result;
  const graysim::Nanos run_for = MannersIcl::kRunFor;

  std::vector<std::function<void(graysim::Pid)>> bodies;
  bodies.push_back([&](graysim::Pid pid) {
    gray::SimSys sys(&os, pid);
    MannersIcl icl(&sys, MannersIclOptions{options.governed});
    result.bg = icl.Run();
  });
  if (options.fg_active) {
    bodies.push_back([&](graysim::Pid pid) {
      gray::SimSys sys(&os, pid);
      const graysim::Nanos start = sys.Now();
      while (sys.Now() - start < run_for) {
        const graysim::Nanos offset = sys.Now() - start;
        if (options.fg_active(offset)) {
          const graysim::Nanos t0 = sys.Now();
          sys.Compute(kFgGrain);
          result.fg_demand += kFgGrain;
          result.fg_elapsed += sys.Now() - t0;
        } else {
          sys.SleepNs(kFgGrain);
        }
      }
    });
  }

  os.RunProcesses(bodies);
  result.virtual_time = os.Now();

  result.fg_slowdown = result.fg_demand > 0
                           ? static_cast<double>(result.fg_elapsed) /
                                 static_cast<double>(result.fg_demand)
                           : 1.0;
  const double idle_ns =
      static_cast<double>(run_for) - static_cast<double>(result.fg_demand);
  result.idle_utilization =
      idle_ns > 0.0 ? static_cast<double>(result.bg.bg_units) * result.bg.unit_cost_ns /
                          idle_ns
                    : 0.0;
  return result;
}

}  // namespace grayclassic
