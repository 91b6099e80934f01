// Scenario drivers for the classic gray-box systems (Table 1).
//
// This is harness code, not a gray-box layer: it builds a simulated
// Machine, spawns the cooperating processes (senders and receiver, ring
// peers and echo fiber, background and foreground), and aggregates
// per-process ICL results with kernel-side link counters into the report
// surfaces bench/table1_prior_systems and tests/classic_test consume. The
// ICLs themselves (tcp.h, cosched.h, manners.h) never see graysim — they
// observe and control strictly through SysApi.
#ifndef SRC_GRAY_CLASSIC_SCENARIO_H_
#define SRC_GRAY_CLASSIC_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/gray/classic/cosched.h"
#include "src/gray/classic/manners.h"
#include "src/gray/classic/tcp.h"
#include "src/os/platform.h"

namespace grayclassic {

// ---- TCP ----

struct TcpScenarioOptions {
  graysim::PlatformProfile profile = graysim::PlatformProfile::Linux22();
  int num_senders = 4;
  // The link under test. queue_capacity bounds the router queue (tail
  // drop), drop_prob models a wireless medium, red enables early drops.
  graysim::NetSchedule net;
  graysim::FaultPlan chaos;  // armed at construction when enabled
};

struct TcpScenarioResult {
  std::uint64_t delivered = 0;         // in-order packets at the receiver
  std::uint64_t delivered_bytes = 0;
  std::uint64_t acked = 0;             // sum of sender-side cumulative acks
  std::uint64_t congestion_drops = 0;  // router tail + RED drops
  std::uint64_t random_losses = 0;     // wireless (schedule) losses
  std::uint64_t chaos_drops = 0;       // interference-injected losses
  std::uint64_t timeouts = 0;          // window collapses across senders
  double goodput = 0.0;                // delivered bytes / link capacity
  double avg_queue = 0.0;              // sampled router queue depth
  double fairness = 0.0;               // Jain's index across senders' acks
  double avg_cwnd = 0.0;               // mean of the senders' time-averages
  graysim::Nanos virtual_time = 0;     // machine clock when the run ended
  std::vector<TcpIclResult> senders;
};

[[nodiscard]] TcpScenarioResult RunTcpScenario(const TcpScenarioOptions& options);

// ---- implicit coscheduling ----

struct CoschedScenarioOptions {
  graysim::PlatformProfile profile = graysim::PlatformProfile::Linux22();
  int local_jobs = 4;  // CPU-bound competitors sharing the host
  WaitPolicy policy = WaitPolicy::kTwoPhase;  // every ring process's wait policy
  graysim::FaultPlan chaos;
};

struct CoschedScenarioResult {
  graysim::Nanos job_time = 0;    // slowest ring process's Run() time
  double slowdown = 0.0;          // vs dedicated lock-step execution
  double local_cpu_share = 0.0;   // mean CPU fraction each local job got
  graysim::Nanos spin_time = 0;   // total CPU burned polling
  std::uint64_t blocks = 0;
  std::uint64_t fast_waits = 0;   // responses caught while spinning
  std::uint64_t resends = 0;
  bool any_gave_up = false;
  graysim::Nanos virtual_time = 0;    // machine clock when the run ended
  std::vector<CoschedIclResult> procs;
};

[[nodiscard]] CoschedScenarioResult RunCoschedScenario(const CoschedScenarioOptions& options);

// ---- MS Manners ----

struct MannersScenarioOptions {
  graysim::PlatformProfile profile = graysim::PlatformProfile::Linux22();
  bool governed = true;  // the background process's MannersIclOptions::governed
  // Foreground demand schedule over the offset from scenario start; null =
  // no foreground. Callers must leave the calibration windows quiet — known
  // state is how Manners learns its baseline (Table 1: "none (slow
  // convergence)" — the rebuild calibrates explicitly instead).
  std::function<bool(graysim::Nanos)> fg_active;
  graysim::FaultPlan chaos;
};

struct MannersScenarioResult {
  MannersIclResult bg;
  graysim::Nanos fg_demand = 0;   // compute the foreground wanted
  graysim::Nanos fg_elapsed = 0;  // wall time those bursts actually took
  double fg_slowdown = 0.0;       // fg_elapsed / fg_demand (1.0 = no impact)
  double idle_utilization = 0.0;  // bg work as a fraction of idle CPU
  graysim::Nanos virtual_time = 0;  // machine clock when the run ended
};

[[nodiscard]] MannersScenarioResult RunMannersScenario(const MannersScenarioOptions& options);

// Jain's fairness index over per-flow totals (1.0 = perfectly fair).
[[nodiscard]] double JainFairness(const std::vector<std::uint64_t>& xs);

}  // namespace grayclassic

#endif  // SRC_GRAY_CLASSIC_SCENARIO_H_
