// The classic gray-box systems (paper §3, Table 1), rebuilt as kernel
// citizens: real processes on a simulated Machine exchanging real datagrams
// through the simulated link.
//
// Three angles:
//  - Behavior: each ICL's gray-box inference does what the paper says it
//    does — TCP reads drops as congestion and converges to fairness, the
//    coscheduling ring reads scheduling state from response timing, MS
//    Manners reads contention from its own progress and backs off.
//  - Replay: every scenario is bit-identical run-to-run on every platform
//    profile, including with the chaos layer armed. The doubles in the
//    snapshots are compared exactly — same simulation, same bits.
//  - Hardening: with interference armed the ICLs recover via resends and
//    recalibration rather than wedge or give up.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/gray/classic/scenario.h"
#include "src/sim/fault_plan.h"

namespace grayclassic {
namespace {

using graysim::FaultPlan;
using graysim::PlatformProfile;

const PlatformProfile& Profile(int index) {
  static const PlatformProfile profiles[] = {PlatformProfile::Linux22(),
                                             PlatformProfile::NetBsd15(),
                                             PlatformProfile::Solaris7()};
  return profiles[index];
}

// ---- replay snapshots: every counter and double, compared exactly ----

struct TcpSnap {
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t acked = 0;
  std::uint64_t congestion_drops = 0;
  std::uint64_t random_losses = 0;
  std::uint64_t chaos_drops = 0;
  std::uint64_t timeouts = 0;
  double goodput = 0.0;
  double avg_queue = 0.0;
  double fairness = 0.0;
  double avg_cwnd = 0.0;
  graysim::Nanos virtual_time = 0;
  std::vector<std::uint64_t> per_sender;

  friend bool operator==(const TcpSnap&, const TcpSnap&) = default;
};

TcpSnap Snap(const TcpScenarioResult& r) {
  TcpSnap s{r.delivered,     r.delivered_bytes, r.acked,    r.congestion_drops,
            r.random_losses, r.chaos_drops,     r.timeouts, r.goodput,
            r.avg_queue,     r.fairness,        r.avg_cwnd, r.virtual_time,
            {}};
  for (const TcpIclResult& sender : r.senders) {
    s.per_sender.insert(s.per_sender.end(),
                        {sender.acked, sender.sent, sender.retransmits,
                         sender.timeouts, sender.fast_retransmits,
                         sender.recalibrations, sender.srtt, sender.rto});
  }
  return s;
}

struct CoschedSnap {
  graysim::Nanos job_time = 0;
  double slowdown = 0.0;
  double local_share = 0.0;
  graysim::Nanos spin_time = 0;
  std::uint64_t blocks = 0;
  std::uint64_t fast_waits = 0;
  std::uint64_t resends = 0;
  bool gave_up = false;
  graysim::Nanos virtual_time = 0;
  std::vector<std::uint64_t> per_proc;

  friend bool operator==(const CoschedSnap&, const CoschedSnap&) = default;
};

CoschedSnap Snap(const CoschedScenarioResult& r) {
  CoschedSnap s{r.job_time, r.slowdown,    r.local_cpu_share, r.spin_time,
                r.blocks,   r.fast_waits,  r.resends,         r.any_gave_up,
                r.virtual_time, {}};
  for (const CoschedIclResult& p : r.procs) {
    s.per_proc.insert(s.per_proc.end(),
                      {p.iterations_done, p.elapsed, p.spin_time, p.blocks,
                       p.fast_waits, p.resends, p.served, p.benchmark_rtt,
                       p.rtt_estimate});
  }
  return s;
}

struct MannersSnap {
  std::uint64_t bg_units = 0;
  std::uint64_t windows = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t suspended_windows = 0;
  bool sign_fired = false;
  double baseline_rate = 0.0;
  double unit_cost_ns = 0.0;
  double fg_slowdown = 0.0;
  double idle_utilization = 0.0;
  graysim::Nanos fg_demand = 0;
  graysim::Nanos fg_elapsed = 0;
  graysim::Nanos virtual_time = 0;

  friend bool operator==(const MannersSnap&, const MannersSnap&) = default;
};

MannersSnap Snap(const MannersScenarioResult& r) {
  return MannersSnap{r.bg.bg_units,     r.bg.windows,
                     r.bg.suspensions,  r.bg.suspended_windows,
                     r.bg.sign_test_fired, r.bg.baseline_rate,
                     r.bg.unit_cost_ns, r.fg_slowdown,
                     r.idle_utilization, r.fg_demand,
                     r.fg_elapsed,      r.virtual_time};
}

bool MidFg(graysim::Nanos t) { return t >= 1'300'000'000 && t < 2'700'000'000; }

// ---- TCP behavior ----

TEST(ClassicTcp, SingleSenderIsPerfectlyFairAndMovesData) {
  TcpScenarioOptions o;
  o.num_senders = 1;
  o.net.queue_capacity = 64;
  const TcpScenarioResult r = RunTcpScenario(o);
  EXPECT_DOUBLE_EQ(r.fairness, 1.0);
  EXPECT_GT(r.goodput, 0.3);
  EXPECT_GT(r.delivered, 500u);
  EXPECT_EQ(r.random_losses, 0u);
  EXPECT_EQ(r.chaos_drops, 0u);
}

TEST(ClassicTcp, SendersShareABottleneckFairly) {
  TcpScenarioOptions o;
  o.num_senders = 4;
  o.net.queue_capacity = 64;
  const TcpScenarioResult r = RunTcpScenario(o);
  // Four AIMD senders converge: decent utilization, high Jain fairness, and
  // every window collapse traces back to a real router drop.
  EXPECT_GT(r.goodput, 0.5);
  EXPECT_GT(r.fairness, 0.8);
  EXPECT_GT(r.congestion_drops, 0u);
  EXPECT_EQ(r.random_losses, 0u);
  for (const TcpIclResult& s : r.senders) {
    EXPECT_GT(s.acked, 0u);
    EXPECT_LE(s.rto, TcpIcl::kMaxRto) << "the RTO must stay bounded";
  }
}

TEST(ClassicTcp, RandomWirelessLossIsMisreadAsCongestion) {
  TcpScenarioOptions o;
  o.num_senders = 1;
  o.net.queue_capacity = 64;
  TcpScenarioOptions wireless = o;
  wireless.net.drop_prob = 0.02;
  const TcpScenarioResult wired = RunTcpScenario(o);
  const TcpScenarioResult lossy = RunTcpScenario(wireless);
  // The paper's cautionary tale: the ICL's "drop means congestion"
  // assumption is false on a wireless link, so it collapses the window for
  // losses no router caused — every collapse happens with zero queue drops.
  EXPECT_GT(lossy.random_losses, 0u);
  EXPECT_EQ(lossy.congestion_drops, 0u);
  std::uint64_t collapses = lossy.timeouts;
  for (const TcpIclResult& s : lossy.senders) {
    collapses += s.fast_retransmits;
  }
  EXPECT_GT(collapses, 0u);
}

TEST(ClassicTcp, RedKeepsTheQueueShorterThanTailDrop) {
  TcpScenarioOptions tail;
  tail.num_senders = 4;
  tail.net.queue_capacity = 16;
  TcpScenarioOptions red = tail;
  red.net.red = true;
  const TcpScenarioResult t = RunTcpScenario(tail);
  const TcpScenarioResult r = RunTcpScenario(red);
  // Feedback through early drops: senders react before the queue is full,
  // so the standing queue stays shorter.
  EXPECT_GT(t.avg_queue, r.avg_queue);
  EXPECT_GT(r.congestion_drops, 0u);
}

TEST(ClassicTcp, SurvivesChaosInterference) {
  TcpScenarioOptions o;
  o.num_senders = 2;
  o.net.queue_capacity = 64;
  o.chaos = FaultPlan::Interference(0.5);
  const TcpScenarioResult r = RunTcpScenario(o);
  EXPECT_GT(r.chaos_drops, 0u) << "interference must actually hit the link";
  EXPECT_GT(r.delivered, 100u) << "the hardened ICL keeps the pipe moving";
  for (const TcpIclResult& s : r.senders) {
    EXPECT_GT(s.acked, 0u);
    EXPECT_LE(s.rto, TcpIcl::kMaxRto);
  }
}

// ---- implicit coscheduling behavior ----

CoschedScenarioOptions CoschedOpts(WaitPolicy policy) {
  CoschedScenarioOptions o;
  o.policy = policy;
  return o;
}

std::uint64_t TotalWaits(const CoschedScenarioResult& r) {
  return static_cast<std::uint64_t>(r.procs.size()) * CoschedIcl::kIterations;
}

TEST(ClassicCosched, BlockImmediateNeverSpinsAndAlwaysBlocks) {
  const CoschedScenarioResult r =
      RunCoschedScenario(CoschedOpts(WaitPolicy::kBlockImmediate));
  EXPECT_EQ(r.spin_time, 0u);
  EXPECT_EQ(r.fast_waits, 0u);
  EXPECT_EQ(r.blocks, TotalWaits(r));
  EXPECT_FALSE(r.any_gave_up);
}

TEST(ClassicCosched, SpinForeverCatchesEverythingButBurnsTheCpu) {
  const CoschedScenarioResult r =
      RunCoschedScenario(CoschedOpts(WaitPolicy::kSpinForever));
  EXPECT_EQ(r.blocks, 0u);
  EXPECT_EQ(r.fast_waits, TotalWaits(r));
  EXPECT_GT(r.spin_time, 0u);
  EXPECT_FALSE(r.any_gave_up);
}

TEST(ClassicCosched, TwoPhaseSplitsWaitsByObservedResponseTime) {
  const CoschedScenarioResult r = RunCoschedScenario(CoschedOpts(WaitPolicy::kTwoPhase));
  // The implicit information at work: prompt responses are caught inside
  // the spin window (partner was scheduled), late ones fall through to a
  // block (it probably was not). Both must actually occur.
  EXPECT_GT(r.fast_waits, 0u);
  EXPECT_GT(r.blocks, 0u);
  EXPECT_EQ(r.fast_waits + r.blocks, TotalWaits(r));
  EXPECT_GT(r.spin_time, 0u);
  EXPECT_FALSE(r.any_gave_up);
  for (const CoschedIclResult& p : r.procs) {
    EXPECT_EQ(p.iterations_done, static_cast<std::uint64_t>(CoschedIcl::kIterations));
    EXPECT_GT(p.benchmark_rtt, 0u) << "the RTT benchmark must have run";
    EXPECT_GT(p.rtt_estimate, 0u);
  }
}

TEST(ClassicCosched, BlockingHandsTheCpuToLocalJobs) {
  // On one CPU, spinning burns cycles the local jobs (and the partner!)
  // could use. Blocking must leave local jobs a larger share.
  const CoschedScenarioResult block =
      RunCoschedScenario(CoschedOpts(WaitPolicy::kBlockImmediate));
  const CoschedScenarioResult spin =
      RunCoschedScenario(CoschedOpts(WaitPolicy::kSpinForever));
  const CoschedScenarioResult two = RunCoschedScenario(CoschedOpts(WaitPolicy::kTwoPhase));
  EXPECT_GT(block.local_cpu_share, spin.local_cpu_share);
  EXPECT_GT(block.local_cpu_share, two.local_cpu_share);
}

TEST(ClassicCosched, UncontendedRingRunsFasterThanContended) {
  CoschedScenarioOptions contended = CoschedOpts(WaitPolicy::kTwoPhase);
  CoschedScenarioOptions alone = contended;
  alone.local_jobs = 0;
  const CoschedScenarioResult busy = RunCoschedScenario(contended);
  const CoschedScenarioResult idle = RunCoschedScenario(alone);
  EXPECT_LT(idle.job_time, busy.job_time);
}

TEST(ClassicCosched, SurvivesChaosInterference) {
  CoschedScenarioOptions o = CoschedOpts(WaitPolicy::kTwoPhase);
  o.chaos = FaultPlan::Interference(0.5);
  const CoschedScenarioResult r = RunCoschedScenario(o);
  EXPECT_FALSE(r.any_gave_up) << "hardened resends must recover dropped requests";
  for (const CoschedIclResult& p : r.procs) {
    EXPECT_EQ(p.iterations_done, static_cast<std::uint64_t>(CoschedIcl::kIterations));
  }
}

// ---- MS Manners behavior ----

TEST(ClassicManners, BacksOffForTheForegroundWhereGreedyDoesNot) {
  MannersScenarioOptions governed;
  governed.fg_active = MidFg;
  MannersScenarioOptions greedy = governed;
  greedy.governed = false;
  const MannersScenarioResult m = RunMannersScenario(governed);
  const MannersScenarioResult g = RunMannersScenario(greedy);
  EXPECT_GT(m.bg.suspensions, 0u);
  EXPECT_EQ(g.bg.suspensions, 0u);
  EXPECT_LT(m.fg_slowdown, g.fg_slowdown) << "self-regulation must shield the fg";
  EXPECT_LT(m.fg_slowdown, 1.5);
  EXPECT_GT(g.fg_slowdown, 1.5) << "greedy background must visibly hurt the fg";
  EXPECT_LT(m.bg.bg_units, g.bg.bg_units) << "politeness costs background work";
}

TEST(ClassicManners, QuietSystemMeansNoSuspensionsAndFullUtilization) {
  MannersScenarioOptions o;  // no foreground at all
  const MannersScenarioResult r = RunMannersScenario(o);
  EXPECT_EQ(r.bg.suspensions, 0u) << "no contention: the controller stays quiet";
  EXPECT_DOUBLE_EQ(r.fg_slowdown, 1.0);
  EXPECT_GT(r.idle_utilization, 0.9);
}

TEST(ClassicManners, SurvivesChaosInterference) {
  MannersScenarioOptions o;
  o.fg_active = MidFg;
  o.chaos = FaultPlan::Interference(0.5);
  const MannersScenarioResult r = RunMannersScenario(o);
  EXPECT_GT(r.bg.bg_units, 0u);
  EXPECT_GT(r.bg.windows, 10u);
}

// ---- bit-identical replay, all platforms, chaos armed and not ----

class ClassicReplayTest : public ::testing::TestWithParam<int> {};

TEST_P(ClassicReplayTest, TcpReplaysBitIdentically) {
  TcpScenarioOptions o;
  o.profile = Profile(GetParam());
  o.num_senders = 3;
  o.net.queue_capacity = 32;
  o.net.drop_prob = 0.005;
  EXPECT_EQ(Snap(RunTcpScenario(o)), Snap(RunTcpScenario(o)));
  o.chaos = FaultPlan::Interference(0.25);
  EXPECT_EQ(Snap(RunTcpScenario(o)), Snap(RunTcpScenario(o)));
}

TEST_P(ClassicReplayTest, CoschedReplaysBitIdentically) {
  CoschedScenarioOptions o = CoschedOpts(WaitPolicy::kTwoPhase);
  o.profile = Profile(GetParam());
  EXPECT_EQ(Snap(RunCoschedScenario(o)), Snap(RunCoschedScenario(o)));
  o.chaos = FaultPlan::Interference(0.25);
  EXPECT_EQ(Snap(RunCoschedScenario(o)), Snap(RunCoschedScenario(o)));
}

TEST_P(ClassicReplayTest, MannersReplaysBitIdentically) {
  MannersScenarioOptions o;
  o.profile = Profile(GetParam());
  o.fg_active = MidFg;
  EXPECT_EQ(Snap(RunMannersScenario(o)), Snap(RunMannersScenario(o)));
  o.chaos = FaultPlan::Interference(0.25);
  EXPECT_EQ(Snap(RunMannersScenario(o)), Snap(RunMannersScenario(o)));
}

std::string PlatformName(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0:
      return "Linux22";
    case 1:
      return "NetBsd15";
    default:
      return "Solaris7";
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, ClassicReplayTest, ::testing::Values(0, 1, 2),
                         PlatformName);

}  // namespace
}  // namespace grayclassic
