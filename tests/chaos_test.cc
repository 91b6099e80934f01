// Chaos-layer tests: a FaultPlan is a seeded, replayable schedule, not a
// fuzzer. The same plan against the same workload must produce bit-identical
// virtual time, OsStats, AND injected-fault counters on every platform
// profile; arming and disarming must be clean (no pseudo pages left behind,
// no faults after disarm); and the antagonist/shock machinery must survive
// a high-intensity stress mix (the ASan job leans on this test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/os/chaos_engine.h"
#include "src/os/os.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;

void MakeFile(Os& os, Pid pid, const std::string& path, std::uint64_t bytes) {
  const int fd = os.Creat(pid, path);
  ASSERT_GE(fd, 0) << path;
  const std::uint64_t chunk = 1 * kMb;
  for (std::uint64_t off = 0; off < bytes; off += chunk) {
    const std::uint64_t n = std::min(chunk, bytes - off);
    ASSERT_EQ(os.Pwrite(pid, fd, n, off), static_cast<std::int64_t>(n));
  }
  ASSERT_EQ(os.Fsync(pid, fd), 0);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

struct Snapshot {
  Nanos virtual_time = 0;
  OsStats stats;
  ChaosStats chaos;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

// A fault-tolerant mixed workload: every syscall result is accepted (under
// chaos, reads fail with EIO, writes with ENOSPC or short counts), so the
// only invariants left are the deterministic ones the Snapshot captures.
Snapshot RunChaosWorkload(const PlatformProfile& profile, const FaultPlan& plan,
                          int nprocs) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;  // 128 MB usable: real pressure
  Os os(profile, cfg);
  const Pid setup = os.default_pid();
  for (int d = 0; d < 2; ++d) {
    MakeFile(os, setup, "/d" + std::to_string(d) + "/input", 24 * kMb);
  }
  os.FlushFileCache();
  os.ArmChaos(plan);

  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < nprocs; ++i) {
    bodies.push_back([&os, i](Pid pid) {
      const std::string in = "/d" + std::to_string(i % 2) + "/input";
      const int fd = os.Open(pid, in);
      ASSERT_GE(fd, 0);
      std::uint64_t off = static_cast<std::uint64_t>(i) * 512 * 1024;
      for (int k = 0; k < 24; ++k) {
        (void)os.Pread(pid, fd, {}, 256 * 1024, off % (24 * kMb));
        off += 256 * 1024;
      }
      InodeAttr attr;
      (void)os.Stat(pid, in, &attr);
      (void)os.Close(pid, fd);
      const int out =
          os.Creat(pid, "/d" + std::to_string(i % 2) + "/out" + std::to_string(i));
      ASSERT_GE(out, 0);
      for (int k = 0; k < 8; ++k) {
        (void)os.Pwrite(pid, out, 512 * 1024,
                        static_cast<std::uint64_t>(k) * 512 * 1024);
      }
      if (i % 2 == 0) {
        (void)os.Fsync(pid, out);
      }
      (void)os.Close(pid, out);
      const VmAreaId area = os.VmAlloc(pid, (2 + i % 3) * kMb);
      const std::uint64_t pages = (2 + i % 3) * kMb / os.page_size();
      for (std::uint64_t p = 0; p < pages; ++p) {
        os.VmTouch(pid, area, p, /*write=*/true);
      }
      os.Sleep(pid, Millis(1.0 + i));
      os.VmFree(pid, area);
    });
  }
  os.RunProcesses(bodies);

  Snapshot snap;
  snap.virtual_time = os.Now();
  snap.stats = os.stats();
  snap.chaos = os.chaos_stats();
  return snap;
}

class ChaosDeterminismTest : public ::testing::TestWithParam<const char*> {
 protected:
  static PlatformProfile ProfileFor(const std::string& name) {
    if (name == "linux2.2") {
      return PlatformProfile::Linux22();
    }
    if (name == "netbsd1.5") {
      return PlatformProfile::NetBsd15();
    }
    return PlatformProfile::Solaris7();
  }
};

TEST_P(ChaosDeterminismTest, SameSeedIsBitIdentical) {
  const PlatformProfile profile = ProfileFor(GetParam());
  const FaultPlan plan = FaultPlan::Interference(0.5);
  const Snapshot a = RunChaosWorkload(profile, plan, 6);
  const Snapshot b = RunChaosWorkload(profile, plan, 6);
  EXPECT_EQ(a.virtual_time, b.virtual_time);
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_TRUE(a.chaos == b.chaos);
  // The plan actually did something: faults and interference were injected.
  EXPECT_GT(a.chaos.injected_read_errors + a.chaos.injected_write_errors +
                a.chaos.injected_stat_errors + a.chaos.short_writes,
            0u);
  EXPECT_GT(a.chaos.degraded_requests, 0u);
  EXPECT_GT(a.chaos.reader_ticks + a.chaos.dirtier_ticks, 0u);
}

TEST_P(ChaosDeterminismTest, DifferentSeedsDiverge) {
  const PlatformProfile profile = ProfileFor(GetParam());
  const Snapshot a = RunChaosWorkload(profile, FaultPlan::Interference(0.5, 1), 6);
  const Snapshot b = RunChaosWorkload(profile, FaultPlan::Interference(0.5, 2), 6);
  // Not a bit-for-bit requirement in reverse, but two different fault
  // schedules agreeing on every counter would mean the seed is ignored.
  EXPECT_FALSE(a.chaos == b.chaos);
}

INSTANTIATE_TEST_SUITE_P(Platforms, ChaosDeterminismTest,
                         ::testing::Values("linux2.2", "netbsd1.5", "solaris7"));

TEST(ChaosTest, DisabledPlanIsExactlyTheCleanMachine) {
  // Zero-cost-when-off, stated as bits: intensity 0 produces a disabled
  // plan, and a machine configured with it matches a plain machine on every
  // counter after the same workload.
  const FaultPlan off = FaultPlan::Interference(0.0);
  EXPECT_FALSE(off.enabled);
  const Snapshot a = RunChaosWorkload(PlatformProfile::Linux22(), off, 4);
  const Snapshot b = RunChaosWorkload(PlatformProfile::Linux22(), FaultPlan{}, 4);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.chaos == ChaosStats{});
}

TEST(ChaosTest, ArmViaMachineConfig) {
  MachineConfig cfg;
  cfg.chaos = FaultPlan::Interference(0.5);
  Os os(PlatformProfile::Linux22(), cfg);
  EXPECT_TRUE(os.chaos_armed());
  Os plain(PlatformProfile::Linux22());
  EXPECT_FALSE(plain.chaos_armed());
}

TEST(ChaosTest, DisarmStopsInjectionAndDropsPseudoPages) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/input", 16 * kMb);

  FaultPlan plan = FaultPlan::Interference(1.0);
  plan.read_eio_prob = 1.0;  // every read fails while armed
  os.ArmChaos(plan);

  const int fd = os.Open(pid, "/d0/input");
  ASSERT_GE(fd, 0);
  EXPECT_EQ(os.Pread(pid, fd, {}, 4096, 0), -static_cast<int>(FsErr::kIo));
  // Let the antagonists run so pseudo pages enter the cache.
  os.RunProcesses({[&os](Pid p) { os.Sleep(p, Millis(100.0)); }});
  EXPECT_GT(os.chaos_stats().reader_ticks + os.chaos_stats().dirtier_ticks, 0u);

  os.DisarmChaos();
  EXPECT_FALSE(os.chaos_armed());
  EXPECT_TRUE(os.chaos_stats() == ChaosStats{});  // engine gone with its counters
  // Reads succeed again, and the machine keeps running without the engine.
  EXPECT_EQ(os.Pread(pid, fd, {}, 4096, 0), 4096);
  os.RunProcesses({[&os](Pid p) { os.Sleep(p, Millis(100.0)); }});
  EXPECT_EQ(os.Close(pid, fd), 0);
}

TEST(ChaosTest, RearmResetsTheSchedule) {
  // Arming the same plan twice replays the same fault sequence from the
  // start: the chaos RNG belongs to the engine, not the machine.
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/input", 8 * kMb);
  FaultPlan plan;
  plan.enabled = true;
  plan.read_eio_prob = 0.5;
  plan.eio_latency = Millis(1.0);

  auto fault_pattern = [&] {
    std::vector<bool> pattern;
    const int fd = os.Open(pid, "/d0/input");
    for (int k = 0; k < 64; ++k) {
      pattern.push_back(os.Pread(pid, fd, {}, 1, static_cast<std::uint64_t>(k) * 4096) < 0);
    }
    (void)os.Close(pid, fd);
    return pattern;
  };

  os.ArmChaos(plan);
  const std::vector<bool> first = fault_pattern();
  os.ArmChaos(plan);  // re-arm: fresh engine, same seed
  const std::vector<bool> second = fault_pattern();
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::find(first.begin(), first.end(), true) != first.end());
}

// The jitter-burst test Os::Jittered made on every charge before the engine
// kept the wave's current run: InWindow's comparison on now % period. Kept
// here as the reference JitterAmplitude must match.
double SquareWaveAmplitude(const FaultPlan& plan, Nanos now, double base) {
  if (plan.jitter_burst_period == 0) {
    return base;
  }
  const double phase = static_cast<double>(now % plan.jitter_burst_period);
  const double period = static_cast<double>(plan.jitter_burst_period);
  return phase < plan.jitter_burst_duty * period ? plan.jitter_burst_amplitude : base;
}

// Instants on both sides of every window edge over 30 periods, plus seeded
// ones, asked in ascending order, then in random order, then of a fresh
// engine (a re-arm) from the latest instant back to the earliest. Waves
// cover duty 0, duty 1, and edges that fall between two integers.
TEST(ChaosEngineTest, JitterAmplitudeMatchesTheSquareWave) {
  struct Wave {
    Nanos period;
    double duty;
  };
  const Wave waves[] = {
      {Millis(50.0), 0.4},
      {Millis(50.0), 0.0},
      {Millis(50.0), 1.0},
      {7, 0.5},
      {1000, 1.0 / 3.0},
      {1, 0.5},
      {3, 1.0},
  };
  constexpr double kBase = 0.05;
  std::mt19937_64 rng(0x71773);
  for (const Wave& wave : waves) {
    SCOPED_TRACE("period " + std::to_string(wave.period) + " duty " + std::to_string(wave.duty));
    FaultPlan plan;
    plan.enabled = true;
    plan.jitter_burst_period = wave.period;
    plan.jitter_burst_duty = wave.duty;
    plan.jitter_burst_amplitude = 0.6;
    const double edge = wave.duty * static_cast<double>(wave.period);
    std::vector<Nanos> instants;
    for (Nanos k = 0; k < 30; ++k) {
      const Nanos start = k * wave.period;
      const Nanos below = start + static_cast<Nanos>(std::floor(edge));
      const Nanos above = start + static_cast<Nanos>(std::ceil(edge));
      for (const Nanos at : {start, below, above}) {
        for (const Nanos near : {at - 1, at, at + 1}) {
          if (near <= start + 2 * wave.period) {  // start - 1 wraps when start is 0
            instants.push_back(near);
          }
        }
      }
    }
    for (int i = 0; i < 3000; ++i) {
      instants.push_back(rng() % (40 * wave.period));
    }
    std::vector<Nanos> ascending = instants;
    std::sort(ascending.begin(), ascending.end());

    ChaosEngine engine(plan);
    int bursts = 0;
    for (const Nanos t : ascending) {
      const double amplitude = engine.JitterAmplitude(t, kBase);
      ASSERT_EQ(amplitude, SquareWaveAmplitude(plan, t, kBase)) << "ascending, at " << t;
      bursts += amplitude == plan.jitter_burst_amplitude ? 1 : 0;
    }
    for (const Nanos t : instants) {
      ASSERT_EQ(engine.JitterAmplitude(t, kBase), SquareWaveAmplitude(plan, t, kBase))
          << "random order, at " << t;
    }
    ChaosEngine rearmed(plan);
    for (auto it = ascending.rbegin(); it != ascending.rend(); ++it) {
      ASSERT_EQ(rearmed.JitterAmplitude(*it, kBase), SquareWaveAmplitude(plan, *it, kBase))
          << "re-armed, descending, at " << *it;
    }
    const int asked = static_cast<int>(ascending.size());
    if (wave.duty == 0.0) {
      EXPECT_EQ(bursts, 0);
    } else if (wave.duty == 1.0 || wave.period == 1) {  // a 1 ns period stays at phase 0
      EXPECT_EQ(bursts, asked);
    } else {
      EXPECT_GT(bursts, 0);
      EXPECT_LT(bursts, asked);
    }
  }
}

// The stress test the sanitizer job leans on: maximum intensity, tight
// memory, many processes. Antagonist reader/dirtier ticks, pressure shocks,
// degraded windows, and injected faults all run concurrently with real
// reclaim; ASan checks the event closures and page bookkeeping.
TEST(ChaosStressTest, AntagonistsSurviveHighIntensity) {
  const FaultPlan plan = FaultPlan::Interference(1.0);
  const Snapshot a = RunChaosWorkload(PlatformProfile::Linux22(), plan, 12);
  const Snapshot b = RunChaosWorkload(PlatformProfile::Linux22(), plan, 12);
  EXPECT_EQ(a.virtual_time, b.virtual_time);
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_TRUE(a.chaos == b.chaos);
  EXPECT_GT(a.chaos.antagonist_pages, 0u);
  EXPECT_GT(a.chaos.pressure_shocks, 0u);
}

}  // namespace
}  // namespace graysim
