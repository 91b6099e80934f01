#include "src/gray/mac/governor.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/gray/sim_sys.h"

namespace gray {
namespace {

using graysim::MachineConfig;
using graysim::Os;
using graysim::Pid;
using graysim::PlatformProfile;

constexpr std::uint64_t kMb = 1024 * 1024;

MachineConfig SmallMachine(std::uint64_t usable_mb) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = (usable_mb + 16) * kMb;
  cfg.kernel_reserved_bytes = 16 * kMb;
  return cfg;
}

TEST(GovernorTest, AcquireAllGrantsEverythingOnIdleMachine) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  GbGovernor governor(&sys);
  const std::vector<MemRequest> requests = {{32 * kMb, 32 * kMb, 4096},
                                            {64 * kMb, 64 * kMb, 4096}};
  auto held = governor.AcquireAll(requests);
  ASSERT_TRUE(held.has_value());
  ASSERT_EQ(held->size(), 2u);
  EXPECT_EQ((*held)[0].bytes(), 32 * kMb);
  EXPECT_EQ((*held)[1].bytes(), 64 * kMb);
}

TEST(GovernorTest, AcquireAllEmptyRequestTrivial) {
  Os os(PlatformProfile::Linux22(), SmallMachine(64));
  SimSys sys(&os, os.default_pid());
  GbGovernor governor(&sys);
  auto held = governor.AcquireAll({});
  ASSERT_TRUE(held.has_value());
  EXPECT_TRUE(held->empty());
}

TEST(GovernorTest, HoldAndWaitDeadlocksButReleaseOnFailureDoesNot) {
  // The paper's §4.3.2 deadlock scenario: each process grabs ~half of
  // memory, then wants more while holding it.
  //
  // Naive version: hold the first allocation and blocking-retry the second
  // — both processes starve until their retry budgets run out.
  const std::uint64_t usable = 256;
  auto run = [&](bool use_governor) {
    Os os(PlatformProfile::Linux22(), SmallMachine(usable));
    int successes = 0;
    std::vector<std::function<void(Pid)>> bodies;
    for (int i = 0; i < 2; ++i) {
      bodies.push_back([&os, &successes, use_governor](Pid pid) {
        SimSys sys(&os, pid);
        if (use_governor) {
          GbGovernor governor(&sys);
          auto held = governor.AcquireAll(std::vector<MemRequest>{
              {110 * kMb, 110 * kMb, 4096}, {80 * kMb, 80 * kMb, 4096}});
          if (held.has_value()) {
            ++successes;
            // Do a little "work", then release (RAII).
            os.Compute(pid, graysim::Millis(50.0));
          }
        } else {
          Mac mac(&sys);
          auto first = mac.GbAlloc(110 * kMb, 110 * kMb, 4096);
          if (!first.has_value()) {
            return;
          }
          // Hold-and-wait: keep the first allocation hot (it is our working
          // set) while retrying the second — the deadlock pattern.
          for (int r = 0; r < 12; ++r) {
            auto second = mac.GbAlloc(80 * kMb, 80 * kMb, 4096);
            if (second.has_value()) {
              ++successes;
              return;
            }
            for (std::uint64_t p = 0; p < first->PageCount(); ++p) {
              first->Touch(p, true);
            }
            os.Sleep(pid, graysim::Millis(100.0));
          }
        }
      });
    }
    os.RunProcesses(bodies);
    return successes;
  };

  EXPECT_LT(run(/*use_governor=*/false), 2)
      << "hold-and-wait should deadlock at least one process";
  EXPECT_EQ(run(/*use_governor=*/true), 2)
      << "release-on-failure must let both processes finish";
}

TEST(GovernorTest, AcquireFairLeavesRoomForPeers) {
  Os os(PlatformProfile::Linux22(), SmallMachine(512));
  SimSys sys(&os, os.default_pid());
  GbGovernor governor(&sys);
  auto fair = governor.AcquireFair(MemRequest{32 * kMb, 512 * kMb, 4096},
                                   /*expected_peers=*/4);
  ASSERT_TRUE(fair.has_value());
  // Roughly a quarter of the ~512 MB discoverable memory.
  EXPECT_LE(fair->bytes(), 200 * kMb);
  EXPECT_GE(fair->bytes(), 90 * kMb);
}

TEST(GovernorTest, MetricsCountRounds) {
  Os os(PlatformProfile::Linux22(), SmallMachine(128));
  SimSys sys(&os, os.default_pid());
  GbGovernor governor(&sys);
  auto held = governor.AcquireAll(std::vector<MemRequest>{{16 * kMb, 16 * kMb, 4096}});
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(governor.metrics().rounds, 1u);
  EXPECT_EQ(governor.metrics().partial_releases, 0u);
}

}  // namespace
}  // namespace gray
