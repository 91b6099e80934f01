#include "src/gray/mac/mac.h"

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

TEST(MacTest, SelfCalibratedThresholdSeparatesMemoryFromDisk) {
  Os os(PlatformProfile::Linux22(), SmallMachine(128));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  // Threshold must be far above a zero-fill (3 µs) and far below a swap-in
  // (milliseconds).
  EXPECT_GT(mac.slow_threshold(), 3u * 1000);
  EXPECT_LT(mac.slow_threshold(), 1u * 1000 * 1000);
}

TEST(MacTest, RepoThresholdUsedWhenPresent) {
  Os os(PlatformProfile::Linux22(), SmallMachine(128));
  SimSys sys(&os, os.default_pid());
  ParamRepository repo;
  repo.Set(params::kMemZeroFillNs, 3000.0);
  Mac mac(&sys, MacOptions{}, &repo);
  EXPECT_EQ(mac.slow_threshold(), 90'000u);
}

TEST(MacTest, AllocatesUpToMaxOnIdleMachine) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  auto alloc = mac.GbAlloc(32 * kMb, 128 * kMb, 4096);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->bytes(), 128 * kMb);
}

TEST(MacTest, DiscoversAvailableMemoryMinusActiveCompetitor) {
  // The paper's §4.3.3 check: with x MB actively used by a competitor, MAC
  // returns roughly (available - x). The competitor must stay active — MAC
  // only respects memory that is part of someone's working set.
  const std::uint64_t usable = 256;
  const std::uint64_t competitor_mb = 96;
  Os os(PlatformProfile::Linux22(), SmallMachine(usable));
  std::uint64_t got_bytes = 0;
  bool mac_done = false;
  os.RunProcesses({
      [&](Pid pid) {
        const std::uint64_t pages = competitor_mb * kMb / 4096;
        const graysim::VmAreaId area = os.VmAlloc(pid, competitor_mb * kMb);
        // Touch continuously until MAC finishes, keeping the set hot.
        while (!mac_done) {
          for (std::uint64_t p = 0; p < pages && !mac_done; ++p) {
            os.VmTouch(pid, area, p, true);
          }
        }
        os.VmFree(pid, area);
      },
      [&](Pid pid) {
        SimSys sys(&os, pid);
        Mac mac(&sys);
        auto alloc = mac.GbAlloc(16 * kMb, usable * kMb, kMb);
        if (alloc.has_value()) {
          got_bytes = alloc->bytes();
        }
        mac_done = true;
      },
  });
  const double got_mb = static_cast<double>(got_bytes) / kMb;
  const double expect_mb = static_cast<double>(usable - competitor_mb);
  EXPECT_GT(got_mb, expect_mb * 0.55) << "MAC too conservative";
  EXPECT_LT(got_mb, expect_mb * 1.25) << "MAC overcommitted into the competitor";
}

TEST(MacTest, ReturnsNulloptWhenMinUnavailable) {
  Os os(PlatformProfile::Linux22(), SmallMachine(128));
  bool got = true;
  bool mac_done = false;
  os.RunProcesses({
      [&](Pid pid) {
        const std::uint64_t pages = 112 * kMb / 4096;
        const graysim::VmAreaId hog = os.VmAlloc(pid, 112 * kMb);
        while (!mac_done) {
          for (std::uint64_t p = 0; p < pages && !mac_done; ++p) {
            os.VmTouch(pid, hog, p, true);
          }
        }
        os.VmFree(pid, hog);
      },
      [&](Pid pid) {
        SimSys sys(&os, pid);
        Mac mac(&sys);
        got = mac.GbAlloc(64 * kMb, 96 * kMb, kMb).has_value();
        mac_done = true;
      },
  });
  EXPECT_FALSE(got);
}

TEST(MacTest, AllocationTouchableWithoutPaging) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  auto alloc = mac.GbAlloc(64 * kMb, 128 * kMb, 4096);
  ASSERT_TRUE(alloc.has_value());
  const std::uint64_t swap_ins_before = os.stats().swap_ins;
  for (std::uint64_t p = 0; p < alloc->PageCount(); ++p) {
    alloc->Touch(p, true);
  }
  EXPECT_EQ(os.stats().swap_ins, swap_ins_before)
      << "touching a MAC allocation must not page";
}

TEST(MacTest, MultipleRespected) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  const std::uint64_t record = 100;
  auto alloc = mac.GbAlloc(10 * kMb, 100 * kMb, record);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->bytes() % record, 0u);
}

TEST(MacTest, ReleaseReturnsMemory) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  auto alloc = mac.GbAlloc(64 * kMb, 192 * kMb, 4096);
  ASSERT_TRUE(alloc.has_value());
  const std::uint64_t used = os.VmResidentPages(os.default_pid());
  EXPECT_GT(used, 0u);
  alloc->Release();
  EXPECT_EQ(os.VmResidentPages(os.default_pid()), 0u);
  EXPECT_FALSE(alloc->valid());
}

TEST(MacTest, IdenticalMinMaxActsAsAllOrNothing) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  auto alloc = mac.GbAlloc(128 * kMb, 128 * kMb, 4096);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->bytes(), 128 * kMb);
}

TEST(MacTest, MoveTransfersOwnership) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  auto alloc = mac.GbAlloc(16 * kMb, 32 * kMb, 4096);
  ASSERT_TRUE(alloc.has_value());
  GbAllocation moved = std::move(*alloc);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(alloc->valid());
  moved.Touch(0, true);
}

TEST(MacTest, BlockingAllocWaitsForRelease) {
  // Two scheduled processes: a hog that frees memory after a while, and a
  // MAC client that must wait for admission.
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  bool got = false;
  std::uint64_t got_bytes = 0;
  os.RunProcesses({
      [&](Pid pid) {
        const graysim::VmAreaId hog = os.VmAlloc(pid, 224 * kMb);
        for (std::uint64_t p = 0; p < 224 * kMb / 4096; ++p) {
          os.VmTouch(pid, hog, p, true);
        }
        // Hold the memory, keeping it warm, then release.
        for (int i = 0; i < 20; ++i) {
          for (std::uint64_t p = 0; p < 224 * kMb / 4096; p += 8) {
            os.VmTouch(pid, hog, p, true);
          }
          os.Sleep(pid, graysim::Millis(100.0));
        }
        os.VmFree(pid, hog);
      },
      [&](Pid pid) {
        SimSys sys(&os, pid);
        Mac mac(&sys);
        auto alloc = mac.GbAllocBlocking(128 * kMb, 160 * kMb, 4096);
        got = alloc.has_value();
        if (alloc) {
          got_bytes = alloc->bytes();
        }
      },
  });
  EXPECT_TRUE(got);
  EXPECT_GE(got_bytes, 128 * kMb);
}

TEST(MacTest, MetricsAccumulate) {
  Os os(PlatformProfile::Linux22(), SmallMachine(256));
  SimSys sys(&os, os.default_pid());
  Mac mac(&sys);
  auto alloc = mac.GbAlloc(32 * kMb, 64 * kMb, 4096);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_GT(mac.metrics().pages_probed, 0u);
  EXPECT_GT(mac.metrics().probe_time, 0u);
}

}  // namespace
}  // namespace gray
