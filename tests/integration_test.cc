// Cross-module integration tests: the paper's end-to-end stories, asserted.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/gray/compose/compose.h"
#include "src/gray/fccd/fccd.h"
#include "src/gray/fldc/fldc.h"
#include "src/gray/gbp/gbp.h"
#include "src/gray/mac/mac.h"
#include "src/gray/sim_sys.h"
#include "src/gray/toolbox/microbench.h"
#include "src/sim/rng.h"
#include "src/workloads/fastsort.h"
#include "src/workloads/filegen.h"
#include "src/workloads/grep.h"

namespace {

using graysim::MachineConfig;
using graysim::Nanos;
using graysim::Os;
using graysim::Pid;
using graysim::PlatformProfile;

constexpr std::uint64_t kMb = 1024 * 1024;

// The full paper pipeline: microbenchmarks populate the shared repository,
// the FCCD configures itself from it, and the configured ICL still delivers
// its speedup.
TEST(IntegrationTest, MicrobenchRepositoryFeedsFccd) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  gray::SimSys sys(&os, pid);

  gray::MicrobenchOptions mb_options;
  mb_options.mem_hint_bytes = os.config().phys_mem_bytes;
  gray::Microbench bench(&sys, mb_options);
  gray::ParamRepository repo;
  ASSERT_TRUE(bench.RunAll(&repo));
  bench.Cleanup();

  // Round-trip the repository through its persistent form, as separate ICL
  // processes would.
  gray::ParamRepository loaded;
  ASSERT_TRUE(loaded.Deserialize(repo.Serialize()));

  gray::Fccd fccd(&sys, gray::FccdOptions{}, &loaded);
  EXPECT_EQ(fccd.options().access_unit,
            static_cast<std::uint64_t>(loaded.Get(gray::params::kFccdAccessUnitBytes).value()));

  // And the configured detector still detects.
  ASSERT_TRUE(graywork::MakeFile(os, pid, "/d0/data", 100 * kMb));
  os.FlushFileCache();
  const int fd = os.Open(pid, "/d0/data");
  ASSERT_EQ(os.Pread(pid, fd, {}, 50 * kMb, 0), static_cast<std::int64_t>(50 * kMb));
  ASSERT_EQ(os.Close(pid, fd), 0);
  const auto plan = fccd.PlanFile("/d0/data");
  ASSERT_TRUE(plan.has_value());
  EXPECT_LT(plan->units.front().extent.offset, 50 * kMb)
      << "first planned unit must be from the warm half";
}

// FCCD + FLDC composed through gbp: in-cache files first, then layout order,
// and the composed read order beats both naive orders.
TEST(IntegrationTest, ComposedOrderBeatsNaiveOrders) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  const std::vector<std::string> paths =
      graywork::MakeFileSet(os, pid, "/d0/dir", 60, 64 * 1024);
  os.FlushFileCache();
  // Warm five scattered files. (Small files so seek order, not transfer
  // time, dominates — the regime FLDC targets.)
  for (const int i : {3, 11, 27, 42, 58}) {
    const int fd = os.Open(pid, paths[static_cast<std::size_t>(i)]);
    ASSERT_EQ(os.Pread(pid, fd, {}, 64 * 1024, 0), 64 * 1024);
    ASSERT_EQ(os.Close(pid, fd), 0);
  }
  gray::SimSys sys(&os, pid);
  gray::GbpOptions options;
  options.mode = gray::GbpMode::kCompose;
  const gray::GbpFileOrder composed = gray::GbpOrderFiles(&sys, options, paths);
  ASSERT_EQ(composed.order.size(), paths.size());

  auto timed_read = [&](const std::vector<std::string>& order) {
    const Nanos t0 = os.Now();
    for (const std::string& path : order) {
      const int fd = os.Open(pid, path);
      (void)os.Pread(pid, fd, {}, 64 * 1024, 0);
      (void)os.Close(pid, fd);
    }
    return os.Now() - t0;
  };
  // NOTE: the composed read changes the cache, so compare one-shot runs on
  // identical cache states by re-warming between measurements. The baseline
  // is a shuffled order — the arbitrary order a user's command line gives.
  const Nanos composed_time = timed_read(composed.order);
  os.FlushFileCache();
  for (const int i : {3, 11, 27, 42, 58}) {
    const int fd = os.Open(pid, paths[static_cast<std::size_t>(i)]);
    (void)os.Pread(pid, fd, {}, 64 * 1024, 0);
    (void)os.Close(pid, fd);
  }
  std::vector<std::string> shuffled = paths;
  graysim::Rng rng(4242);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  const Nanos shuffled_time = timed_read(shuffled);
  EXPECT_LT(composed_time * 3 / 2, shuffled_time)
      << "composed order should clearly beat an arbitrary order";
}

// MAC admission control serializes two memory-hungry gb-fastsorts instead of
// letting them thrash (the paper's headline MAC claim, two-process version).
TEST(IntegrationTest, TwoGbFastsortsShareMemoryWithoutThrashing) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 512 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;  // 480 MB usable
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid setup = os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(os, setup, "/d0/in0", 300 * kMb));
  ASSERT_TRUE(graywork::MakeFile(os, setup, "/d1/in1", 300 * kMb));
  os.FlushFileCache();
  const std::uint64_t swap_before = os.stats().swap_ins;

  std::vector<graywork::FastsortReport> reports(2);
  os.RunProcesses({
      [&](Pid pid) {
        graywork::Fastsort sort(&os, pid);
        graywork::FastsortOptions options;
        options.input = "/d0/in0";
        options.run_dir = "/d0/runs";
        options.use_mac = true;
        options.mac_min = 64 * kMb;
        options.mac_max = 200 * kMb;
        reports[0] = sort.Run(options);
      },
      [&](Pid pid) {
        graywork::Fastsort sort(&os, pid);
        graywork::FastsortOptions options;
        options.input = "/d1/in1";
        options.run_dir = "/d1/runs";
        options.use_mac = true;
        options.mac_min = 64 * kMb;
        options.mac_max = 200 * kMb;
        reports[1] = sort.Run(options);
      },
  });
  EXPECT_EQ(reports[0].bytes_sorted, 300 * kMb / 100 * 100);
  EXPECT_EQ(reports[1].bytes_sorted, 300 * kMb / 100 * 100);
  // Bounded paging: a catastrophic thrash would swap in far more than a
  // few MB; MAC keeps the pair within memory.
  EXPECT_LT(os.stats().swap_ins - swap_before, 2000u);
}

// The same gray-box code runs unchanged across all three platform profiles
// (the paper's portability claim): the FCCD search win shows up everywhere.
TEST(IntegrationTest, SearchWinsOnEveryPlatform) {
  for (const PlatformProfile& profile :
       {PlatformProfile::Linux22(), PlatformProfile::NetBsd15(),
        PlatformProfile::Solaris7()}) {
    Os os(profile);
    const Pid pid = os.default_pid();
    const std::vector<std::string> paths =
        graywork::MakeFileSet(os, pid, "/d0/set", 20, 2 * kMb);
    os.FlushFileCache();
    const std::string& match = paths.back();
    {
      const int fd = os.Open(pid, match);
      ASSERT_EQ(os.Pread(pid, fd, {}, 2 * kMb, 0), static_cast<std::int64_t>(2 * kMb));
      ASSERT_EQ(os.Close(pid, fd), 0);
    }
    graywork::Grep grep(&os, pid);
    const graywork::GrepResult gray_search = grep.RunSearch(paths, match, true);
    const graywork::GrepResult plain_search = grep.RunSearch(paths, match, false);
    EXPECT_LT(gray_search.elapsed * 2, plain_search.elapsed) << profile.name;
  }
}

// Directory refresh composes with FCCD afterwards: refreshed files are cold
// (they were rewritten), and the FCCD correctly reports them cold.
TEST(IntegrationTest, RefreshThenProbeSeesColdFiles) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  const std::vector<std::string> paths =
      graywork::MakeFileSet(os, pid, "/d0/dir", 10, 6 * kMb);
  gray::SimSys sys(&os, pid);
  gray::Fldc fldc(&sys);
  ASSERT_EQ(fldc.RefreshDirectory("/d0/dir"), 0);
  os.FlushFileCache();

  gray::Fccd fccd(&sys);
  const std::vector<gray::RankedFile> ranked = fccd.OrderFiles(paths);
  for (const gray::RankedFile& rf : ranked) {
    EXPECT_GT(rf.avg_probe_time, 1'000'000u) << rf.path << " should be cold (ms probes)";
  }
}

}  // namespace
