#include "src/gray/fccd/fccd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/gray/fccd/sled_oracle.h"
#include "src/gray/sim_sys.h"
#include "src/workloads/filegen.h"

namespace gray {
namespace {

using graysim::MachineConfig;
using graysim::Os;
using graysim::PlatformProfile;

constexpr std::uint64_t kMb = 1024 * 1024;

struct Fixture {
  explicit Fixture(MachineConfig cfg = MachineConfig{})
      : os(PlatformProfile::Linux22(), cfg), sys(&os, os.default_pid()) {}
  Os os;
  SimSys sys;
};

TEST(FccdTest, PlanCoversWholeFile) {
  Fixture f;
  ASSERT_TRUE(graywork::MakeFile(f.os, f.os.default_pid(), "/d0/file", 55 * kMb));
  Fccd fccd(&f.sys);
  const auto plan = fccd.PlanFile("/d0/file");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->TotalBytes(), 55 * kMb);
  // Extents must partition [0, size): sort by offset and check adjacency.
  std::vector<Extent> extents;
  for (const UnitPlan& u : plan->units) {
    extents.push_back(u.extent);
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.offset < b.offset; });
  std::uint64_t expect = 0;
  for (const Extent& e : extents) {
    EXPECT_EQ(e.offset, expect);
    expect += e.length;
  }
  EXPECT_EQ(expect, 55 * kMb);
}

TEST(FccdTest, MissingFileYieldsNullopt) {
  Fixture f;
  Fccd fccd(&f.sys);
  EXPECT_FALSE(fccd.PlanFile("/d0/absent").has_value());
}

TEST(FccdTest, CachedHalfIsOrderedFirst) {
  // Warm the first half of a file; the plan must visit those units first.
  Fixture f;
  const graysim::Pid pid = f.os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(f.os, pid, "/d0/file", 200 * kMb));
  f.os.FlushFileCache();
  const int fd = f.os.Open(pid, "/d0/file");
  ASSERT_GE(fd, 0);
  ASSERT_EQ(f.os.Pread(pid, fd, {}, 100 * kMb, 0), static_cast<std::int64_t>(100 * kMb));
  ASSERT_EQ(f.os.Close(pid, fd), 0);

  Fccd fccd(&f.sys);
  const auto plan = fccd.PlanFile("/d0/file");
  ASSERT_TRUE(plan.has_value());
  // The first half of the plan (by position in the ordering) should be the
  // cached units, i.e. offsets < 100 MB.
  const std::size_t half = plan->units.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_LT(plan->units[i].extent.offset, 100 * kMb)
        << "unit " << i << " predicted fast but is in the cold half";
  }
  for (std::size_t i = half; i < plan->units.size(); ++i) {
    EXPECT_GE(plan->units[i].extent.offset, 100 * kMb);
  }
}

TEST(FccdTest, PredictionMatchesGroundTruth) {
  // Warm a scattered set of access units and check per-unit agreement with
  // the simulator's presence bitmap.
  Fixture f;
  const graysim::Pid pid = f.os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(f.os, pid, "/d0/file", 400 * kMb));
  f.os.FlushFileCache();
  const int fd = f.os.Open(pid, "/d0/file");
  // Warm units 0, 2, 5, 9, 13 (20 MB each).
  for (const std::uint64_t u : {0, 2, 5, 9, 13}) {
    ASSERT_EQ(f.os.Pread(pid, fd, {}, 20 * kMb, u * 20 * kMb),
              static_cast<std::int64_t>(20 * kMb));
  }
  ASSERT_EQ(f.os.Close(pid, fd), 0);

  Fccd fccd(&f.sys);
  const auto plan = fccd.PlanFile("/d0/file");
  ASSERT_TRUE(plan.has_value());
  // The five warmed units must be the five fastest.
  std::vector<std::uint64_t> first_five;
  for (std::size_t i = 0; i < 5; ++i) {
    first_five.push_back(plan->units[i].extent.offset / (20 * kMb));
  }
  std::sort(first_five.begin(), first_five.end());
  EXPECT_EQ(first_five, (std::vector<std::uint64_t>{0, 2, 5, 9, 13}));
}

TEST(FccdTest, AlignmentRespected) {
  Fixture f;
  ASSERT_TRUE(graywork::MakeFile(f.os, f.os.default_pid(), "/d0/file", 50 * kMb));
  FccdOptions options;
  options.align = 100;  // fastsort records
  Fccd fccd(&f.sys, options);
  const auto plan = fccd.PlanFile("/d0/file");
  ASSERT_TRUE(plan.has_value());
  for (std::size_t i = 0; i < plan->units.size(); ++i) {
    EXPECT_EQ(plan->units[i].extent.offset % 100, 0u);
  }
  EXPECT_EQ(plan->TotalBytes(), 50 * kMb);
}

TEST(FccdTest, SubPageFileGetsFakeHighTimeWithoutProbing) {
  Fixture f;
  ASSERT_TRUE(graywork::MakeFile(f.os, f.os.default_pid(), "/d0/tiny", 100));
  f.os.FlushFileCache();
  Fccd fccd(&f.sys);
  const auto plan = fccd.PlanFile("/d0/tiny");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->units.size(), 1u);
  EXPECT_EQ(plan->units[0].probes, 0);
  EXPECT_EQ(plan->units[0].probe_time, Fccd::kFakeHighTime);
  // Heisenberg guard: the file must NOT have been faulted in.
  EXPECT_FALSE(f.os.PageResidentPath("/d0/tiny", 0));
}

TEST(FccdTest, EmptyFilePlansNoUnits) {
  Fixture f;
  const int fd = f.os.Creat(f.os.default_pid(), "/d0/empty");
  ASSERT_GE(fd, 0);
  ASSERT_EQ(f.os.Close(f.os.default_pid(), fd), 0);
  Fccd fccd(&f.sys);
  const auto plan = fccd.PlanFile("/d0/empty");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->units.empty());
}

TEST(FccdTest, OrderFilesPutsCachedFilesFirst) {
  Fixture f;
  const graysim::Pid pid = f.os.default_pid();
  const std::vector<std::string> paths =
      graywork::MakeFileSet(f.os, pid, "/d0/set", 10, 10 * kMb);
  f.os.FlushFileCache();
  // Warm files 3 and 7.
  for (const int i : {3, 7}) {
    const int fd = f.os.Open(pid, paths[static_cast<std::size_t>(i)]);
    ASSERT_EQ(f.os.Pread(pid, fd, {}, 10 * kMb, 0), static_cast<std::int64_t>(10 * kMb));
    ASSERT_EQ(f.os.Close(pid, fd), 0);
  }
  Fccd fccd(&f.sys);
  const std::vector<RankedFile> ranked = fccd.OrderFiles(paths);
  ASSERT_EQ(ranked.size(), paths.size());
  std::vector<std::string> first_two = {ranked[0].path, ranked[1].path};
  std::sort(first_two.begin(), first_two.end());
  EXPECT_EQ(first_two[0], "/d0/set/f3");
  EXPECT_EQ(first_two[1], "/d0/set/f7");
}

TEST(FccdTest, ProbeCountMatchesPredictionUnits) {
  Fixture f;
  ASSERT_TRUE(graywork::MakeFile(f.os, f.os.default_pid(), "/d0/file", 40 * kMb));
  Fccd fccd(&f.sys);
  const auto plan = fccd.PlanFile("/d0/file");
  ASSERT_TRUE(plan.has_value());
  // 40 MB / 5 MB prediction unit = 8 probes.
  EXPECT_EQ(fccd.probes_issued(), 8u);
  int total_probes = 0;
  for (const UnitPlan& u : plan->units) {
    total_probes += u.probes;
  }
  EXPECT_EQ(total_probes, 8);
}

TEST(FccdTest, RepoSuppliesAccessUnit) {
  Fixture f;
  ParamRepository repo;
  repo.Set(params::kFccdAccessUnitBytes, static_cast<double>(10 * kMb));
  Fccd fccd(&f.sys, FccdOptions{}, &repo);
  EXPECT_EQ(fccd.options().access_unit, 10 * kMb);
}

TEST(FccdTest, ExplicitOptionBeatsRepo) {
  Fixture f;
  ParamRepository repo;
  repo.Set(params::kFccdAccessUnitBytes, static_cast<double>(10 * kMb));
  FccdOptions options;
  options.access_unit = 40 * kMb;
  Fccd fccd(&f.sys, options, &repo);
  EXPECT_EQ(fccd.options().access_unit, 40 * kMb);
}

TEST(FccdTest, GrayBoxScanBeatsLinearScanOnWarmCache) {
  // End-to-end mini version of Fig 2's key claim: with a file larger than
  // the cache, repeated gray-box scans beat repeated linear scans.
  MachineConfig cfg;
  cfg.phys_mem_bytes = 256 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;  // 224 MB cache
  Fixture f(cfg);
  const graysim::Pid pid = f.os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(f.os, pid, "/d0/big", 320 * kMb));
  f.os.FlushFileCache();

  auto linear_scan = [&] {
    const int fd = f.os.Open(pid, "/d0/big");
    const graysim::Nanos t0 = f.os.Now();
    (void)f.os.Pread(pid, fd, {}, 320 * kMb, 0);
    (void)f.os.Close(pid, fd);
    return f.os.Now() - t0;
  };
  auto gray_scan = [&] {
    const graysim::Nanos t0 = f.os.Now();
    Fccd fccd(&f.sys);
    const auto plan = fccd.PlanFile("/d0/big");
    const int fd = f.os.Open(pid, "/d0/big");
    for (const UnitPlan& u : plan->units) {
      (void)f.os.Pread(pid, fd, {}, u.extent.length, u.extent.offset);
    }
    (void)f.os.Close(pid, fd);
    return f.os.Now() - t0;
  };

  // Warm up each mode, then measure steady state.
  (void)linear_scan();
  const graysim::Nanos linear = linear_scan();
  f.os.FlushFileCache();
  (void)gray_scan();
  const graysim::Nanos gray_time = gray_scan();
  EXPECT_LT(gray_time * 2, linear) << "gray scan should be >2x faster on a warm cache";
}

TEST(FccdTest, TracksSledOracleQuality) {
  // The paper's claim vs Van Meter & Gao: "a great deal of the utility of
  // their proposed system can be obtained without any modification to the
  // operating system." Compare the gray-box plan against the perfect-
  // information SLED oracle on the same cache state.
  Fixture f;
  const graysim::Pid pid = f.os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(f.os, pid, "/d0/file", 400 * kMb));
  f.os.FlushFileCache();
  // Warm ten scattered 20 MB units.
  const int fd = f.os.Open(pid, "/d0/file");
  for (const std::uint64_t u : {0, 3, 4, 7, 9, 11, 14, 15, 17, 19}) {
    ASSERT_EQ(f.os.Pread(pid, fd, {}, 20 * kMb, u * 20 * kMb),
              static_cast<std::int64_t>(20 * kMb));
  }
  ASSERT_EQ(f.os.Close(pid, fd), 0);

  gray::SledOracle oracle(&f.os);
  const auto oracle_plan = oracle.PlanFile("/d0/file");
  Fccd fccd(&f.sys);
  const auto gray_plan = fccd.PlanFile("/d0/file");
  ASSERT_TRUE(oracle_plan.has_value());
  ASSERT_TRUE(gray_plan.has_value());

  // The set of units each planner puts in its first half must agree (the
  // order within the half may differ; both are "cached-first").
  auto first_half_offsets = [](const FilePlan& plan) {
    std::vector<std::uint64_t> offsets;
    for (std::size_t i = 0; i < plan.units.size() / 2; ++i) {
      offsets.push_back(plan.units[i].extent.offset);
    }
    std::sort(offsets.begin(), offsets.end());
    return offsets;
  };
  EXPECT_EQ(first_half_offsets(*gray_plan), first_half_offsets(*oracle_plan))
      << "gray-box plan should match the kernel-interface oracle's split";
  // The oracle costs no probes; the FCCD paid 80 (one per 5 MB).
  EXPECT_EQ(fccd.probes_issued(), 80u);
}

}  // namespace
}  // namespace gray
