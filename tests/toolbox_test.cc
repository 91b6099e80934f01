#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/gray/sim_sys.h"
#include "src/gray/toolbox/microbench.h"
#include "src/gray/toolbox/param_repository.h"
#include "src/gray/toolbox/stopwatch.h"
#include "src/gray/toolbox/techniques.h"

namespace gray {
namespace {

using graysim::Os;
using graysim::PlatformProfile;

TEST(ParamRepositoryTest, SetGetRoundTrip) {
  ParamRepository repo;
  EXPECT_FALSE(repo.Get("x").has_value());
  repo.Set("x", 3.5);
  EXPECT_DOUBLE_EQ(repo.Get("x").value(), 3.5);
  EXPECT_DOUBLE_EQ(repo.GetOr("missing", 7.0), 7.0);
}

TEST(ParamRepositoryTest, SerializeDeserializeRoundTrip) {
  ParamRepository repo;
  repo.Set(params::kDiskSeqBandwidthMbs, 19.75);
  repo.Set(params::kMemTouchNs, 150.0);
  ParamRepository copy;
  ASSERT_TRUE(copy.Deserialize(repo.Serialize()));
  EXPECT_DOUBLE_EQ(copy.Get(params::kDiskSeqBandwidthMbs).value(), 19.75);
  EXPECT_DOUBLE_EQ(copy.Get(params::kMemTouchNs).value(), 150.0);
}

TEST(ParamRepositoryTest, DeserializeSkipsCommentsRejectsGarbage) {
  ParamRepository repo;
  EXPECT_TRUE(repo.Deserialize("# comment\nkey 1.5\n\n"));
  EXPECT_DOUBLE_EQ(repo.Get("key").value(), 1.5);
  ParamRepository bad;
  EXPECT_FALSE(bad.Deserialize("key notanumber\n"));
}

TEST(ParamRepositoryTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gb_params_test.txt";
  ParamRepository repo;
  repo.Set("a.b", 42.0);
  ASSERT_TRUE(repo.SaveToFile(path));
  ParamRepository loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  EXPECT_DOUBLE_EQ(loaded.Get("a.b").value(), 42.0);
  std::remove(path.c_str());
}

TEST(ParamRepositoryTest, SaveLeavesNoTempFileBehind) {
  const std::string path = ::testing::TempDir() + "/gb_params_atomic.txt";
  ParamRepository repo;
  repo.Set("k", 1.0);
  ASSERT_TRUE(repo.SaveToFile(path));
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file must be renamed away";
  std::remove(path.c_str());
}

// The corruption-recovery contract: a truncated or mangled repository file
// (crash mid-save before SaveToFile was atomic, disk error, stray editor)
// must never half-load. LoadFromFile reports failure and leaves the
// in-memory repository exactly as it was, so the ICLs fall back to their
// built-in defaults instead of mixing measured and garbage thresholds.
TEST(ParamRepositoryTest, LoadRejectsTruncatedFileAndKeepsDefaults) {
  const std::string path = ::testing::TempDir() + "/gb_params_trunc.txt";
  ParamRepository repo;
  repo.Set("disk.seq_bandwidth_mbs", 19.75);
  repo.Set("mem.touch_ns", 150.0);
  ASSERT_TRUE(repo.SaveToFile(path));

  // Simulate a crash mid-write: keep only the first half of the bytes
  // (which also cuts off the end trailer).
  std::string full;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << full.substr(0, full.size() / 2);
  }

  ParamRepository loaded;
  loaded.Set("preexisting", 7.0);
  EXPECT_FALSE(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.size(), 1u) << "failed load must not leak partial entries";
  EXPECT_DOUBLE_EQ(loaded.GetOr("preexisting", 0.0), 7.0);
  std::remove(path.c_str());
}

TEST(ParamRepositoryTest, LoadRejectsMissingTrailerAndGarbage) {
  const std::string path = ::testing::TempDir() + "/gb_params_bad.txt";
  // Legacy-style file without the trailer: complete-looking but unverifiable.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "a.b 1.5\n";
  }
  ParamRepository repo;
  EXPECT_FALSE(repo.LoadFromFile(path));
  EXPECT_EQ(repo.size(), 0u);
  // Trailer present but the count disagrees (a spliced file).
  {
    std::ofstream out(path, std::ios::trunc);
    out << "a.b 1.5\n# gbparams-end n=2\n";
  }
  EXPECT_FALSE(repo.LoadFromFile(path));
  // A malformed value line fails even with a correct trailer.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "a.b notanumber\n# gbparams-end n=1\n";
  }
  EXPECT_FALSE(repo.LoadFromFile(path));
  EXPECT_EQ(repo.size(), 0u);
  std::remove(path.c_str());
}

TEST(ParamRepositoryTest, DeserializeIsAllOrNothing) {
  ParamRepository repo;
  repo.Set("keep", 1.0);
  EXPECT_FALSE(repo.Deserialize("good 2.0\nbad line here x\n"));
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_FALSE(repo.Has("good")) << "entries before the error must not leak in";
  // Trailer/count mismatch is rejected too (Serialize always writes one).
  EXPECT_FALSE(repo.Deserialize("good 2.0\n# gbparams-end n=5\n"));
  EXPECT_FALSE(repo.Has("good"));
}

TEST(StopwatchTest, MeasuresVirtualTime) {
  graysim::MachineConfig cfg;
  cfg.timing_jitter = 0.0;  // exact expectations below
  Os os(PlatformProfile::Linux22(), cfg);
  SimSys sys(&os, os.default_pid());
  Stopwatch sw(&sys);
  os.Compute(os.default_pid(), graysim::Millis(3.0));
  EXPECT_EQ(sw.Elapsed(), graysim::Millis(3.0));
  sw.Restart();
  EXPECT_EQ(sw.Elapsed(), 0u);
}

TEST(TechniqueUsageTest, RecordsAndDescribes) {
  TechniqueUsage usage;
  EXPECT_FALSE(usage.used(Technique::kProbes));
  usage.Record(Technique::kProbes, 5);
  usage.Describe(Technique::kProbes, "1-byte reads");
  EXPECT_TRUE(usage.used(Technique::kProbes));
  EXPECT_EQ(usage.count(Technique::kProbes), 5u);
  EXPECT_EQ(usage.note(Technique::kProbes), "1-byte reads");
}

TEST(MicrobenchTest, MeasuresSaneParameters) {
  Os os(PlatformProfile::Linux22());
  SimSys sys(&os, os.default_pid());
  MicrobenchOptions options;
  options.mem_hint_bytes = os.config().phys_mem_bytes;
  Microbench bench(&sys, options);
  ParamRepository repo;
  ASSERT_TRUE(bench.RunAll(&repo));

  // Disk sequential bandwidth should be near the modeled media rate.
  const double bw = repo.Get(params::kDiskSeqBandwidthMbs).value();
  EXPECT_GT(bw, 10.0);
  EXPECT_LT(bw, 25.0);
  // Random page access is milliseconds.
  const double rnd = repo.Get(params::kDiskRandomAccessNs).value();
  EXPECT_GT(rnd, 1e6);
  EXPECT_LT(rnd, 20e6);
  // Memory copy far faster than disk.
  const double copy = repo.Get(params::kMemCopyMbs).value();
  EXPECT_GT(copy, bw * 5);
  // Touch is sub-microsecond; zero-fill is microseconds but far below disk.
  EXPECT_LT(repo.Get(params::kMemTouchNs).value(), 1000.0);
  EXPECT_GT(repo.Get(params::kMemZeroFillNs).value(),
            repo.Get(params::kMemTouchNs).value());
  EXPECT_LT(repo.Get(params::kMemZeroFillNs).value(), 100'000.0);
  // Probe hit is microseconds.
  EXPECT_LT(repo.Get(params::kCacheProbeHitNs).value(), 20'000.0);
  // Calibrated access unit lands in a plausible band (the paper found 20 MB).
  const double au = repo.Get(params::kFccdAccessUnitBytes).value();
  EXPECT_GE(au, 1.0 * 1024 * 1024);
  EXPECT_LE(au, 40.0 * 1024 * 1024);

  bench.Cleanup();
}

}  // namespace
}  // namespace gray
