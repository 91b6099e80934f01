// Equivalence of the batched observation path with the scalar loop.
//
// The batch calls exist to cross the system boundary once per batch, not to
// change what is observed: for the same request sequence they must return
// the same results and leave the machine in the same end state (file-cache
// residency, VM frames) as a scalar loop, on every platform profile.

#include "src/gray/probe/probe_engine.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/gray/interpose/interposer.h"
#include "src/gray/sim_sys.h"
#include "src/workloads/filegen.h"

namespace gray {
namespace {

using graysim::Os;
using graysim::Pid;
using graysim::PlatformProfile;

constexpr std::uint64_t kMb = 1024 * 1024;

PlatformProfile ProfileByName(const std::string& name) {
  if (name == "NetBsd15") {
    return PlatformProfile::NetBsd15();
  }
  if (name == "Solaris7") {
    return PlatformProfile::Solaris7();
  }
  return PlatformProfile::Linux22();
}

// Two identically-configured machines: `scalar` executes loops of scalar
// calls, `batched` the equivalent batch calls. Identical op sequences must
// produce identical end states (the simulation is deterministic).
struct TwinFixture {
  explicit TwinFixture(const std::string& profile)
      : scalar(ProfileByName(profile)),
        batched(ProfileByName(profile)),
        sys_scalar(&scalar, scalar.default_pid()),
        sys_batched(&batched, batched.default_pid()) {}

  Os scalar;
  Os batched;
  SimSys sys_scalar;
  SimSys sys_batched;
};

// SimSys with the SysApi default batch loops in place of the Os's native
// batch calls: the path a backend without a cheap boundary crossing (such
// as PosixSys) takes.
class DefaultLoopSys : public SimSys {
 public:
  using SimSys::SimSys;

  void PreadBatch(std::span<const PreadOp> ops, std::span<BatchResult> out) override {
    SysApi::PreadBatch(ops, out);
  }
  void MemTouchBatch(std::span<const MemTouchOp> ops, std::span<BatchResult> out) override {
    SysApi::MemTouchBatch(ops, out);
  }
  void StatBatch(std::span<const std::string> paths, std::span<FileInfo> infos,
                 std::span<BatchResult> out) override {
    SysApi::StatBatch(paths, infos, out);
  }
};

class BatchEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchEquivalenceTest, PreadBatchMatchesScalarLoop) {
  TwinFixture f(GetParam());
  for (Os* os : {&f.scalar, &f.batched}) {
    ASSERT_TRUE(graywork::MakeFile(*os, os->default_pid(), "/d0/file", 8 * kMb));
    os->FlushFileCache();
  }
  const int fd_s = f.sys_scalar.Open("/d0/file");
  const int fd_b = f.sys_batched.Open("/d0/file");
  ASSERT_GE(fd_s, 0);
  ASSERT_EQ(fd_s, fd_b);

  // Probe every second page (misses), then the first 16 again (hits).
  const std::uint32_t ps = f.sys_scalar.PageSize();
  std::vector<PreadOp> ops;
  for (std::uint64_t p = 0; p < 8 * kMb / ps; p += 2) {
    ops.push_back(PreadOp{fd_b, 1, p * ps});
  }
  for (std::uint64_t p = 0; p < 32; p += 2) {
    ops.push_back(PreadOp{fd_b, 1, p * ps});
  }

  std::vector<std::int64_t> scalar_rcs;
  for (const PreadOp& op : ops) {
    scalar_rcs.push_back(f.sys_scalar.Pread(fd_s, {}, op.len, op.offset));
  }
  std::vector<BatchResult> out(ops.size());
  f.sys_batched.PreadBatch(ops, out);

  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(out[i].rc, scalar_rcs[i]) << "op " << i;
  }
  // Identical cache end state: same resident count, same per-page residency.
  EXPECT_EQ(f.scalar.FileCachePages(), f.batched.FileCachePages());
  for (std::uint64_t p = 0; p < 8 * kMb / ps; ++p) {
    ASSERT_EQ(f.scalar.PageResidentPath("/d0/file", p),
              f.batched.PageResidentPath("/d0/file", p))
        << "page " << p;
  }
  // The batch's reason to exist: the whole sequence entered the kernel once.
  EXPECT_EQ(f.batched.stats().batched_ops, ops.size());
  EXPECT_LT(f.batched.stats().syscalls, f.scalar.stats().syscalls);
}

TEST_P(BatchEquivalenceTest, MemTouchBatchMatchesScalarLoop) {
  TwinFixture f(GetParam());
  const std::uint64_t pages = 128;
  const MemHandle h_s = f.sys_scalar.MemAlloc(pages * f.sys_scalar.PageSize());
  const MemHandle h_b = f.sys_batched.MemAlloc(pages * f.sys_batched.PageSize());
  ASSERT_NE(h_s, kInvalidMem);
  ASSERT_EQ(h_s, h_b);

  std::vector<MemTouchOp> ops;
  for (std::uint64_t i = 0; i < pages; ++i) {
    ops.push_back(MemTouchOp{h_b, i, /*write=*/true});
  }
  for (const MemTouchOp& op : ops) {
    f.sys_scalar.MemTouch(h_s, op.page_index, op.write);
  }
  std::vector<BatchResult> out(ops.size());
  f.sys_batched.MemTouchBatch(ops, out);

  for (const BatchResult& r : out) {
    EXPECT_EQ(r.rc, 0);
  }
  EXPECT_EQ(f.scalar.VmResidentPages(f.scalar.default_pid()),
            f.batched.VmResidentPages(f.batched.default_pid()));
}

TEST_P(BatchEquivalenceTest, StatBatchMatchesScalarLoop) {
  TwinFixture f(GetParam());
  std::vector<std::string> paths;
  for (Os* os : {&f.scalar, &f.batched}) {
    paths = graywork::MakeFileSet(*os, os->default_pid(), "/d0/set", 6, 1 * kMb);
  }
  paths.push_back("/d0/absent");  // failures must match too

  std::vector<FileInfo> scalar_infos(paths.size());
  std::vector<std::int64_t> scalar_rcs;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    scalar_rcs.push_back(f.sys_scalar.Stat(paths[i], &scalar_infos[i]));
  }
  std::vector<FileInfo> infos(paths.size());
  std::vector<BatchResult> out(paths.size());
  f.sys_batched.StatBatch(paths, infos, out);

  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(out[i].rc, scalar_rcs[i]) << paths[i];
    if (out[i].rc == 0) {
      EXPECT_EQ(infos[i].inum, scalar_infos[i].inum) << paths[i];
      EXPECT_EQ(infos[i].size, scalar_infos[i].size) << paths[i];
      EXPECT_EQ(infos[i].mtime, scalar_infos[i].mtime) << paths[i];
      EXPECT_EQ(infos[i].is_dir, scalar_infos[i].is_dir) << paths[i];
    }
  }
}

// The engine on the SysApi default batch loop and on the Os's native batch
// calls: the same results, the same end state, the same accounting.
TEST_P(BatchEquivalenceTest, EngineStrategiesAgreeAndAccount) {
  TwinFixture f(GetParam());
  for (Os* os : {&f.scalar, &f.batched}) {
    ASSERT_TRUE(graywork::MakeFile(*os, os->default_pid(), "/d0/file", 4 * kMb));
    os->FlushFileCache();
  }
  DefaultLoopSys sys_loop(&f.scalar, f.scalar.default_pid());
  const int fd_s = sys_loop.Open("/d0/file");
  const int fd_b = f.sys_batched.Open("/d0/file");
  ASSERT_EQ(fd_s, fd_b);

  ProbeEngine loop_engine(&sys_loop);
  ProbeEngine batched_engine(&f.sys_batched);

  // More requests than one batch holds, so the run exercises sub-batch
  // chunking.
  const std::uint32_t ps = sys_loop.PageSize();
  std::vector<TimedPread> reqs;
  for (std::uint64_t p = 0; p < 300; ++p) {
    reqs.push_back(TimedPread{fd_b, 1, p * 3 * ps});
  }
  ASSERT_GT(reqs.size(), ProbeEngine::kMaxBatch);
  const auto loop_samples = loop_engine.RunPreads(reqs);
  const auto batched_samples = batched_engine.RunPreads(reqs);

  ASSERT_EQ(loop_samples.size(), batched_samples.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(loop_samples[i].rc, batched_samples[i].rc) << "req " << i;
  }
  EXPECT_EQ(f.scalar.FileCachePages(), f.batched.FileCachePages());

  EXPECT_EQ(loop_engine.report().probes, reqs.size());
  EXPECT_EQ(batched_engine.report().probes, reqs.size());
  EXPECT_EQ(batched_engine.report().batches,
            (reqs.size() + ProbeEngine::kMaxBatch - 1) / ProbeEngine::kMaxBatch);
  EXPECT_EQ(loop_engine.report().pread_probes, reqs.size());
  EXPECT_EQ(loop_engine.report().bytes_touched, reqs.size());  // 1-byte probes
  EXPECT_EQ(loop_engine.latency_stats().count(), reqs.size());
  EXPECT_GT(loop_engine.report().probe_time, 0u);
}

INSTANTIATE_TEST_SUITE_P(Platforms, BatchEquivalenceTest,
                         ::testing::Values("Linux22", "NetBsd15", "Solaris7"));

// A batch must not be a blind spot for the interposition agent: every
// constituent read feeds the passive cache model (paper §4.1.1).
TEST(InterposerBatchTest, BatchedReadsFeedTheCacheModel) {
  Os os(PlatformProfile::Linux22());
  SimSys sys(&os, os.default_pid());
  ASSERT_TRUE(graywork::MakeFile(os, os.default_pid(), "/d0/file", 4 * kMb));
  os.FlushFileCache();

  CacheModel model(64 * kMb, sys.PageSize());
  Interposer interposed(&sys, &model);
  const int fd = interposed.Open("/d0/file");
  ASSERT_GE(fd, 0);

  const std::uint32_t ps = sys.PageSize();
  std::vector<PreadOp> ops;
  for (std::uint64_t p = 0; p < 10; ++p) {
    ops.push_back(PreadOp{fd, 1, p * ps});
  }
  std::vector<BatchResult> out(ops.size());
  interposed.PreadBatch(ops, out);

  EXPECT_EQ(interposed.observed_calls(), ops.size());
  for (std::uint64_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(model.PageResident("/d0/file", p)) << "page " << p;
  }
}

// The engine is strategy-agnostic even on top of a decorator: batches routed
// through the Interposer keep the model in sync with the real cache.
TEST(InterposerBatchTest, EngineRunsThroughInterposer) {
  Os os(PlatformProfile::Linux22());
  SimSys sys(&os, os.default_pid());
  ASSERT_TRUE(graywork::MakeFile(os, os.default_pid(), "/d0/file", 4 * kMb));
  os.FlushFileCache();

  CacheModel model(64 * kMb, sys.PageSize());
  Interposer interposed(&sys, &model);
  ProbeEngine engine(&interposed);
  const int fd = interposed.Open("/d0/file");
  ASSERT_GE(fd, 0);

  std::vector<TimedPread> reqs;
  for (std::uint64_t p = 0; p < 16; ++p) {
    reqs.push_back(TimedPread{fd, 1, p * sys.PageSize()});
  }
  const auto samples = engine.RunPreads(reqs);
  ASSERT_EQ(samples.size(), reqs.size());
  EXPECT_EQ(interposed.observed_calls(), reqs.size());
  EXPECT_EQ(engine.report().probes, reqs.size());
}

// --- failure-aware probing (chaos hardening) ---
//
// These pin the contract every hardened ICL leans on: failed probes never
// reach the latency statistics, transient failures are retried with backoff,
// and a mostly-failed run raises the per-run degraded signal.

class FailureAwareProbeTest : public ::testing::Test {
 protected:
  FailureAwareProbeTest()
      : os_(graysim::PlatformProfile::Linux22()), sys_(&os_, os_.default_pid()) {
    EXPECT_TRUE(graywork::MakeFile(os_, os_.default_pid(), "/d0/file", 4 * kMb));
    fd_ = sys_.Open("/d0/file");
    EXPECT_GE(fd_, 0);
  }

  void ArmAllReadsFail() {
    graysim::FaultPlan plan;
    plan.enabled = true;
    plan.read_eio_prob = 1.0;
    plan.eio_latency = graysim::Millis(25.0);
    os_.ArmChaos(plan);
  }

  std::vector<TimedPread> PageProbes(std::size_t n) {
    std::vector<TimedPread> reqs;
    for (std::size_t p = 0; p < n; ++p) {
      reqs.push_back(TimedPread{fd_, 1, p * sys_.PageSize()});
    }
    return reqs;
  }

  Os os_;
  SimSys sys_;
  int fd_ = -1;
};

TEST_F(FailureAwareProbeTest, FailedProbesAreExcludedFromLatencyStats) {
  ArmAllReadsFail();
  ProbeEngineOptions options;
  options.max_retries = 0;  // all failures are final
  ProbeEngine engine(&sys_, options);
  const auto samples = engine.RunPreads(PageProbes(16));
  for (const ProbeSample& s : samples) {
    EXPECT_LT(s.rc, 0);
  }
  // The error path is SLOW by design (25 ms each) — folding it into the
  // stats would bury every real hit/miss signal. Nothing may land there.
  EXPECT_EQ(engine.latency_stats().count(), 0u);
  EXPECT_EQ(engine.report().failed_probes, 16u);
  EXPECT_EQ(engine.report().probes, 16u);
  EXPECT_GT(engine.report().probe_time, 0u) << "failures still cost probe time";
}

TEST_F(FailureAwareProbeTest, TransientFailuresAreRetriedWithBackoff) {
  graysim::FaultPlan plan;
  plan.enabled = true;
  plan.read_eio_prob = 0.5;  // every probe recovers within a few attempts
  plan.eio_latency = graysim::Millis(1.0);
  os_.ArmChaos(plan);
  ProbeEngine engine(&sys_);  // default: max_retries = 2
  const auto samples = engine.RunPreads(PageProbes(64));
  EXPECT_GT(engine.report().retried_probes, 0u);
  std::size_t failed = 0;
  for (const ProbeSample& s : samples) {
    failed += s.rc < 0 ? 1 : 0;
  }
  // p(fail) after retries is 0.5^3 per probe; the run overwhelmingly
  // recovers, and the stats see exactly the successes.
  EXPECT_LT(failed, 16u);
  EXPECT_EQ(engine.report().failed_probes, failed);
  EXPECT_EQ(engine.latency_stats().count(), samples.size() - failed);
}

TEST_F(FailureAwareProbeTest, RetryDisabledReproducesLegacySingleShot) {
  ArmAllReadsFail();
  ProbeEngineOptions options;
  options.max_retries = 0;
  ProbeEngine engine(&sys_, options);
  (void)engine.RunPreads(PageProbes(8));
  EXPECT_EQ(engine.report().retried_probes, 0u);
  EXPECT_EQ(engine.report().probes, 8u);
}

TEST_F(FailureAwareProbeTest, DegradedSignalRaisesAndClears) {
  ArmAllReadsFail();
  ProbeEngineOptions options;
  options.max_retries = 0;
  ProbeEngine engine(&sys_, options);
  (void)engine.RunPreads(PageProbes(8));
  EXPECT_TRUE(engine.last_run_degraded());
  os_.DisarmChaos();
  (void)engine.RunPreads(PageProbes(8));
  EXPECT_FALSE(engine.last_run_degraded());
}

TEST_F(FailureAwareProbeTest, SimSysClassifiesOnlyIoAsTransient) {
  EXPECT_TRUE(sys_.IsTransientError(
      -static_cast<std::int64_t>(graysim::FsErr::kIo)));
  EXPECT_FALSE(sys_.IsTransientError(
      -static_cast<std::int64_t>(graysim::FsErr::kNotFound)));
  EXPECT_FALSE(sys_.IsTransientError(0));
  // A definitive error must never be retried: stats on absent paths fail
  // once, with zero retry attempts burned.
  ProbeEngine engine(&sys_);
  std::vector<TimedStat> reqs(3);
  for (auto& r : reqs) {
    r.path = "/d0/definitely-absent";
  }
  std::vector<FileInfo> infos;
  (void)engine.RunStats(reqs, &infos);
  EXPECT_EQ(engine.report().retried_probes, 0u);
  EXPECT_EQ(engine.report().failed_probes, 3u);
}

}  // namespace
}  // namespace gray
