// Property-style parameterized tests: invariants that must hold across
// policy/parameter sweeps, exercised with randomized (seeded) inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/disk/disk.h"
#include "src/fs/ffs.h"
#include "src/gray/toolbox/stats.h"
#include "src/mem/mem_system.h"
#include "src/sim/rng.h"
#include "tests/ffs_paths.h"
#include "tests/test_util.h"

namespace graysim {
namespace {

// ---------- MemSystem invariants across policies ----------

class MemPolicyProperty : public ::testing::TestWithParam<MemPolicy> {};

TEST_P(MemPolicyProperty, AccountingSurvivesRandomOperations) {
  MemSystem::Config config{128, GetParam(), 32};
  MemSystem mem(config);
  std::uint64_t evicted = 0;
  FnEviction handler([&](const Page&) {
    ++evicted;
    return Nanos{0};
  });
  mem.set_evict_handler(&handler);

  // Phase 1 — below capacity: insert/touch/remove with live references; no
  // evictions may occur, and accounting must balance exactly.
  Rng rng(GetParam() == MemPolicy::kUnifiedLru ? 11 : 22);
  std::vector<MemSystem::PageRef> live;
  std::uint64_t seq = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.Below(10);
    const std::uint64_t soft_cap = 24;  // stay under every partition limit
    if (op < 5 && live.size() < soft_cap) {
      const PageKind kind = rng.Chance(0.5) ? PageKind::kFile : PageKind::kAnon;
      Nanos cost = 0;
      auto ref = mem.Insert(Page{kind, rng.Below(4), seq++}, &cost);
      ASSERT_NE(ref, kNoFrame);
      live.push_back(ref);
    } else if (op < 8 && !live.empty()) {
      mem.Touch(live[rng.Below(live.size())]);
    } else if (!live.empty()) {
      const std::size_t victim = rng.Below(live.size());
      mem.Remove(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(evicted, 0u) << "no eviction may happen below capacity";
    ASSERT_EQ(mem.used_pages(), live.size());
    ASSERT_EQ(mem.used_pages(), mem.file_pages() + mem.anon_pages());
  }
  for (const auto& ref : live) {
    mem.Remove(ref);
  }
  ASSERT_EQ(mem.used_pages(), 0u);

  // Phase 2 — hammer past capacity with inserts only: the pool must never
  // exceed its limits, and inserted == resident + evicted + denied.
  std::uint64_t inserted = 0;
  std::uint64_t denied = 0;
  for (int step = 0; step < 2000; ++step) {
    const PageKind kind = rng.Chance(0.5) ? PageKind::kFile : PageKind::kAnon;
    Nanos cost = 0;
    if (mem.Insert(Page{kind, rng.Below(4), seq++}, &cost) != kNoFrame) {
      ++inserted;
    } else {
      ++denied;
    }
    ASSERT_LE(mem.used_pages(), mem.total_pages());
    ASSERT_EQ(mem.used_pages(), mem.file_pages() + mem.anon_pages());
    ASSERT_EQ(inserted, mem.used_pages() + evicted);
    if (GetParam() == MemPolicy::kPartitionedFixedFile) {
      ASSERT_LE(mem.file_pages(), config.file_cache_pages);
    }
  }
  // Denials only ever happen under the sticky policy.
  if (GetParam() != MemPolicy::kStickyFile) {
    EXPECT_EQ(denied, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MemPolicyProperty,
                         ::testing::Values(MemPolicy::kUnifiedLru,
                                           MemPolicy::kPartitionedFixedFile,
                                           MemPolicy::kStickyFile));

// ---------- FFS allocation invariants across allocators ----------

class FfsAllocatorProperty : public ::testing::TestWithParam<AllocatorKind> {};

TEST_P(FfsAllocatorProperty, FreeBlockAccountingUnderChurn) {
  FsParams params;
  params.allocator = GetParam();
  Ffs fs(params, 2ULL * 1024 * 1024 * 1024);
  const std::uint64_t initial_free = fs.free_blocks();

  Rng rng(7);
  std::vector<std::pair<std::string, std::uint64_t>> files;  // path, size
  std::uint64_t next_name = 0;
  std::uint64_t live_blocks = 0;
  for (int step = 0; step < 2000; ++step) {
    if (files.size() < 50 && rng.Chance(0.6)) {
      const std::string path = "/f" + std::to_string(next_name++);
      Inum inum = kInvalidInum;
      ASSERT_EQ(fspath::Create(fs, path, &inum), FsErr::kOk);
      const std::uint64_t size = (1 + rng.Below(64)) * 4096;
      ASSERT_EQ(fs.Resize(inum, size, 0), FsErr::kOk);
      files.emplace_back(path, size);
      live_blocks += size / 4096;
    } else if (!files.empty()) {
      const std::size_t victim = rng.Below(files.size());
      live_blocks -= files[victim].second / 4096;
      ASSERT_EQ(fspath::Unlink(fs, files[victim].first), FsErr::kOk);
      files.erase(files.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(fs.free_blocks(), initial_free - live_blocks);
  }
  // Delete everything: all blocks must return.
  for (const auto& [path, size] : files) {
    ASSERT_EQ(fspath::Unlink(fs, path), FsErr::kOk);
  }
  EXPECT_EQ(fs.free_blocks(), initial_free);
}

TEST_P(FfsAllocatorProperty, NoTwoFilesShareABlock) {
  FsParams params;
  params.allocator = GetParam();
  Ffs fs(params, 1ULL * 1024 * 1024 * 1024);
  Rng rng(13);
  std::vector<Inum> inums;
  for (int i = 0; i < 60; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fspath::Create(fs, "/f" + std::to_string(i), &inum), FsErr::kOk);
    ASSERT_EQ(fs.Resize(inum, (1 + rng.Below(32)) * 4096, 0), FsErr::kOk);
    inums.push_back(inum);
    if (i % 5 == 4) {  // churn to create holes
      ASSERT_EQ(fspath::Unlink(fs, "/f" + std::to_string(i - 2)), FsErr::kOk);
      std::erase(inums, inums[inums.size() - 3]);
    }
  }
  std::vector<std::uint64_t> blocks;
  for (const Inum inum : inums) {
    InodeAttr attr;
    ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
    for (std::uint64_t b = 0; b < attr.blocks; ++b) {
      std::uint64_t disk_block = 0;
      ASSERT_EQ(fs.BlockOf(inum, b, &disk_block), FsErr::kOk);
      blocks.push_back(disk_block);
    }
  }
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end())
      << "two files own the same disk block";
}

INSTANTIATE_TEST_SUITE_P(AllAllocators, FfsAllocatorProperty,
                         ::testing::Values(AllocatorKind::kPacked,
                                           AllocatorKind::kSparse));

// ---------- disk model properties across geometries ----------

class DiskGeometryProperty : public ::testing::TestWithParam<double> {};

TEST_P(DiskGeometryProperty, CostsPositiveAndSeekBounded) {
  DiskGeometry geometry = DiskGeometry::Ibm9Lzx();
  geometry.transfer_mb_per_s *= GetParam();
  Disk disk(geometry, 0);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t offset =
        rng.Below(geometry.capacity_bytes - 64 * 1024);
    const std::uint64_t bytes = (1 + rng.Below(16)) * 4096;
    const Nanos t = disk.Access(offset, bytes, rng.Chance(0.5));
    ASSERT_GT(t, 0u);
    ASSERT_LT(t, Millis(geometry.full_stroke_seek_ms) + Millis(60.0 / geometry.rpm * 1000.0) +
                     disk.TransferTime(bytes) + Millis(1.0) +
                     Micros(geometry.controller_overhead_us));
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, DiskGeometryProperty, ::testing::Values(0.5, 1.0, 8.0));

// ---------- statistics properties over random samples ----------

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, PearsonWithinBounds) {
  Rng rng(GetParam());
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(rng.NextDouble() * 100.0);
    ys.push_back(rng.NextDouble() * 100.0 + (rng.Chance(0.5) ? xs.back() : 0.0));
  }
  const double r = gray::Pearson(xs, ys);
  EXPECT_GE(r, -1.0 - 1e-12);
  EXPECT_LE(r, 1.0 + 1e-12);
}

TEST_P(StatsProperty, MedianBetweenMinAndMax) {
  Rng rng(GetParam() * 31);
  std::vector<double> xs;
  for (int i = 0; i < 101; ++i) {
    xs.push_back(rng.NextDouble() * 1000.0 - 500.0);
  }
  const double med = gray::Median(xs);
  EXPECT_GE(med, *std::min_element(xs.begin(), xs.end()));
  EXPECT_LE(med, *std::max_element(xs.begin(), xs.end()));
}

TEST_P(StatsProperty, TwoMeansThresholdSeparatesKnownMixture) {
  Rng rng(GetParam() * 97);
  std::vector<double> xs;
  const double low_center = 1000.0;
  const double high_center = 1'000'000.0;
  for (int i = 0; i < 60; ++i) {
    xs.push_back(low_center * (0.8 + 0.4 * rng.NextDouble()));
    xs.push_back(high_center * (0.8 + 0.4 * rng.NextDouble()));
  }
  const gray::Clusters c = gray::TwoMeans(xs);
  ASSERT_TRUE(c.separated);
  EXPECT_GT(c.threshold, low_center * 1.2);
  EXPECT_LT(c.threshold, high_center * 0.8);
  EXPECT_EQ(c.low_count, 60u);
  EXPECT_EQ(c.high_count, 60u);
}

TEST_P(StatsProperty, RunningStatsMatchesBatchComputation) {
  Rng rng(GetParam() * 131);
  gray::RunningStats running;
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble() * 1e6 - 5e5;
    xs.push_back(x);
    running.Add(x);
  }
  double sum = 0.0;
  for (const double x : xs) {
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) {
    m2 += (x - mean) * (x - mean);
  }
  EXPECT_NEAR(running.mean(), mean, 1e-6);
  EXPECT_NEAR(running.variance(), m2 / static_cast<double>(xs.size() - 1), 1e-3);
}

TEST_P(StatsProperty, DiscardOutliersNeverDropsMajority) {
  Rng rng(GetParam() * 17);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(100.0 + rng.NextDouble() * 10.0);
  }
  xs.push_back(1e9);  // one wild outlier
  const std::vector<double> kept = gray::DiscardOutliers(xs);
  EXPECT_GE(kept.size(), xs.size() / 2);
  EXPECT_EQ(std::count(kept.begin(), kept.end(), 1e9), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Values(1u, 42u, 777u, 31337u));

// ---------- RNG sanity ----------

TEST(RngProperty, BelowIsAlwaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t bound = 1 + (static_cast<std::uint64_t>(i) % 1000);
    ASSERT_LT(rng.Below(bound), bound);
  }
}

TEST(RngProperty, DeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngProperty, RoughlyUniform) {
  Rng rng(12345);
  std::vector<int> buckets(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    ++buckets[rng.Below(10)];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, n / 10, n / 100);
  }
}

}  // namespace
}  // namespace graysim
