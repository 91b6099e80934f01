#include "src/os/os.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tests/ffs_paths.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;

// Creates a file of `bytes` by writing it sequentially.
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

TEST(OsTest, OpenMissingFileFails) {
  Os os(PlatformProfile::Linux22());
  EXPECT_LT(os.Open(os.default_pid(), "/d0/nothing"), 0);
}

TEST(OsTest, BadPathsRejected) {
  Os os(PlatformProfile::Linux22());
  EXPECT_LT(os.Open(os.default_pid(), "no-disk-prefix"), 0);
  EXPECT_LT(os.Open(os.default_pid(), "/d9/file"), 0);  // only 5 disks
}

TEST(OsTest, WriteThenReadBack) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 3 * kMb);
  InodeAttr attr;
  ASSERT_EQ(os.Stat(pid, "/d0/file", &attr), 0);
  EXPECT_EQ(attr.size, 3 * kMb);
  const int fd = os.Open(pid, "/d0/file");
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> buf(64);
  EXPECT_EQ(os.Pread(pid, fd, buf, 64, 0), 64);
  EXPECT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, ReadContentIsDeterministic) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", kMb);
  const int fd = os.Open(pid, "/d0/file");
  std::vector<std::uint8_t> a(128);
  std::vector<std::uint8_t> b(128);
  ASSERT_EQ(os.Pread(pid, fd, a, 128, 4096), 128);
  ASSERT_EQ(os.Pread(pid, fd, b, 128, 4096), 128);
  EXPECT_EQ(a, b);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, ColdReadSlowerThanWarmRead) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 16 * kMb);
  os.FlushFileCache();
  const int fd = os.Open(pid, "/d0/file");
  ASSERT_GE(fd, 0);

  const Nanos t0 = os.Now();
  ASSERT_EQ(os.Pread(pid, fd, {}, 16 * kMb, 0), static_cast<std::int64_t>(16 * kMb));
  const Nanos cold = os.Now() - t0;

  const Nanos t1 = os.Now();
  ASSERT_EQ(os.Pread(pid, fd, {}, 16 * kMb, 0), static_cast<std::int64_t>(16 * kMb));
  const Nanos warm = os.Now() - t1;

  EXPECT_GT(cold, warm * 5);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, SingleByteProbeTimesSeparateCacheStates) {
  // The heart of FCCD: a 1-byte read is microseconds when cached,
  // milliseconds when not.
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 64 * kMb);
  os.FlushFileCache();
  const int fd = os.Open(pid, "/d0/file");

  const Nanos t0 = os.Now();
  ASSERT_EQ(os.Pread(pid, fd, {}, 1, 32 * kMb), 1);
  const Nanos miss = os.Now() - t0;

  const Nanos t1 = os.Now();
  ASSERT_EQ(os.Pread(pid, fd, {}, 1, 32 * kMb), 1);
  const Nanos hit = os.Now() - t1;

  EXPECT_GT(miss, Millis(1.0));
  EXPECT_LT(hit, Micros(10.0));
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, ProbeBringsPageIn) {
  // The Heisenberg effect: probing a non-resident page faults it in.
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 8 * kMb);
  os.FlushFileCache();
  EXPECT_FALSE(os.PageResidentPath("/d0/file", 5));
  const int fd = os.Open(pid, "/d0/file");
  ASSERT_EQ(os.Pread(pid, fd, {}, 1, 5 * 4096), 1);
  EXPECT_TRUE(os.PageResidentPath("/d0/file", 5));
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, SequentialScanUsesReadahead) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 8 * kMb);
  os.FlushFileCache();
  const int fd = os.Open(pid, "/d0/file");
  for (std::uint64_t off = 0; off < 8 * kMb; off += 64 * 1024) {
    ASSERT_EQ(os.Pread(pid, fd, {}, 64 * 1024, off), 64 * 1024);
  }
  EXPECT_GT(os.stats().readahead_pages, 0u);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, LruEvictionWhenFileExceedsMemory) {
  // A scan of a file larger than memory leaves the tail resident, not the
  // head (LRU).
  MachineConfig cfg;
  cfg.phys_mem_bytes = 64 * kMb;
  cfg.kernel_reserved_bytes = 16 * kMb;  // 48 MB usable
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 96 * kMb);
  os.FlushFileCache();
  const int fd = os.Open(pid, "/d0/file");
  ASSERT_EQ(os.Pread(pid, fd, {}, 96 * kMb, 0), static_cast<std::int64_t>(96 * kMb));
  EXPECT_FALSE(os.PageResidentPath("/d0/file", 0));
  EXPECT_TRUE(os.PageResidentPath("/d0/file", 96 * kMb / 4096 - 1));
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, VmReadDoesNotAllocateButWriteDoes) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  const VmAreaId area = os.VmAlloc(pid, 16 * 4096);
  os.VmTouch(pid, area, 3, /*write=*/false);
  EXPECT_EQ(os.VmResidentPages(pid), 0u);
  os.VmTouch(pid, area, 3, /*write=*/true);
  EXPECT_EQ(os.VmResidentPages(pid), 1u);
  os.VmFree(pid, area);
  EXPECT_EQ(os.VmResidentPages(pid), 0u);
}

TEST(OsTest, OvercommitSwapsAndSwapInIsSlow) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 32 * kMb;
  cfg.kernel_reserved_bytes = 8 * kMb;  // 24 MB usable = 6144 pages
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid pid = os.default_pid();
  const std::uint64_t pages = 8000;  // exceeds memory
  const VmAreaId area = os.VmAlloc(pid, pages * 4096);
  for (std::uint64_t i = 0; i < pages; ++i) {
    os.VmTouch(pid, area, i, /*write=*/true);
  }
  EXPECT_GT(os.stats().swap_outs, 0u);
  // Page 0 was swapped out; touching it swaps in (slow).
  const Nanos t0 = os.Now();
  os.VmTouch(pid, area, 0, /*write=*/true);
  EXPECT_GT(os.Now() - t0, Millis(1.0));
  EXPECT_GT(os.stats().swap_ins, 0u);
}

TEST(OsTest, SchedulerInterleavesProcesses) {
  Os os(PlatformProfile::Linux22());
  std::vector<Nanos> finish(2, 0);
  os.RunProcesses({
      [&](Pid pid) {
        os.Compute(pid, Millis(100.0));
        finish[0] = os.Now();
      },
      [&](Pid pid) {
        os.Compute(pid, Millis(100.0));
        finish[1] = os.Now();
      },
  });
  // Both ran on one virtual clock; total is the sum of the compute time and
  // both finished near the end (interleaved, not serialized).
  EXPECT_GE(os.Now(), Millis(200.0));
  const Nanos gap = finish[1] > finish[0] ? finish[1] - finish[0] : finish[0] - finish[1];
  EXPECT_LE(gap, Millis(20.0));
}

TEST(OsTest, SchedulerIsDeterministic) {
  auto run = [] {
    Os os(PlatformProfile::Linux22());
    os.RunProcesses({
        [&](Pid pid) {
          MakeFile(os, pid, "/d0/a", 4 * kMb);
          os.Compute(pid, Millis(37.0));
        },
        [&](Pid pid) {
          MakeFile(os, pid, "/d1/b", 2 * kMb);
          os.Sleep(pid, Millis(5.0));
          os.Compute(pid, Millis(11.0));
        },
    });
    return os.Now();
  };
  const Nanos a = run();
  const Nanos b = run();
  EXPECT_EQ(a, b);
}

TEST(OsTest, SleepAdvancesVirtualTime) {
  Os os(PlatformProfile::Linux22());
  os.RunProcesses({[&](Pid pid) {
    const Nanos t0 = os.Now();
    os.Sleep(pid, Seconds(2.0));
    EXPECT_GE(os.Now() - t0, Seconds(2.0));
  }});
}

TEST(OsTest, UnlinkDropsCachedPages) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 4 * kMb);
  const std::uint64_t before = os.FileCachePages();
  EXPECT_GT(before, 0u);
  ASSERT_EQ(os.Unlink(pid, "/d0/file"), 0);
  EXPECT_LT(os.FileCachePages(), before);
}

// rename(p, p) replaces nothing, so the file keeps its unwritten pages and
// a later fsync still writes them.
TEST(OsTest, RenameOntoItselfKeepsDirtyPages) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  const int fd = os.Creat(pid, "/d0/file");
  ASSERT_GE(fd, 0);
  ASSERT_EQ(os.Pwrite(pid, fd, 4 * 4096, 0), 4 * 4096);
  ASSERT_EQ(os.Rename(pid, "/d0/file", "/d0/file"), 0);
  const std::uint64_t written = os.stats().writeback_pages;
  ASSERT_EQ(os.Fsync(pid, fd), 0);
  EXPECT_EQ(os.stats().writeback_pages - written, 4u);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

// A rename that fails replaces nothing, so the file it names as its target
// keeps its cached pages, unwritten ones included: whether the source is
// missing or is a directory, which cannot replace a file.
TEST(OsTest, FailedRenameKeepsTheTargetsPages) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  const int fd = os.Creat(pid, "/d0/f");
  ASSERT_GE(fd, 0);
  ASSERT_EQ(os.Pwrite(pid, fd, 2 * 4096, 0), 2 * 4096);
  ASSERT_EQ(os.Mkdir(pid, "/d0/dir"), 0);
  EXPECT_EQ(os.Rename(pid, "/d0/missing", "/d0/f"), -static_cast<int>(FsErr::kNotFound));
  EXPECT_TRUE(os.PageResidentPath("/d0/f", 0));
  EXPECT_EQ(os.Rename(pid, "/d0/dir", "/d0/f"), -static_cast<int>(FsErr::kNotDir));
  EXPECT_TRUE(os.PageResidentPath("/d0/f", 1));
  const std::uint64_t written = os.stats().writeback_pages;
  ASSERT_EQ(os.Fsync(pid, fd), 0);
  EXPECT_EQ(os.stats().writeback_pages - written, 2u);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

// Unlink's walk blocks on a directory block while another process renames
// a file over the one being unlinked. The unlink then frees the renamed
// file, so it must drop that file's pages, not those of the inode the path
// named before the walk: otherwise the freed inum, reused by the next file
// created beside it, reports the renamed file's pages as its own.
TEST(OsTest, UnlinkDropsThePagesOfTheInodeItFrees) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  // The first directory lands in the root's group; /d0/a and /d0/b get
  // groups, and directory blocks, of their own.
  ASSERT_EQ(os.Mkdir(pid, "/d0/c"), 0);
  ASSERT_EQ(os.Mkdir(pid, "/d0/a"), 0);
  ASSERT_EQ(os.Mkdir(pid, "/d0/b"), 0);
  MakeFile(os, pid, "/d0/a/x", 2 * 4096);
  MakeFile(os, pid, "/d0/b/z", 2 * 4096);
  os.FlushFileCache();
  // Warm /d0/b/z and the metadata the rename walks; /d0/a stays cold.
  InodeAttr z;
  ASSERT_EQ(os.Stat(pid, "/d0/b/z", &z), 0);
  const int fd = os.Open(pid, "/d0/b/z");
  ASSERT_EQ(os.Pread(pid, fd, {}, 2 * 4096, 0), 2 * 4096);
  ASSERT_EQ(os.Close(pid, fd), 0);

  int unlinked = -1;
  int renamed = -1;
  os.RunProcesses({
      [&](Pid p) { unlinked = os.Unlink(p, "/d0/a/x"); },
      [&](Pid p) {
        os.Sleep(p, 1000);  // lands inside the unlink's cold directory read
        renamed = os.Rename(p, "/d0/b/z", "/d0/a/x");
      },
  });
  ASSERT_EQ(unlinked, 0);
  ASSERT_EQ(renamed, 0);
  InodeAttr gone;
  EXPECT_LT(os.Stat(pid, "/d0/a/x", &gone), 0) << "the unlink ran after the rename";

  ASSERT_EQ(os.Close(pid, os.Creat(pid, "/d0/b/new")), 0);
  InodeAttr fresh;
  ASSERT_EQ(os.Stat(pid, "/d0/b/new", &fresh), 0);
  ASSERT_EQ(fresh.inum, z.inum) << "precondition: the new file reuses z's freed inum";
  EXPECT_FALSE(os.PageResidentPath("/d0/b/new", 0));
}

// Rename's walk blocks on a directory block while another process writes
// the file the rename will replace. The rename then frees that file, so it
// must drop the pages written meanwhile too: otherwise the freed inum,
// reused by the next file created beside it, reports them as its own.
TEST(OsTest, RenameDropsTheTargetsPagesWrittenDuringItsWalk) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  // As above: /d0/a and /d0/b get groups, and directory blocks, of their own.
  ASSERT_EQ(os.Mkdir(pid, "/d0/c"), 0);
  ASSERT_EQ(os.Mkdir(pid, "/d0/a"), 0);
  ASSERT_EQ(os.Mkdir(pid, "/d0/b"), 0);
  MakeFile(os, pid, "/d0/a/x", 2 * 4096);
  MakeFile(os, pid, "/d0/b/z", 2 * 4096);
  os.FlushFileCache();
  // Warm the metadata the writer walks; /d0/b, which the rename walks, stays
  // cold.
  InodeAttr x;
  ASSERT_EQ(os.Stat(pid, "/d0/a/x", &x), 0);

  int renamed = -1;
  std::int64_t wrote = -1;
  os.RunProcesses({
      [&](Pid p) { renamed = os.Rename(p, "/d0/b/z", "/d0/a/x"); },
      [&](Pid p) {
        os.Sleep(p, 1000);  // lands inside the rename's cold directory read
        const int fd = os.Open(p, "/d0/a/x");
        wrote = os.Pwrite(p, fd, 2 * 4096, 0);
        (void)os.Close(p, fd);
      },
  });
  ASSERT_EQ(wrote, 2 * 4096);
  ASSERT_EQ(renamed, 0);

  ASSERT_EQ(os.Close(pid, os.Creat(pid, "/d0/a/new")), 0);
  InodeAttr fresh;
  ASSERT_EQ(os.Stat(pid, "/d0/a/new", &fresh), 0);
  ASSERT_EQ(fresh.inum, x.inum) << "precondition: the new file reuses x's freed inum";
  EXPECT_FALSE(os.PageResidentPath("/d0/a/new", 0));
}

// A stat whose walk blocks on /d0/a's cold directory block while another
// process moves /d0/a away. The walk must then resolve /a/b from the root
// again, as the walk that re-resolved every prefix did, find it gone and
// stop: two metadata reads, the root's block (warm) and /d0/a's (cold).
// Stepping on from the moved directory would read b's block and f's inode
// block too. The reference's reads are exactly those of a stat of /d0/a,
// whose inode block is /d0/a's one directory block, so a twin machine that
// stats /d0/a under the same race gives the reference's charged time.
TEST(OsTest, WalkThatBlocksReresolvesAfterARenameOnItsPath) {
  struct Outcome {
    int rc = -1;
    Inum inum = kInvalidInum;
    Nanos elapsed = 0;
    std::uint64_t meta_reads = 0;
    std::uint64_t misses = 0;
  };
  auto race = [](std::string_view stat_path) {
    Os os(PlatformProfile::Linux22());
    const Pid pid = os.default_pid();
    EXPECT_EQ(os.Mkdir(pid, "/d0/c"), 0);
    EXPECT_EQ(os.Mkdir(pid, "/d0/a"), 0);
    EXPECT_EQ(os.Mkdir(pid, "/d0/a/b"), 0);
    EXPECT_EQ(os.Close(pid, os.Creat(pid, "/d0/a/b/f")), 0);
    os.FlushFileCache();
    InodeAttr c;
    EXPECT_EQ(os.Stat(pid, "/d0/c", &c), 0);  // warms the root's directory block
    Inum a = kInvalidInum;
    EXPECT_EQ(fspath::Lookup(os.fs(0), "/a", &a), FsErr::kOk);
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    EXPECT_EQ(os.fs(0).DirBlocks(a, &first, &count), FsErr::kOk);
    EXPECT_EQ(first, os.fs(0).InodeBlockOf(a));
    EXPECT_EQ(count, 1u);

    Outcome out;
    const OsStats before = os.stats();
    os.RunProcesses({
        [&](Pid p) {
          const Nanos start = os.Now();
          InodeAttr attr;
          out.rc = os.Stat(p, stat_path, &attr);
          out.inum = attr.inum;
          out.elapsed = os.Now() - start;
        },
        [&](Pid p) {
          os.Sleep(p, 1000);  // lands inside the stat's cold read of /d0/a's block
          EXPECT_EQ(fspath::Rename(os.fs_mutable(0), "/a", "/z"), FsErr::kOk);
        },
    });
    out.misses = os.stats().cache_misses - before.cache_misses;
    out.meta_reads = os.stats().cache_hits - before.cache_hits + out.misses;
    return out;
  };
  const Outcome walk = race("/d0/a/b/f");
  const Outcome reference = race("/d0/a");
  EXPECT_EQ(walk.rc, 0);
  EXPECT_NE(walk.inum, kInvalidInum);
  EXPECT_EQ(walk.meta_reads, 2u);
  EXPECT_EQ(walk.misses, 1u);
  EXPECT_EQ(reference.meta_reads, 2u);
  EXPECT_EQ(walk.elapsed, reference.elapsed);
  EXPECT_GT(walk.elapsed, Micros(100.0)) << "the walk never waited for the disk";
}

// The races below block a path syscall's walk on /d0/a's cold directory
// block while another process renames /a away and builds /a/b/f anew. The
// syscall resolved the path before its walk, so its record is stale when
// the walk wakes: the walk must step as the re-resolving walk did (root,
// old /a, new /a/b, new f's inode block) and the call must act on the path
// as it now stands. Its twin machine makes the same directories and file
// before the run under other names (/c2, /a/b2 and /a/b2/f take the inums
// the race's /a, /a/b and /a/b/f get), and runs the same syscall on
// /d0/a/b2/f with no change during it: an uncontended walk through old /a
// and /a/b2 reads exactly the blocks the re-resolving walk reads, and the
// same charges draw the same jitter, so the two must agree on the result,
// the reads, the misses and the charged time.
struct RebuiltPathRace {
  int rc = -1;
  Inum acted_on = kInvalidInum;  // the inode the path named when the call acted
  Nanos elapsed = 0;
  std::uint64_t meta_reads = 0;
  std::uint64_t misses = 0;
};

// Runs `call` on /d0/a/b/f against the rebuild (twin = false), or on
// /d0/a/b2/f of the twin tree (twin = true). `leaf_exists`: whether f (and
// the twin's b2/f) exists before the call.
template <class Call>
RebuiltPathRace RaceRebuiltPath(bool twin, bool leaf_exists, Call&& call, Os** keep = nullptr) {
  auto os = std::make_unique<Os>(PlatformProfile::Linux22());
  const Pid pid = os->default_pid();
  EXPECT_EQ(os->Mkdir(pid, "/d0/c"), 0);
  EXPECT_EQ(os->Mkdir(pid, "/d0/a"), 0);
  EXPECT_EQ(os->Mkdir(pid, "/d0/a/b"), 0);
  if (leaf_exists) {
    EXPECT_EQ(os->Close(pid, os->Creat(pid, "/d0/a/b/f")), 0);
  }
  RebuiltPathRace out;
  Ffs& fs = os->fs_mutable(0);
  if (twin) {
    EXPECT_EQ(fspath::Mkdir(fs, "/c2", nullptr), FsErr::kOk);
    EXPECT_EQ(fspath::Mkdir(fs, "/a/b2", nullptr), FsErr::kOk);
    if (leaf_exists) {
      EXPECT_EQ(fspath::Create(fs, "/a/b2/f", &out.acted_on), FsErr::kOk);
    }
  }
  os->FlushFileCache();
  InodeAttr c;
  EXPECT_EQ(os->Stat(pid, "/d0/c", &c), 0);  // warms the root's directory block

  const OsStats before = os->stats();
  os->RunProcesses({
      [&](Pid p) {
        const Nanos start = os->Now();
        out.rc = call(*os, p, twin ? "/d0/a/b2/f" : "/d0/a/b/f");
        out.elapsed = os->Now() - start;
      },
      [&](Pid p) {
        os->Sleep(p, 1000);  // lands inside the call's cold read of /d0/a's block
        if (twin) {
          return;
        }
        EXPECT_EQ(fspath::Rename(fs, "/a", "/z"), FsErr::kOk);
        EXPECT_EQ(fspath::Mkdir(fs, "/a", nullptr), FsErr::kOk);
        EXPECT_EQ(fspath::Mkdir(fs, "/a/b", nullptr), FsErr::kOk);
        EXPECT_EQ(fspath::Create(fs, "/a/b/f", &out.acted_on), FsErr::kOk);
      },
  });
  out.misses = os->stats().cache_misses - before.cache_misses;
  out.meta_reads = os->stats().cache_hits - before.cache_hits + out.misses;
  if (keep != nullptr) {
    *keep = os.release();
  }
  return out;
}

TEST(OsTest, UnlinkThatBlocksUnlinksThePathAsRebuiltDuringItsWalk) {
  const auto unlink = [](Os& os, Pid p, std::string_view path) { return os.Unlink(p, path); };
  Os* raced_os = nullptr;
  const RebuiltPathRace raced = RaceRebuiltPath(/*twin=*/false, true, unlink, &raced_os);
  std::unique_ptr<Os> raced_machine(raced_os);
  const RebuiltPathRace twin = RaceRebuiltPath(/*twin=*/true, true, unlink);
  EXPECT_EQ(raced.rc, 0);
  EXPECT_EQ(raced.rc, twin.rc);
  EXPECT_EQ(raced.acted_on, twin.acted_on);
  EXPECT_EQ(raced.meta_reads, twin.meta_reads);
  EXPECT_EQ(raced.misses, twin.misses);
  EXPECT_EQ(raced.elapsed, twin.elapsed);
  EXPECT_GE(raced.misses, 2u) << "the walk did not read the rebuilt path";
  EXPECT_GT(raced.elapsed, Micros(100.0)) << "the walk never waited for the disk";
  // The unlink removed the rebuilt file, not the one moved to /z.
  const Pid pid = raced_machine->default_pid();
  InodeAttr attr;
  EXPECT_EQ(raced_machine->Stat(pid, "/d0/a/b/f", &attr), -static_cast<int>(FsErr::kNotFound));
  EXPECT_EQ(raced_machine->Stat(pid, "/d0/z/b/f", &attr), 0);
}

TEST(OsTest, CreatThatBlocksWalksThePathAsRebuiltDuringItsWalk) {
  const auto creat = [](Os& os, Pid p, std::string_view path) {
    const int fd = os.Creat(p, path);
    if (fd >= 0) {
      EXPECT_EQ(os.Close(p, fd), 0);
    }
    return fd;
  };
  // The file exists (truncated), and the file is missing (created by the
  // call before its walk, which then steps through the re-stamped record).
  for (const bool leaf_exists : {true, false}) {
    SCOPED_TRACE(leaf_exists ? "truncate" : "create");
    const RebuiltPathRace raced = RaceRebuiltPath(/*twin=*/false, leaf_exists, creat);
    const RebuiltPathRace twin = RaceRebuiltPath(/*twin=*/true, leaf_exists, creat);
    EXPECT_GE(raced.rc, 0);
    EXPECT_EQ(raced.rc, twin.rc);
    EXPECT_EQ(raced.meta_reads, twin.meta_reads);
    EXPECT_EQ(raced.misses, twin.misses);
    EXPECT_EQ(raced.elapsed, twin.elapsed);
    EXPECT_GE(raced.misses, 2u) << "the walk did not read the rebuilt path";
    EXPECT_GT(raced.elapsed, Micros(100.0)) << "the walk never waited for the disk";
  }
}

// Disk numbers are parsed digit by digit against the disk count, so no
// number of digits overflows into a disk that exists: 4294967296 is 2^32,
// which a 32-bit accumulator would have wrapped to disk 0.
TEST(OsTest, DiskNumbersPastTheLastDiskAreRejected) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  ASSERT_EQ(os.Close(pid, os.Creat(pid, "/d0/f")), 0);
  InodeAttr attr;
  ASSERT_EQ(os.Stat(pid, "/d0/f", &attr), 0);
  const int invalid = -static_cast<int>(FsErr::kInvalid);
  EXPECT_EQ(os.Stat(pid, "/d4294967296/f", &attr), invalid);
  EXPECT_EQ(os.Stat(pid, "/d" + std::string(30, '9') + "/f", &attr), invalid);
  EXPECT_EQ(os.Stat(pid, "/d000000000000000000000000000000/f", &attr), 0);
  EXPECT_EQ(os.Open(pid, "/d18446744073709551616/f"), invalid);
}

TEST(OsTest, StatReportsInumAndTimes) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/a", 8192);
  MakeFile(os, pid, "/d0/b", 8192);
  InodeAttr a;
  InodeAttr b;
  ASSERT_EQ(os.Stat(pid, "/d0/a", &a), 0);
  ASSERT_EQ(os.Stat(pid, "/d0/b", &b), 0);
  EXPECT_LT(a.inum, b.inum);  // creation order
}

TEST(OsTest, ReadDirListsFiles) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  ASSERT_EQ(os.Mkdir(pid, "/d0/dir"), 0);
  MakeFile(os, pid, "/d0/dir/x", 4096);
  MakeFile(os, pid, "/d0/dir/y", 4096);
  std::vector<DirEntryInfo> entries;
  ASSERT_EQ(os.ReadDir(pid, "/d0/dir", &entries), 0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "x");
  EXPECT_EQ(entries[1].name, "y");
}

TEST(OsTest, NetBsdFileCacheCappedAt64Mb) {
  Os os(PlatformProfile::NetBsd15());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 128 * kMb);
  os.FlushFileCache();
  const int fd = os.Open(pid, "/d0/file");
  ASSERT_EQ(os.Pread(pid, fd, {}, 128 * kMb, 0), static_cast<std::int64_t>(128 * kMb));
  EXPECT_LE(os.FileCachePages() * 4096, 64 * kMb);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, SolarisCacheIsSticky) {
  Os os(PlatformProfile::Solaris7());
  const Pid pid = os.default_pid();
  // First file fills the cache and stays; a second scan cannot dislodge it.
  MakeFile(os, pid, "/d0/a", 900 * kMb);
  os.FlushFileCache();
  int fd = os.Open(pid, "/d0/a");
  ASSERT_EQ(os.Pread(pid, fd, {}, 900 * kMb, 0), static_cast<std::int64_t>(900 * kMb));
  ASSERT_EQ(os.Close(pid, fd), 0);
  const double frac_a = os.ResidentFraction("/d0/a");
  EXPECT_GT(frac_a, 0.85);

  MakeFile(os, pid, "/d1/b", 512 * kMb);
  fd = os.Open(pid, "/d1/b");
  // b was just written, so flush to make this a cold read.
  // (Writes of b may have bypassed the full cache already.)
  ASSERT_EQ(os.Pread(pid, fd, {}, 512 * kMb, 0), static_cast<std::int64_t>(512 * kMb));
  ASSERT_EQ(os.Close(pid, fd), 0);
  EXPECT_GT(os.ResidentFraction("/d0/a"), 0.85) << "scan of b dislodged a";
}

TEST(OsTest, WritebackCoalescesRuns) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 32 * kMb);
  const auto& stats = os.disk_stats(0);
  // Writeback of a sequential file should need far fewer requests than
  // pages written.
  EXPECT_LT(stats.requests, 32 * kMb / 4096 / 4);
}

TEST(OsTest, SequentialReadAdvancesOffset) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 3 * 4096);
  const int fd = os.Open(pid, "/d0/file");
  std::vector<std::uint8_t> a(16);
  std::vector<std::uint8_t> b(16);
  ASSERT_EQ(os.Read(pid, fd, a, 16), 16);
  ASSERT_EQ(os.Read(pid, fd, b, 16), 16);
  // Sequential reads return different content (different offsets).
  EXPECT_NE(a, b);
  std::vector<std::uint8_t> b_again(16);
  ASSERT_EQ(os.Pread(pid, fd, b_again, 16, 16), 16);
  EXPECT_EQ(b, b_again);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, ReadStopsAtEof) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/small", 100);
  const int fd = os.Open(pid, "/d0/small");
  EXPECT_EQ(os.Read(pid, fd, {}, 64), 64);
  EXPECT_EQ(os.Read(pid, fd, {}, 64), 36);
  EXPECT_EQ(os.Read(pid, fd, {}, 64), 0);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, WriteAppendsSequentially) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  const int fd = os.Creat(pid, "/d0/log");
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(os.Write(pid, fd, 1000), 1000);
  }
  InodeAttr attr;
  ASSERT_EQ(os.Stat(pid, "/d0/log", &attr), 0);
  EXPECT_EQ(attr.size, 5000u);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, LseekRepositionsAndSeeksEnd) {
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/file", 9000);
  const int fd = os.Open(pid, "/d0/file");
  ASSERT_EQ(os.Lseek(pid, fd, 8000), 8000);
  EXPECT_EQ(os.Read(pid, fd, {}, 4096), 1000);  // clamped at EOF
  ASSERT_EQ(os.Lseek(pid, fd, Os::kSeekEnd), 9000);
  EXPECT_EQ(os.Read(pid, fd, {}, 10), 0);
  ASSERT_EQ(os.Lseek(pid, fd, 0), 0);
  EXPECT_EQ(os.Read(pid, fd, {}, 10), 10);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

TEST(OsTest, LfsProfileAppendsAllWritesAtLogHead) {
  Os os(PlatformProfile::LfsVariant());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/a", 8192);
  MakeFile(os, pid, "/d0/b", 8192);
  const auto& fs = os.fs(0);
  graysim::InodeAttr a;
  graysim::InodeAttr b;
  ASSERT_EQ(os.Stat(pid, "/d0/a", &a), 0);
  ASSERT_EQ(os.Stat(pid, "/d0/b", &b), 0);
  // b was written right after a: its data sits immediately after a's.
  EXPECT_EQ(fs.FirstBlockOf(static_cast<Inum>(b.inum)),
            fs.FirstBlockOf(static_cast<Inum>(a.inum)) + 2);
}

TEST(OsTest, FilesOnDifferentDisksDoNotCollideInCache) {
  // Regression: files on different disks share local i-numbers; the page
  // cache must key on (disk, inum, page) without truncation.
  Os os(PlatformProfile::Linux22());
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/a", 8 * kMb);  // both get the first free inum
  MakeFile(os, pid, "/d1/a", 8 * kMb);  // of their respective filesystems
  InodeAttr a0;
  InodeAttr a1;
  ASSERT_EQ(os.Stat(pid, "/d0/a", &a0), 0);
  ASSERT_EQ(os.Stat(pid, "/d1/a", &a1), 0);
  ASSERT_EQ(a0.inum, a1.inum) << "precondition: same local inum";
  os.FlushFileCache();
  // Warm only the d0 file.
  const int fd = os.Open(pid, "/d0/a");
  ASSERT_EQ(os.Pread(pid, fd, {}, 8 * kMb, 0), static_cast<std::int64_t>(8 * kMb));
  ASSERT_EQ(os.Close(pid, fd), 0);
  EXPECT_TRUE(os.PageResidentPath("/d0/a", 0));
  EXPECT_FALSE(os.PageResidentPath("/d1/a", 0)) << "d1 twin must remain cold";
  // And timing agrees: a probe of the d1 twin goes to disk.
  const int fd1 = os.Open(pid, "/d1/a");
  const Nanos t0 = os.Now();
  ASSERT_EQ(os.Pread(pid, fd1, {}, 1, 0), 1);
  EXPECT_GT(os.Now() - t0, Millis(1.0));
  ASSERT_EQ(os.Close(pid, fd1), 0);
}

}  // namespace
}  // namespace graysim
