// Machine snapshot/fork bit-identity tests.
//
// A fork (Machine::Fork of a Machine::Snapshot image) must not merely be
// "equivalent" to the original — its subsequent execution must be
// bit-identical: same virtual times, same OsStats, same chaos decisions,
// same trace. These tests pin that property across all three platform
// profiles with chaos armed, with pending events in flight at the snapshot
// instant (device completions, daemon wakeups, chaos ticks, undelivered
// net messages), through double forks, and through snapshot-of-fork
// round trips. Labeled `snapshot`: CI runs this suite under ASan+UBSan.
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/trace.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/workloads/filegen.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;
constexpr double kChaosIntensity = 0.6;

// Order-sensitive digest of a trace: every retained event's virtual
// timing, payload, track, phase, and name bytes (host_ns excluded — wall
// time legitimately differs between two bit-identical executions).
std::uint64_t TraceDigest(const obs::TraceSink& trace) {
  std::vector<obs::TraceEvent> events;
  trace.Snapshot(&events);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const obs::TraceEvent& e : events) {
    mix(e.virtual_ns);
    mix(e.dur_ns);
    mix(e.arg);
    mix(e.track);
    mix(static_cast<std::uint64_t>(e.phase));
    for (const char c : std::string_view(e.name == nullptr ? "" : e.name)) {
      mix(static_cast<std::uint64_t>(c));
    }
  }
  mix(events.size());
  return h;
}

// Builds cached state worth forking: a file with a warm stripe, dirty
// pages awaiting write-behind, undelivered net messages, and (armed by the
// caller) chaos ticks — so the snapshot instant has real pending events.
void Warm(Machine& machine) {
  Os& os = machine.os();
  const Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/warm", 24 * kMb);
  const int fd = os.Open(pid, "/d0/warm");
  for (std::uint64_t off = 0; off < 12 * kMb; off += 512 * 1024) {
    (void)os.Pread(pid, fd, {}, 512 * 1024, off);
  }
  // Dirty without fsync: flush-daemon work and writeback completions stay
  // pending across the snapshot.
  for (std::uint64_t off = 0; off < 4 * kMb; off += 256 * 1024) {
    (void)os.Pwrite(pid, fd, 256 * 1024, 16 * kMb + off);
  }
  (void)os.Close(pid, fd);
  // Two endpoints with messages still on the wire at snapshot time.
  const int a = os.NetEndpoint(pid);
  const int b = os.NetEndpoint(pid);
  (void)os.NetSend(pid, a, b, 48 * 1024, /*tag=*/7);
  (void)os.NetSend(pid, a, b, 16 * 1024, /*tag=*/8);
}

// The divergence detector: a deterministic mixed workload (file reads,
// writes + fsync, anonymous memory, sleeps, net receive) run identically
// on two machines that are supposed to be bit-identical.
void RunContinuation(Machine& machine) {
  Os& os = machine.os();
  machine.RunProcesses({[&os](Pid pid) {
    const int fd = os.Open(pid, "/d0/warm");
    for (std::uint64_t off = 0; off < 20 * kMb; off += 128 * 1024) {
      (void)os.Pread(pid, fd, {}, 128 * 1024, off);
    }
    for (std::uint64_t off = 0; off < 2 * kMb; off += 64 * 1024) {
      (void)os.Pwrite(pid, fd, 64 * 1024, off);
    }
    (void)os.Fsync(pid, fd);
    (void)os.Close(pid, fd);
    const VmAreaId area = os.VmAlloc(pid, 8 * kMb);
    for (std::uint64_t p = 0; p < 8 * kMb / 4096; ++p) {
      os.VmTouch(pid, area, p, /*write=*/true);
    }
    os.VmFree(pid, area);
    os.Sleep(pid, Millis(250.0));
  }});
}

struct Fingerprint {
  Nanos now = 0;
  OsStats stats;
  ChaosStats chaos;
  std::uint64_t trace_digest = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint FingerprintOf(const Machine& machine) {
  return Fingerprint{machine.Now(), machine.os().stats(), machine.os().chaos_stats(),
                     TraceDigest(machine.os().trace())};
}

// Warm + arm chaos + run a little so the snapshot lands mid-chaos with
// events in flight; returns the machine ready to snapshot.
std::unique_ptr<Machine> WarmChaoticMachine(PlatformProfile profile) {
  auto machine = std::make_unique<Machine>(profile);
  Warm(*machine);
  machine->os().ArmChaos(FaultPlan::Interference(kChaosIntensity));
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  const int fd = os.Open(pid, "/d0/warm");
  for (std::uint64_t off = 0; off < 6 * kMb; off += 256 * 1024) {
    (void)os.Pread(pid, fd, {}, 256 * 1024, off);
  }
  (void)os.Close(pid, fd);
  return machine;
}

TEST(SnapshotTest, ForkReplaysBitIdenticallyOnAllProfilesWithChaos) {
  const PlatformProfile profiles[] = {PlatformProfile::Linux22(),
                                      PlatformProfile::NetBsd15(),
                                      PlatformProfile::Solaris7()};
  for (const PlatformProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    std::unique_ptr<Machine> original = WarmChaoticMachine(profile);
    const MachineImage image = original->Snapshot();
    const std::unique_ptr<Machine> fork = Machine::Fork(image);

    ASSERT_EQ(fork->Now(), original->Now());
    ASSERT_TRUE(fork->os().stats() == original->os().stats());
    ASSERT_EQ(fork->os().config().chaos.enabled,
              original->os().config().chaos.enabled);

    original->os().trace().Enable();
    fork->os().trace().Enable();
    RunContinuation(*original);
    RunContinuation(*fork);
    EXPECT_EQ(FingerprintOf(*fork), FingerprintOf(*original));
    EXPECT_NE(TraceDigest(original->os().trace()), 0u);
  }
}

TEST(SnapshotTest, ForkAtMidRunCarriesPendingEvents) {
  std::unique_ptr<Machine> original = WarmChaoticMachine(PlatformProfile::Linux22());
  const MachineImage image = original->Snapshot();

  // The snapshot instant is mid-flight: chaos ticks are always pending
  // once armed, and the warm phase left write-behind and net deliveries
  // undone. Every captured event must carry a rebuildable descriptor.
  ASSERT_FALSE(image.os.events.empty());
  for (const EventQueue::RawEvent& ev : image.os.events) {
    EXPECT_NE(ev.desc.kind, static_cast<std::uint32_t>(EventKind::kNone));
  }
  EXPECT_GT(image.os.ApproxBytes(), sizeof(Os::Image));

  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  // Receiving the in-flight messages must behave identically on both:
  // the deliveries live in the image as kNetDeliver descriptors.
  auto drain_net = [](Machine& m) {
    Os& os = m.os();
    const Pid pid = os.default_pid();
    NetMessage msg;
    std::uint64_t got = 0;
    while (os.NetRecv(pid, /*endpoint=*/1, Millis(50.0), &msg) > 0) {
      got = got * 131 + msg.tag;
    }
    return got;
  };
  const std::uint64_t original_msgs = drain_net(*original);
  const std::uint64_t fork_msgs = drain_net(*fork);
  EXPECT_EQ(fork_msgs, original_msgs);
  EXPECT_NE(fork_msgs, 0u);
  EXPECT_EQ(fork->Now(), original->Now());
}

TEST(SnapshotTest, DoubleForkReplaysDivergenceFree) {
  std::unique_ptr<Machine> original = WarmChaoticMachine(PlatformProfile::Linux22());
  const MachineImage image = original->Snapshot();
  const std::unique_ptr<Machine> fork_a = Machine::Fork(image);
  const std::unique_ptr<Machine> fork_b = Machine::Fork(image);
  RunContinuation(*fork_a);
  RunContinuation(*fork_b);
  RunContinuation(*original);
  EXPECT_EQ(FingerprintOf(*fork_a), FingerprintOf(*fork_b));
  EXPECT_EQ(FingerprintOf(*fork_a), FingerprintOf(*original));
}

TEST(SnapshotTest, SnapshotOfForkRoundTrips) {
  std::unique_ptr<Machine> original = WarmChaoticMachine(PlatformProfile::Linux22());
  const MachineImage image = original->Snapshot();
  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  RunContinuation(*fork);

  // Snapshot the fork mid-sequence and fork again: the grandchild must
  // replay the fork's own future bit-identically.
  const MachineImage second = fork->Snapshot();
  EXPECT_EQ(second.id, image.id);
  const std::unique_ptr<Machine> grandchild = Machine::Fork(second);
  ASSERT_EQ(grandchild->Now(), fork->Now());
  RunContinuation(*fork);
  RunContinuation(*grandchild);
  EXPECT_EQ(FingerprintOf(*grandchild), FingerprintOf(*fork));
}

TEST(SnapshotTest, ResumedFromDiskReplaysBitIdenticallyOnAllProfilesWithChaos) {
  // The durable variant of the fork pin: Snapshot → SaveMachineImage →
  // LoadMachineImage → Fork must replay exactly like the in-memory
  // original, on every platform profile, with chaos armed at the
  // checkpoint instant.
  const PlatformProfile profiles[] = {PlatformProfile::Linux22(),
                                      PlatformProfile::NetBsd15(),
                                      PlatformProfile::Solaris7()};
  int index = 0;
  for (const PlatformProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    std::unique_ptr<Machine> original = WarmChaoticMachine(profile);
    const MachineImage image = original->Snapshot();

    const std::string path =
        ::testing::TempDir() + "/resume_" + std::to_string(index++) + ".gsim";
    std::string error;
    ASSERT_TRUE(SaveMachineImage(image, path, &error)) << error;
    MachineImage loaded;
    ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;

    const std::unique_ptr<Machine> resumed = Machine::Fork(loaded);
    ASSERT_EQ(resumed->Now(), original->Now());
    ASSERT_TRUE(resumed->os().stats() == original->os().stats());

    original->os().trace().Enable();
    resumed->os().trace().Enable();
    RunContinuation(*original);
    RunContinuation(*resumed);
    EXPECT_EQ(FingerprintOf(*resumed), FingerprintOf(*original));
    EXPECT_NE(TraceDigest(resumed->os().trace()), 0u);
  }
}

// FNV-1a over a file's bytes (0 when unreadable).
std::uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return 0;
  }
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<std::uint8_t>(*it);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Golden checkpoint bytes. A 64 MB, two-disk Linux 2.2 machine is populated
// the way graysimd's load_steady populates one (a sort input, a grep set
// and two aging files per client), then one process batch warms and dirties
// pages and drops them through every per-file path: unlink, creat over an
// existing file, rename over an existing file and a shrinking ftruncate. The
// saved image pins what those drops leave behind: the page table's raw slot
// layout, the frame free list's LIFO order, the dirty chain and the FFS
// inode table. Captured at commit 33c1669; any change to the digest is a
// change to machine state or to the checkpoint format.
TEST(SnapshotTest, CheckpointBytesOfPerFileDropsMatchGolden) {
  constexpr std::uint64_t kGoldenDigest = 0x49e635c5111b9d5fULL;
  constexpr int kClients = 80;
  MachineConfig config;
  config.phys_mem_bytes = 64 * kMb;
  config.kernel_reserved_bytes = 16 * kMb;
  config.num_disks = 2;
  Machine machine(PlatformProfile::Linux22(), config, /*machine_id=*/5, /*seed=*/0x60D1);
  Os& os = machine.os();
  const Pid setup_pid = os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(os, setup_pid, "/d0/sort_in", 256 * 1024));
  ASSERT_EQ(graywork::MakeFileSet(os, setup_pid, "/d1/src", 4, 64 * 1024).size(), 4u);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(
        graywork::MakeFileSet(os, setup_pid, "/d0/age" + std::to_string(c), 2, 16 * 1024).size(),
        2u);
  }
  os.FlushFileCache();

  auto read_all = [&os](Pid pid, const std::string& path) {
    const int fd = os.Open(pid, path);
    if (fd >= 0) {
      (void)os.Pread(pid, fd, {}, 1024 * 1024, 0);
      (void)os.Close(pid, fd);
    }
  };
  machine.RunProcesses({
      [&](Pid pid) {
        read_all(pid, "/d0/sort_in");
        for (int i = 0; i < 4; ++i) {
          read_all(pid, "/d1/src/f" + std::to_string(i));
        }
        const int dirty = os.Open(pid, "/d1/src/f1");
        (void)os.Pwrite(pid, dirty, 32 * 1024, 8 * 1024);
        (void)os.Close(pid, dirty);
        (void)os.Unlink(pid, "/d1/src/f0");
        const int recreated = os.Creat(pid, "/d1/src/f1");
        (void)os.Write(pid, recreated, 12 * 1024);
        (void)os.Close(pid, recreated);
        (void)os.Rename(pid, "/d1/src/f2", "/d1/src/f3");
        const int shrink = os.Open(pid, "/d0/sort_in");
        (void)os.Pwrite(pid, shrink, 64 * 1024, 128 * 1024);
        (void)os.Ftruncate(pid, shrink, 100 * 1024);
        (void)os.Close(pid, shrink);
      },
      [&](Pid pid) {
        for (int c = 0; c < kClients; c += 3) {
          read_all(pid, "/d0/age" + std::to_string(c) + "/f0");
          read_all(pid, "/d0/age" + std::to_string(c) + "/f1");
          (void)os.Unlink(pid, "/d0/age" + std::to_string(c) + "/f1");
        }
      },
  });

  const std::string path = ::testing::TempDir() + "/golden_drops.gsim";
  std::string error;
  ASSERT_TRUE(SaveMachineImage(machine.Snapshot(), path, &error)) << error;
  EXPECT_EQ(FileDigest(path), kGoldenDigest);
}

TEST(SnapshotTest, ForkPreservesIdentityAndSeedDerivation) {
  Machine original(PlatformProfile::Linux22(), MachineConfig{}, /*machine_id=*/7,
                   /*seed=*/0xFEEDFACE);
  Warm(original);
  const MachineImage image = original.Snapshot();
  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  EXPECT_EQ(fork->id(), original.id());
  EXPECT_EQ(fork->root_seed(), original.root_seed());
  // Caller-visible derived streams (workload RNG seeds) must match too.
  EXPECT_EQ(fork->DeriveSeed(42), original.DeriveSeed(42));
}

}  // namespace
}  // namespace graysim
