// Crash-stop fault injection, recovery, and durable-checkpoint tests.
//
// Pins the crash semantics end to end: a FaultPlan::crash_at instant kills
// every fiber stack and all volatile state deterministically (two machines
// with the same seed crash and recover bit-identically); fsync'd/syncfs'd
// data survives while un-synced dirty pages are counted as lost; recovery
// runs a charged consistency scan whose virtual time is a measured output;
// NetRecv on a crashed endpoint fails ECONNRESET-style instead of hanging;
// and checkpoints written by machine_image_io survive a disk round trip
// bit-identically while every corrupted variant (truncated, bit-flipped,
// wrong version, wrong magic, and under a valid CRC: a crafted FFS bit
// count, enums past their last enumerator, a config the loader would divide
// by zero on, events and fds that name missing devices) is rejected with no
// partial restore.
// Labeled `crash`: CI runs this suite under ASan+UBSan.
#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/fs/ffs.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/sim/byte_io.h"
#include "src/sim/rng.h"
#include "src/workloads/filegen.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;

constexpr int ToErr(FsErr err) { return -static_cast<int>(err); }

// Deterministic pre-crash state: a file with warm pages plus dirty pages
// (both data and the metadata blocks MakeFile dirtied along the way).
void WarmDirty(Os& os) {
  const Pid pid = os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(os, pid, "/d0/victim", 16 * kMb));
  const int fd = os.Open(pid, "/d0/victim");
  ASSERT_GE(fd, 0);
  for (std::uint64_t off = 0; off < 4 * kMb; off += 256 * 1024) {
    ASSERT_GT(os.Pwrite(pid, fd, 256 * 1024, off), 0);
  }
  ASSERT_EQ(os.Close(pid, fd), 0);
}

struct Fingerprint {
  Nanos now = 0;
  OsStats stats;
  RecoveryStats recovery;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint FingerprintOf(const Machine& m) {
  return Fingerprint{m.Now(), m.os().stats(), m.os().recovery_stats()};
}

// Crash one machine mid-run, recover it, run a post-restart workload.
// Everything is a pure function of the seed, so two calls must produce
// bit-identical fingerprints.
Fingerprint CrashRecoverContinue(Machine& machine) {
  Os& os = machine.os();
  WarmDirty(os);
  FaultPlan plan = FaultPlan::Interference(0.5);
  plan.crash_at = os.Now() + Millis(80.0);
  os.ArmChaos(plan);
  bool finished = false;
  machine.RunProcesses({[&os, &finished](Pid pid) {
    const int fd = os.Open(pid, "/d0/victim");
    // Far more work than fits before crash_at: the crash lands mid-loop
    // (or, if the cache makes the loop cheap, during the trailing sleep —
    // either way the fiber never reaches `finished`).
    for (int round = 0; round < 64; ++round) {
      for (std::uint64_t off = 0; off < 8 * kMb; off += 128 * 1024) {
        (void)os.Pread(pid, fd, {}, 128 * 1024, off);
        (void)os.Pwrite(pid, fd, 64 * 1024, off);
      }
    }
    (void)os.Close(pid, fd);
    os.Sleep(pid, Seconds(30.0));
    finished = true;
  }});
  EXPECT_TRUE(os.crashed());
  EXPECT_FALSE(finished) << "fiber survived the crash instant";
  const RecoveryStats stats = os.Recover();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_GT(stats.recovery_time, 0);
  // Post-restart continuation on the recovered machine.
  machine.RunProcesses({[&os](Pid pid) {
    const int fd = os.Open(pid, "/d0/victim");
    for (std::uint64_t off = 0; off < 8 * kMb; off += 256 * 1024) {
      (void)os.Pread(pid, fd, {}, 256 * 1024, off);
    }
    (void)os.Fsync(pid, fd);
    (void)os.Close(pid, fd);
  }});
  return FingerprintOf(machine);
}

TEST(CrashTest, CrashRecoveryReplaysBitIdentically) {
  Machine a(PlatformProfile::Linux22());
  Machine b(PlatformProfile::Linux22());
  const Fingerprint fa = CrashRecoverContinue(a);
  const Fingerprint fb = CrashRecoverContinue(b);
  EXPECT_EQ(fa, fb);
  EXPECT_GT(fa.recovery.lost_dirty_pages, 0u);
}

TEST(CrashTest, CrashUnwindsEveryFiber) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  WarmDirty(os);
  FaultPlan plan;
  plan.enabled = true;
  plan.crash_at = os.Now() + Millis(20.0);
  os.ArmChaos(plan);
  int finished = 0;
  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < 4; ++i) {
    bodies.push_back([&os, &finished](Pid pid) {
      os.Compute(pid, Seconds(10.0));  // far past crash_at
      ++finished;
    });
  }
  machine.RunProcesses(bodies);
  EXPECT_TRUE(os.crashed());
  EXPECT_EQ(finished, 0) << "a fiber computed past the crash instant";
  (void)os.Recover();
  EXPECT_FALSE(os.crashed());
  // The recovered machine runs new processes normally.
  bool ran = false;
  machine.RunProcesses({[&os, &ran](Pid pid) {
    os.Compute(pid, Millis(1.0));
    ran = true;
  }});
  EXPECT_TRUE(ran);
}

TEST(CrashTest, SyncfsDataSurvivesUnsyncedDataIsLost) {
  // Two identical machines diverge in exactly one call: syncfs before the
  // crash window. The synced machine loses nothing; the unsynced one loses
  // its dirty data and metadata pages, which fsck then repairs.
  auto run = [](bool syncfs) {
    Machine machine(PlatformProfile::Linux22());
    Os& os = machine.os();
    WarmDirty(os);
    if (syncfs) {
      EXPECT_EQ(os.Syncfs(os.default_pid(), 0), 0);
      EXPECT_EQ(os.stats().syncfs_calls, 1u);
    }
    FaultPlan plan;
    plan.enabled = true;
    plan.crash_at = os.Now() + Millis(10.0);
    os.ArmChaos(plan);
    machine.RunProcesses({[&os](Pid pid) { os.Sleep(pid, Seconds(5.0)); }});
    EXPECT_TRUE(os.crashed());
    return os.Recover();
  };
  const RecoveryStats synced = run(/*syncfs=*/true);
  const RecoveryStats unsynced = run(/*syncfs=*/false);
  EXPECT_EQ(synced.lost_dirty_pages, 0u);
  EXPECT_EQ(synced.repaired_meta_blocks, 0u);
  EXPECT_GT(unsynced.lost_dirty_pages, 0u);
  EXPECT_GT(unsynced.repaired_meta_blocks, 0u);
  // Both still paid the consistency scan.
  EXPECT_GT(synced.recovery_time, 0);
  EXPECT_GE(unsynced.recovery_time, synced.recovery_time);
}

TEST(CrashTest, CrashMidFsyncCountsTornWrites) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  WarmDirty(os);
  FaultPlan plan;
  plan.enabled = true;
  // Fires ~1 ms into the fsync's device wait: the writeback requests are
  // queued but their completions have not run — torn under the write-order
  // model (4 MB at ~20 MB/s needs ~200 ms to drain).
  plan.crash_at = os.Now() + Millis(1.0);
  os.ArmChaos(plan);
  machine.RunProcesses({[&os](Pid pid) {
    const int fd = os.Open(pid, "/d0/victim");
    (void)os.Fsync(pid, fd);
    (void)os.Close(pid, fd);
  }});
  ASSERT_TRUE(os.crashed());
  const RecoveryStats stats = os.Recover();
  EXPECT_GT(stats.torn_writes, 0u);
  EXPECT_GT(os.stats().fsyncs, 0u);
}

TEST(CrashTest, NetRecvOnCrashedEndpointReturnsConnReset) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  const Pid pid0 = os.default_pid();
  const int a = os.NetEndpoint(pid0);
  const int b = os.NetEndpoint(pid0);
  ASSERT_GT(os.NetSend(pid0, a, b, 4096, /*tag=*/5), 0);
  FaultPlan plan;
  plan.enabled = true;
  plan.crash_at = os.Now() + Millis(5.0);
  os.ArmChaos(plan);
  bool returned = false;
  machine.RunProcesses({[&os, b, &returned](Pid pid) {
    NetMessage msg;
    // Drains the in-flight message, then blocks with an effectively
    // infinite timeout; the crash must unwind this fiber rather than leave
    // it sleeping forever.
    while (os.NetRecv(pid, b, Seconds(3600.0), &msg) > 0) {
    }
    returned = true;
  }});
  EXPECT_TRUE(os.crashed());
  EXPECT_FALSE(returned);
  (void)os.Recover();
  // The endpoint died with the machine. Pre-fix this call hung: the inbox
  // and in-flight sets were wiped, so EarliestArrival was kNever and the
  // receiver slept in recv_poll increments until an infinite timeout.
  NetMessage msg;
  EXPECT_EQ(os.NetRecv(pid0, b, Seconds(3600.0), &msg), ToErr(FsErr::kConnReset));
  EXPECT_EQ(FsErrName(FsErr::kConnReset), "connection-reset");
  // Endpoints created after recovery work normally.
  const int c = os.NetEndpoint(pid0);
  const int d = os.NetEndpoint(pid0);
  ASSERT_GT(os.NetSend(pid0, c, d, 1024, /*tag=*/9), 0);
  EXPECT_GT(os.NetRecv(pid0, d, Seconds(1.0), &msg), 0);
}

// ---- durable checkpoints -------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t GetLe(const std::vector<char>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

void PutLe(std::vector<char>* bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// A checkpoint file is a 16-byte header (magic, version, section count),
// then per section a u32 tag, a u64 payload length, a u32 CRC32 of the
// payload, and the payload. Returns where section `tag`'s frame starts.
std::size_t SectionFrame(const std::vector<char>& file, std::uint32_t tag) {
  std::size_t at = 16;
  while (GetLe(file, at, 4) != tag) {
    at += 16 + GetLe(file, at + 4, 8);
  }
  return at;
}

// Re-checksums section `tag` after a test edited its payload, so the edit
// reaches the section's parser instead of failing the CRC check.
void ReCrcSection(std::vector<char>* file, std::uint32_t tag) {
  const std::size_t frame = SectionFrame(*file, tag);
  const std::size_t len = GetLe(*file, frame + 4, 8);
  const auto* payload = reinterpret_cast<const std::uint8_t*>(file->data() + frame + 16);
  PutLe(file, frame + 12, 4, Crc32(payload, len));
}

// A machine whose image exercises every section: warm cache, dirty pages,
// pending net deliveries, armed chaos with a pending kCrash event.
std::unique_ptr<Machine> CheckpointableMachine() {
  auto machine = std::make_unique<Machine>(PlatformProfile::Linux22());
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/warm", 12 * kMb);
  const int fd = os.Open(pid, "/d0/warm");
  for (std::uint64_t off = 0; off < 6 * kMb; off += 256 * 1024) {
    (void)os.Pread(pid, fd, {}, 256 * 1024, off);
  }
  for (std::uint64_t off = 0; off < 2 * kMb; off += 128 * 1024) {
    (void)os.Pwrite(pid, fd, 128 * 1024, off);
  }
  (void)os.Close(pid, fd);
  const int a = os.NetEndpoint(pid);
  const int b = os.NetEndpoint(pid);
  (void)os.NetSend(pid, a, b, 32 * 1024, /*tag=*/3);
  FaultPlan plan = FaultPlan::Interference(0.4);
  plan.crash_at = os.Now() + Seconds(2.0);  // pending kCrash in the image
  os.ArmChaos(plan);
  return machine;
}

// A small machine whose memory section holds every kind of frame: clean
// and dirty file pages, resident anonymous pages of pid 0, and free frames
// left by a freed area. Its 12 MB of frames fill up under RunAWave.
std::unique_ptr<Machine> MemoryMachine() {
  MachineConfig config;
  config.phys_mem_bytes = 16 * kMb;
  config.kernel_reserved_bytes = 4 * kMb;
  config.num_disks = 1;
  auto machine = std::make_unique<Machine>(PlatformProfile::Linux22(), config,
                                           /*machine_id=*/0, /*seed=*/0x3E3);
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/a", 4 * kMb);
  (void)graywork::MakeFile(os, pid, "/d0/b", 2 * kMb);
  const int fd = os.Open(pid, "/d0/a");
  (void)os.Pwrite(pid, fd, 256 * 1024, 0);
  (void)os.Close(pid, fd);
  const VmAreaId kept = os.VmAlloc(pid, kMb);
  const VmAreaId freed = os.VmAlloc(pid, kMb / 4);
  for (std::uint64_t page = 0; page < 256; ++page) {
    os.VmTouch(pid, kept, page, /*write=*/true);
  }
  for (std::uint64_t page = 0; page < 64; ++page) {
    os.VmTouch(pid, freed, page, /*write=*/true);
  }
  os.VmFree(pid, freed);
  return machine;
}

// One wave on a MemoryMachine or a fork of one: its processes read a file
// through the cache, fill 6 MB of anonymous memory (evicting file pages
// and swapping out pid 0's), write, fsync and unlink; then the cache is
// flushed and the machine snapshotted and encoded. Returns the image size.
std::size_t RunAWave(Machine& m) {
  Os& os = m.os();
  m.RunProcesses({
      [&os](Pid pid) {
        const int fd = os.Open(pid, "/d0/a");
        for (std::uint64_t off = 0; off < 4 * kMb; off += 64 * 1024) {
          (void)os.Pread(pid, fd, {}, 64 * 1024, off);
        }
        (void)os.Close(pid, fd);
      },
      [&os](Pid pid) {
        const VmAreaId area = os.VmAlloc(pid, 6 * kMb);
        for (std::uint64_t page = 0; page < 6 * kMb / 4096; ++page) {
          os.VmTouch(pid, area, page, /*write=*/true);
        }
      },
      [&os](Pid pid) {
        const int fd = os.Open(pid, "/d0/b");
        (void)os.Pwrite(pid, fd, 512 * 1024, 0);
        (void)os.Fsync(pid, fd);
        (void)os.Close(pid, fd);
        (void)graywork::MakeFile(os, pid, "/d0/c", kMb);
        (void)os.Unlink(pid, "/d0/b");
      },
  });
  os.FlushFileCache();
  return EncodeMachineImage(m.Snapshot()).size();
}

// Where the parts of a memory section (tag 7) sit in its payload, in
// order: the frame slab (count n, then n link records of four u32 ids, n
// u64 touch stamps, n flag bytes, n u64 first keys and n u64 second keys),
// its free list (u64 count, u32 ids), the file and anon LRU triples (u32
// head, u32 tail, u64 size), the file and anon page counts, the touch
// sequence and four u64 stats; then the page table (u64 slots, u64 live,
// per live slot a u64 index, u64 key and u32 frame), the file records (the
// same, with a u64 page count for the frame) and the dirty chain's triple;
// then the VM's spaces (u64 count, and per space its u64 next vpage, its
// areas as a u64 count of (id, base vpage, pages) u64 triples, and its page
// table as a u64 count of u64 PTEs).
struct MemLayout {
  std::uint64_t frames = 0;
  std::size_t hot = 0;
  std::size_t flags = 0;
  std::size_t key1 = 0;
  std::size_t key2 = 0;
  std::size_t free_list = 0;
  std::size_t file_lru = 0;
  std::size_t anon_lru = 0;
  std::size_t anon_pages = 0;
  std::size_t page_table = 0;
  std::size_t files = 0;
  std::size_t dirty_chain = 0;
  std::vector<std::size_t> areas;   // per pid, its first area
  std::vector<std::size_t> tables;  // per pid, its first PTE

  // Offsets of frame `f`'s fields.
  [[nodiscard]] std::size_t lru_prev(std::uint64_t f) const { return hot + 16 * f; }
  [[nodiscard]] std::size_t lru_next(std::uint64_t f) const { return hot + 16 * f + 4; }
  [[nodiscard]] std::size_t flag(std::uint64_t f) const { return flags + f; }
  [[nodiscard]] std::size_t page(std::uint64_t f) const { return key2 + 8 * f; }
};

MemLayout MemLayoutOf(const std::vector<char>& file) {
  constexpr std::uint32_t kMem = 7;
  const std::size_t base = SectionFrame(file, kMem) + 16;
  const auto u64 = [&](std::size_t at) { return GetLe(file, base + at, 8); };
  MemLayout m;
  m.frames = u64(0);
  const std::uint64_t n = m.frames;
  m.hot = 8;
  m.flags = m.hot + 16 * n + 8 * n;
  m.key1 = m.flags + n;
  m.key2 = m.key1 + 8 * n;
  m.free_list = m.key2 + 8 * n;
  m.file_lru = m.free_list + 8 + 4 * u64(m.free_list);
  m.anon_lru = m.file_lru + 16;
  m.anon_pages = m.anon_lru + 16 + 8;
  m.page_table = m.anon_pages + 8 + 8 + 32;
  m.files = m.page_table + 16 + 20 * u64(m.page_table + 8);
  m.dirty_chain = m.files + 16 + 24 * u64(m.files + 8);
  std::size_t at = m.dirty_chain + 16;
  const std::uint64_t spaces = u64(at);
  at += 8;
  for (std::uint64_t pid = 0; pid < spaces; ++pid) {
    at += 8;  // next_vpage
    m.areas.push_back(at + 8);
    at += 8 + 24 * u64(at);
    m.tables.push_back(at + 8);
    at += 8 + 8 * u64(at);
  }
  return m;
}

TEST(CrashTest, CheckpointRoundTripsThroughDiskBitIdentically) {
  std::unique_ptr<Machine> original = CheckpointableMachine();
  const MachineImage image = original->Snapshot();
  const std::string path = TempPath("roundtrip.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(image, path, &error)) << error;

  MachineImage loaded;
  ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.id, image.id);
  EXPECT_EQ(loaded.root_seed, image.root_seed);
  EXPECT_EQ(loaded.os.now, image.os.now);
  EXPECT_EQ(loaded.os.events.size(), image.os.events.size());
  EXPECT_TRUE(loaded.os.os_stats == image.os.os_stats);

  const std::unique_ptr<Machine> fork = Machine::Fork(loaded);
  ASSERT_EQ(fork->Now(), original->Now());
  // Both run until the checkpointed crash_at fires, recover, continue:
  // virtual times, stats, and recovery costs must match exactly.
  auto drive = [](Machine& m) {
    Os& os = m.os();
    m.RunProcesses({[&os](Pid pid) {
      const int fd = os.Open(pid, "/d0/warm");
      for (int round = 0; round < 8; ++round) {
        for (std::uint64_t off = 0; off < 8 * kMb; off += 128 * 1024) {
          (void)os.Pread(pid, fd, {}, 128 * 1024, off);
        }
      }
      (void)os.Close(pid, fd);
      os.Sleep(pid, Seconds(30.0));  // past the checkpointed crash_at
    }});
    EXPECT_TRUE(os.crashed()) << "workload outran the checkpointed crash_at";
    (void)os.Recover();
    return Fingerprint{m.Now(), os.stats(), os.recovery_stats()};
  };
  const Fingerprint forked = drive(*fork);
  const Fingerprint orig = drive(*original);
  EXPECT_EQ(forked, orig);
  EXPECT_EQ(forked.recovery.crashes, 1u);
}

// FNV-1a over every byte of a file.
std::uint64_t FileDigest(const std::string& path) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : ReadAll(path)) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Golden checkpoint bytes of CheckpointableMachine. Unlike the golden in
// snapshot_test.cc (chaos off, an idle link), these bytes cover an armed
// FaultPlan with its ChaosStats and RNG state, chaos tick and crash events,
// and a net message in flight. Captured at commit 32b461f; any change to
// the digest is a change to machine state or to the checkpoint format.
TEST(CrashTest, CheckpointBytesWithChaosAndNetMatchGolden) {
  constexpr std::uint64_t kGoldenDigest = 0x65fa772b45c23a3eULL;
  const MachineImage image = CheckpointableMachine()->Snapshot();
  // What the golden is for: each of these reaches the file.
  ASSERT_TRUE(image.os.chaos_armed);
  ASSERT_TRUE(image.os.chaos_plan.enabled);
  bool crash_pending = false;
  bool tick_pending = false;
  bool delivery_pending = false;
  for (const EventQueue::RawEvent& ev : image.os.events) {
    const auto kind = static_cast<EventKind>(ev.desc.kind);
    crash_pending |= kind == EventKind::kCrash;
    tick_pending |= kind == EventKind::kAntagonistTick || kind == EventKind::kShockTick;
    delivery_pending |= kind == EventKind::kNetDeliver;
  }
  EXPECT_TRUE(crash_pending);
  EXPECT_TRUE(tick_pending);
  EXPECT_TRUE(delivery_pending);
  ASSERT_EQ(image.os.net.endpoints.size(), 2u);
  EXPECT_EQ(image.os.net.endpoints[1].in_flight.size(), 1u);

  const std::string path = TempPath("golden_chaos_net.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(image, path, &error)) << error;
  EXPECT_EQ(FileDigest(path), kGoldenDigest);
}

TEST(CrashTest, CorruptCheckpointsAreRejectedWithoutPartialRestore) {
  std::unique_ptr<Machine> machine = CheckpointableMachine();
  const std::string path = TempPath("corrupt.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;
  const std::vector<char> good = ReadAll(path);
  ASSERT_GT(good.size(), 64u);

  struct Case {
    const char* name;
    std::vector<char> bytes;
    const char* reason = "";  // expected in the error message
  };
  std::vector<Case> cases;
  {
    Case truncated{"truncated", good};
    truncated.bytes.resize(good.size() / 2);
    cases.push_back(std::move(truncated));
  }
  {
    Case flipped{"bit-flipped section", good};
    flipped.bytes[good.size() / 2] ^= 0x01;  // payload byte, CRC must catch
    cases.push_back(std::move(flipped));
  }
  {
    Case version{"wrong version", good};
    version.bytes[8] = static_cast<char>(version.bytes[8] + 1);  // u32 after magic
    cases.push_back(std::move(version));
  }
  {
    Case magic{"wrong magic", good};
    magic.bytes[0] = static_cast<char>(magic.bytes[0] ^ 0xFF);
    cases.push_back(std::move(magic));
  }
  {
    // Group 0's block-map bit count set to 2^64 - 1 under a valid CRC. The
    // filesystems section (tag 4) holds the filesystem count (8 bytes), then
    // disk 0's params (33), group count (8) and group 0's first_block,
    // data_start and data_end (24); the bit count follows. Rounding it up to
    // whole bytes or words wraps to zero, which let it past the size check.
    constexpr std::uint32_t kFilesystems = 4;
    Case count{"FFS bit count near 2^64", good, "malformed filesystem 0"};
    PutLe(&count.bytes, SectionFrame(good, kFilesystems) + 16 + 8 + 33 + 8 + 24, 8,
          ~std::uint64_t{0});
    ReCrcSection(&count.bytes, kFilesystems);
    cases.push_back(std::move(count));
  }
  {
    // Configs that parse but would size the machine past what the loader
    // may allocate, one case per bound. Each is the machine's own image
    // re-encoded with an edited config, so every CRC holds.
    auto reencoded = [&machine](const MachineConfig& config) {
      MachineImage image = machine->Snapshot();
      image.os.config = config;
      const std::vector<std::uint8_t> bytes = EncodeMachineImage(image);
      return std::vector<char>(bytes.begin(), bytes.end());
    };
    const MachineConfig base = machine->Snapshot().os.config;
    MachineConfig c = base;
    c.phys_mem_bytes = std::uint64_t{1} << 50;
    cases.push_back({"2^38 memory frames", reencoded(c), "frames, past the ceiling"});
    // One byte past the kernel's reservation: a pool of no frames.
    c = base;
    c.phys_mem_bytes = c.kernel_reserved_bytes + 1;
    cases.push_back({"no memory frames", reencoded(c), "no memory frames"});
    c = base;
    c.disk_geometry.capacity_bytes = std::uint64_t{1} << 60;
    cases.push_back({"2^48 blocks in one file system", reencoded(c), "blocks in one file system"});
    // Five 256 GiB disks: 2^26 blocks on each data disk and 2^25 on the
    // swap disk's file system, each within the ceiling, 2^28 + 2^25 in all.
    c = base;
    c.disk_geometry.capacity_bytes = std::uint64_t{1} << 38;
    cases.push_back({"2^28 + 2^25 blocks in all", reencoded(c), "disk blocks, past the ceiling"});
    // 9 GB disks in 128-block groups: 18,432 groups on each data disk and
    // 9,216 on the swap disk, each within the ceiling, 82,944 in all.
    c = base;
    c.fs_params.blocks_per_cg = 128;
    cases.push_back({"82,944 cylinder groups in all", reencoded(c), "groups, past the ceiling"});
    // 288 groups of 65,536 inodes: 18.9M slots, past 0xFFFFFD.
    c = base;
    c.fs_params.inodes_per_cg = 65536;
    cases.push_back({"inode slots into the pseudo-inums", reencoded(c), "reserved pseudo-inums"});
    c = base;
    c.fs_params.blocks_per_cg = std::uint64_t{1} << 40;
    cases.push_back({"no cylinder group", reencoded(c), "with no cylinder group"});
  }
  {
    // Content that parses but that a restore would crash on, each under a
    // valid CRC. `patched` sets `width` bytes at `offset` into section
    // `tag`'s payload.
    auto patched = [&good](std::uint32_t tag, std::size_t offset, int width, std::uint64_t v) {
      std::vector<char> bytes = good;
      PutLe(&bytes, SectionFrame(good, tag) + 16 + offset, width, v);
      ReCrcSection(&bytes, tag);
      return bytes;
    };
    auto payload_u64 = [&good](std::uint32_t tag, std::size_t offset) {
      return GetLe(good, SectionFrame(good, tag) + 16 + offset, 8);
    };
    constexpr std::uint32_t kConfig = 2;
    constexpr std::uint32_t kKernel = 3;
    constexpr std::uint32_t kFilesystems = 4;
    constexpr std::uint32_t kTables = 8;
    // The config opens with the profile's name (a length, then the bytes)
    // and its mem_policy; the config's FsParams::inode_size is 124 bytes on.
    const std::size_t policy = 8 + payload_u64(kConfig, 0);
    cases.push_back({"mem policy past its last enumerator", patched(kConfig, policy, 1, 7),
                     "malformed config section"});
    cases.push_back({"inode size of zero", patched(kConfig, policy + 124, 4, 0),
                     "malformed config section"});
    // A filesystem's params follow the filesystem count: block_size (4),
    // total_blocks (8), blocks_per_cg (8), inodes_per_cg (4), inode_size
    // (4), then the allocator.
    cases.push_back({"FFS allocator past its last enumerator", patched(kFilesystems, 8 + 28, 1, 3),
                     "malformed filesystem 0"});
    // The kernel's 56-byte head and the event count precede event 0; its
    // kind is 24 bytes in, and its dev follows the kind.
    ASSERT_GT(payload_u64(kKernel, 56), 0u);
    constexpr std::size_t kKind = 64 + 24;
    constexpr std::size_t kDev = kKind + 4;
    auto event = [&](std::uint32_t kind, std::int64_t dev) {
      std::vector<char> bytes = patched(kKernel, kKind, 4, kind);
      PutLe(&bytes, SectionFrame(good, kKernel) + 16 + kDev, 8, static_cast<std::uint64_t>(dev));
      ReCrcSection(&bytes, kKernel);
      return bytes;
    };
    constexpr auto code = [](EventKind k) { return static_cast<std::uint32_t>(k); };
    cases.push_back({"event of kind kNone", event(code(EventKind::kNone), 0), "unknown kind 0"});
    cases.push_back({"event of an unknown kind", event(99, 0), "unknown kind 99"});
    cases.push_back({"completion on a missing disk", event(code(EventKind::kDeviceCompletion), 99),
                     "names device 99"});
    cases.push_back({"read fill on the net link", event(code(EventKind::kReadFillCompletion), -1),
                     "names device -1"});
    cases.push_back({"delivery to a missing endpoint", event(code(EventKind::kNetDeliver), 2),
                     "names device 2"});
    // The tables open with the pid count and pid 0's fd count; fd 0's open
    // flag and disk follow.
    ASSERT_GT(payload_u64(kTables, 8), 0u);
    std::vector<char> fd = patched(kTables, 16, 1, 1);
    PutLe(&fd, SectionFrame(good, kTables) + 16 + 17, 8, 99);
    ReCrcSection(&fd, kTables);
    cases.push_back({"open fd on a missing disk", std::move(fd), "open on disk 99"});
  }

  {
    // Memory sections that parse, and that a restore would follow to a
    // frame that does not hold, each under a valid CRC. They are cut from a
    // MemoryMachine, which has dirty file pages, anonymous pages and free
    // frames. `patched` sets `width` bytes at `offset` into the payload.
    constexpr std::uint32_t kMem = 7;
    const std::string mem_path = TempPath("corrupt_mem.gsim");
    ASSERT_TRUE(SaveMachineImage(MemoryMachine()->Snapshot(), mem_path, &error)) << error;
    const std::vector<char> mem = ReadAll(mem_path);
    const MemLayout m = MemLayoutOf(mem);
    const std::size_t base = SectionFrame(mem, kMem) + 16;
    const auto at = [&](std::size_t offset, int width) { return GetLe(mem, base + offset, width); };
    struct Patch {
      std::size_t offset;
      int width;
      std::uint64_t value;
    };
    auto patched = [&](std::initializer_list<Patch> patches) {
      std::vector<char> bytes = mem;
      for (const Patch& p : patches) {
        PutLe(&bytes, base + p.offset, p.width, p.value);
      }
      ReCrcSection(&bytes, kMem);
      return bytes;
    };
    const std::uint64_t n = m.frames;
    const std::uint64_t file_head = at(m.file_lru, 4);
    const std::uint64_t file_second = at(m.lru_next(file_head), 4);
    const std::uint64_t anon_head = at(m.anon_lru, 4);
    const std::uint64_t anon_size = at(m.anon_lru + 8, 8);
    const std::uint64_t dirty_head = at(m.dirty_chain, 4);
    ASSERT_LT(file_second, n);
    ASSERT_LT(anon_head, n);
    ASSERT_LT(dirty_head, n);
    ASSERT_GT(at(m.free_list, 8), 0u) << "no free frame to corrupt";
    // The anon head's own PTE, and its first area.
    const std::uint64_t pid = at(m.key1 + 8 * anon_head, 8);
    const std::uint64_t vpage = at(m.page(anon_head), 8);
    ASSERT_LT(pid, m.tables.size());
    const std::size_t pte = m.tables[pid] + 8 * vpage;
    ASSERT_EQ(at(pte, 8), (std::uint64_t{1} << 62) | anon_head);
    // A clean frame on the file LRU, to mark dirty behind the chain's back.
    std::uint64_t clean = file_head;
    while (clean < n && (at(m.flag(clean), 1) & 2) != 0) {
      clean = at(m.lru_next(clean), 4);
    }
    ASSERT_LT(clean, n) << "every file frame is dirty";
    const char* const kMalformed = "malformed memory section";
    // Every FrameId stored is kNoFrame or below the frame count.
    cases.push_back({"frame link past the frame count", patched({{m.lru_next(file_head), 4, n}}),
                     kMalformed});
    cases.push_back({"LRU head past the frame count", patched({{m.anon_lru, 4, n + 5}}),
                     kMalformed});
    cases.push_back({"free frame past the frame count", patched({{m.free_list + 8, 4, n}}),
                     kMalformed});
    cases.push_back({"page-table frame past the frame count",
                     patched({{m.page_table + 32, 4, n}}), kMalformed});
    cases.push_back({"resident PTE past the frame count",
                     patched({{pte, 8, (std::uint64_t{1} << 62) | n}}), kMalformed});
    // Each list walks from head to tail in exactly its size, with back links.
    cases.push_back({"file LRU with a wrong back link",
                     patched({{m.lru_prev(file_second), 4, file_second}}), kMalformed});
    const std::uint64_t shorter = anon_size - 1;
    cases.push_back({"anon LRU longer than its size",
                     patched({{m.anon_lru + 8, 8, shorter}, {m.anon_pages, 8, shorter}}),
                     kMalformed});
    // The dirty chain holds exactly the dirty file frames.
    cases.push_back({"dirty file frame off the dirty chain",
                     patched({{m.flag(clean), 1, at(m.flag(clean), 1) | 2}}), kMalformed});
    const std::uint64_t cleaned = at(m.flag(dirty_head), 1) & ~std::uint64_t{2};
    cases.push_back({"clean frame on the dirty chain", patched({{m.flag(dirty_head), 1, cleaned}}),
                     kMalformed});
    // Each LRU frame is what its page table names under its key.
    cases.push_back({"file frame the page table lacks",
                     patched({{m.page(file_head), 8, at(m.page(file_head), 8) + 4096}}),
                     kMalformed});
    cases.push_back({"anon frame its PTE does not name",
                     patched({{m.page(anon_head), 8, vpage + 1}}), kMalformed});
    // No frame is both free and live.
    cases.push_back({"live frame on the free list", patched({{m.free_list + 8, 4, file_head}}),
                     kMalformed});
    // A file record counts its resident pages; an area lies in its table.
    cases.push_back({"file record one page short",
                     patched({{m.files + 32, 8, at(m.files + 32, 8) - 1}}), kMalformed});
    ASSERT_FALSE(m.areas.empty());
    cases.push_back({"VM area past its page table",
                     patched({{m.areas[pid] + 16, 8, at(m.areas[pid] + 16, 8) + 4096}}),
                     kMalformed});
    MachineImage pristine;
    ASSERT_TRUE(LoadMachineImage(mem_path, &pristine, &error)) << error;
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string bad_path = TempPath("corrupt_case.gsim");
    WriteAll(bad_path, c.bytes);
    MachineImage out;
    out.id = 777;  // sentinel: a failed load must leave *out untouched
    std::string why;
    EXPECT_FALSE(LoadMachineImage(bad_path, &out, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_NE(why.find(c.reason), std::string::npos) << why;
    EXPECT_EQ(out.id, 777u);
    EXPECT_EQ(out.os.mem, nullptr);
  }

  // The pristine file still loads — corruption detection, not flakiness.
  MachineImage ok;
  ASSERT_TRUE(LoadMachineImage(path, &ok, &error)) << error;
}

// Mutation fuzzing of the memory section. Each mutant changes one to four
// payload bytes of a MemoryMachine image's memory section and re-checksums
// it, as a crafted file would. The loader must reject it, or its fork must
// survive a wave, a cache flush, a snapshot and an encode: under ASan, as
// CI runs this suite, a frame id that does not hold fails the run.
TEST(CrashTest, MutatedMemorySectionsAreRejectedOrRestoreSafely) {
  constexpr std::uint32_t kMem = 7;
  constexpr int kMutants = 400;
  std::unique_ptr<Machine> original = MemoryMachine();
  const std::string path = TempPath("mutant_base.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(original->Snapshot(), path, &error)) << error;
  ASSERT_GT(RunAWave(*original), 0u);
  const std::vector<char> good = ReadAll(path);
  const std::size_t frame = SectionFrame(good, kMem);
  const std::size_t len = GetLe(good, frame + 4, 8);

  Rng rng(0x3E3A7E);
  int rejected = 0;
  int restored = 0;
  for (int i = 0; i < kMutants; ++i) {
    SCOPED_TRACE(i);
    std::vector<char> bytes = good;
    const std::uint64_t changes = rng.Range(1, 4);
    for (std::uint64_t c = 0; c < changes; ++c) {
      bytes[frame + 16 + rng.Below(len)] = static_cast<char>(rng.Below(256));
    }
    ReCrcSection(&bytes, kMem);
    MachineImage image;
    if (!DecodeMachineImage({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
                            &image)) {
      ++rejected;
      continue;
    }
    std::unique_ptr<Machine> fork = Machine::Fork(image);
    EXPECT_GT(RunAWave(*fork), 0u);
    ++restored;
  }
  // Both outcomes occur: most bytes are links and keys, some are touch
  // stamps and counters no check can miss.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restored, 0);
  RecordProperty("rejected", rejected);
  RecordProperty("restored", restored);
}

// Mutation fuzzing of the config section. Each mutant changes one to four
// payload bytes of a MemoryMachine image's config section and re-checksums
// it. The loader must reject it, or decode it and fork a machine from it:
// whatever sizes a surviving config names, neither may allocate past the
// loader's ceilings. No wave runs, because a surviving config can change
// costs and slices, whose runtime sanity is a separate question.
TEST(CrashTest, MutatedConfigSectionsAreRejectedOrFork) {
  constexpr std::uint32_t kConfig = 2;
  constexpr int kMutants = 400;
  const std::string path = TempPath("mutant_config_base.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(MemoryMachine()->Snapshot(), path, &error)) << error;
  const std::vector<char> good = ReadAll(path);
  const std::size_t frame = SectionFrame(good, kConfig);
  const std::size_t len = GetLe(good, frame + 4, 8);

  Rng rng(0xC0F1C);
  int rejected = 0;
  int restored = 0;
  for (int i = 0; i < kMutants; ++i) {
    SCOPED_TRACE(i);
    std::vector<char> bytes = good;
    const std::uint64_t changes = rng.Range(1, 4);
    for (std::uint64_t c = 0; c < changes; ++c) {
      bytes[frame + 16 + rng.Below(len)] = static_cast<char>(rng.Below(256));
    }
    ReCrcSection(&bytes, kConfig);
    MachineImage image;
    if (!DecodeMachineImage({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
                            &image)) {
      ++rejected;
      continue;
    }
    const std::unique_ptr<Machine> fork = Machine::Fork(image);
    EXPECT_EQ(fork->Now(), image.os.now);
    ++restored;
  }
  // Both outcomes occur: sizes and enumerators are rejected, while most
  // costs, seeds and rates decode.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restored, 0);
  RecordProperty("rejected", rejected);
  RecordProperty("restored", restored);
}

// A directory opens like a file, and its stream reports a size of 2^63 - 1:
// the loader must refuse it with a message before sizing a buffer from it.
TEST(CrashTest, LoadingADirectoryOrAMissingFileFailsWithAMessage) {
  for (const std::string& path : {::testing::TempDir(), TempPath("no_such_checkpoint.gsim")}) {
    SCOPED_TRACE(path);
    MachineImage out;
    out.id = 777;  // sentinel: a failed load must leave *out untouched
    std::string why;
    EXPECT_FALSE(LoadMachineImage(path, &out, &why));
    EXPECT_NE(why.find(path), std::string::npos) << why;
    EXPECT_EQ(out.id, 777u);
  }
}

TEST(CrashTest, SaveIsAtomicUnderOverwrite) {
  // Saving over an existing checkpoint goes through tmp + rename: after
  // every save the file at `path` is complete and loadable, and no .tmp
  // residue is left behind.
  std::unique_ptr<Machine> machine = CheckpointableMachine();
  const std::string path = TempPath("overwrite.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;
  const std::vector<char> first = ReadAll(path);

  // Advance the machine, save again over the same path.
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  const int fd = os.Open(pid, "/d0/warm");
  (void)os.Pread(pid, fd, {}, 512 * 1024, 0);
  (void)os.Close(pid, fd);
  ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;

  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind after rename";
  MachineImage loaded;
  ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;
  EXPECT_NE(ReadAll(path).size(), 0u);
  EXPECT_TRUE(loaded.os.os_stats == os.stats());
  (void)first;
}

}  // namespace
}  // namespace graysim
