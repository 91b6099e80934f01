// The observability layer's contract, pinned:
//  * the ring drops OLDEST-first on overflow and counts every drop;
//  * B/E spans emitted by the kernel nest well-formed per track;
//  * the Chrome trace_event export is minimally schema-valid and names one
//    "thread" row per registered track (>= the six well-known tracks);
//  * tracing is PASSIVE — a traced run is bit-identical in virtual time and
//    OsStats to an untraced one, on every platform profile.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/machine.h"
#include "src/os/os.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;

// ---- TraceSink unit behavior ----

TEST(TraceSink, DisabledEmittersRecordNothing) {
  obs::TraceSink sink;
  sink.Instant(obs::kTrackChaos, "noop", 10);
  sink.Begin(obs::kTrackKernel, "noop", 10);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingWraparoundDropsOldestFirst) {
  obs::TraceSink sink;
  sink.Enable(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.Instant(obs::kTrackKernel, "e", /*vt=*/i);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<obs::TraceEvent> events;
  sink.Snapshot(&events);
  ASSERT_EQ(events.size(), 4u);
  // The oldest six (vt 0..5) were overwritten; 6..9 remain, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].virtual_ns, 6 + i);
  }
}

TEST(TraceSink, ReenableClearsEventsButKeepsTracks) {
  obs::TraceSink sink;
  const std::uint32_t t = sink.RegisterTrack("custom");
  EXPECT_EQ(t, obs::kNumWellKnownTracks);
  EXPECT_EQ(sink.RegisterTrack("custom"), t);  // idempotent by name
  sink.Enable(8);
  sink.Instant(t, "x", 1);
  EXPECT_EQ(sink.size(), 1u);
  sink.Enable(8);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.track_names().size(), obs::kNumWellKnownTracks + 1);
}

// ---- shared workload (mirrors determinism_test's event-source mix) ----

void MakeFile(Os& os, Pid pid, const std::string& path, std::uint64_t bytes) {
  const int fd = os.Creat(pid, path);
  ASSERT_GE(fd, 0) << path;
  for (std::uint64_t off = 0; off < bytes; off += kMb) {
    const std::uint64_t n = std::min(kMb, bytes - off);
    ASSERT_EQ(os.Pwrite(pid, fd, n, off), static_cast<std::int64_t>(n));
  }
  ASSERT_EQ(os.Fsync(pid, fd), 0);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

struct Snapshot {
  Nanos virtual_time = 0;
  OsStats stats;
  ChaosStats chaos;
  std::vector<std::uint64_t> queue_totals;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

// Runs a mixed multi-process workload (reads + readahead, dirty writes,
// memory churn, sleeps) with or without tracing; `sink_out` receives the
// Os's sink contents when traced.
Snapshot RunWorkload(const PlatformProfile& profile, bool traced,
                     std::vector<obs::TraceEvent>* events_out = nullptr,
                     std::vector<std::string>* tracks_out = nullptr) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;
  // Config-seeded Machine: bit-identical to the bare Os this test used to
  // assemble by hand (pinned by FleetSeeding.ConfigSeededMachineMatchesBareOs).
  Machine machine(profile, cfg);
  Os& os = machine.os();
  if (traced) {
    os.StartTrace(1 << 16);
  }
  const Pid setup = os.default_pid();
  for (int d = 0; d < 2; ++d) {
    MakeFile(os, setup, "/d" + std::to_string(d) + "/input", 16 * kMb);
  }
  os.FlushFileCache();

  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < 5; ++i) {
    bodies.push_back([&os, i](Pid pid) {
      const int fd = os.Open(pid, "/d" + std::to_string(i % 2) + "/input");
      ASSERT_GE(fd, 0);
      std::uint64_t off = static_cast<std::uint64_t>(i) * 512 * 1024;
      for (int k = 0; k < 16; ++k) {
        (void)os.Pread(pid, fd, {}, 256 * 1024, off % (16 * kMb));
        off += 256 * 1024;
      }
      (void)os.Close(pid, fd);
      const int out =
          os.Creat(pid, "/d" + std::to_string(i % 2) + "/out" + std::to_string(i));
      ASSERT_GE(out, 0);
      for (int k = 0; k < 6; ++k) {
        (void)os.Pwrite(pid, out, 512 * 1024, static_cast<std::uint64_t>(k) * 512 * 1024);
      }
      (void)os.Close(pid, out);
      const VmAreaId area = os.VmAlloc(pid, (2 + i % 3) * kMb);
      const std::uint64_t pages = (2 + i % 3) * kMb / os.page_size();
      for (std::uint64_t p = 0; p < pages; ++p) {
        os.VmTouch(pid, area, p, /*write=*/true);
      }
      os.Sleep(pid, Millis(1.0 + i));
      os.VmFree(pid, area);
    });
  }
  os.RunProcesses(bodies);

  Snapshot snap;
  snap.virtual_time = os.Now();
  snap.stats = os.stats();
  snap.chaos = os.chaos_stats();
  for (int d = 0; d < os.num_disks(); ++d) {
    snap.queue_totals.push_back(os.disk_queue(d).total_requests());
  }
  if (events_out != nullptr) {
    os.trace().Snapshot(events_out);
  }
  if (tracks_out != nullptr) {
    *tracks_out = os.trace().track_names();
  }
  return snap;
}

// ---- span nesting ----

TEST(Trace, KernelSpansNestWellFormedPerTrack) {
  std::vector<obs::TraceEvent> events;
  std::vector<std::string> tracks;
  (void)RunWorkload(PlatformProfile::Linux22(), /*traced=*/true, &events, &tracks);
  ASSERT_FALSE(events.empty());

  // Per track: B/E strictly alternate into a stack, E matches the open B's
  // name, and B/E virtual timestamps never run backwards within the track.
  // (Only B/E carry the ordering contract: a disk "X" span is future-dated
  // to its service window, which can land beyond a later "queue" instant.)
  std::vector<std::vector<const char*>> open(tracks.size());
  std::vector<Nanos> last_vt(tracks.size(), 0);
  for (const obs::TraceEvent& e : events) {
    ASSERT_LT(e.track, tracks.size());
    if (e.phase != obs::Phase::kBegin && e.phase != obs::Phase::kEnd) {
      continue;
    }
    EXPECT_GE(e.virtual_ns, last_vt[e.track])
        << "virtual time ran backwards on track " << tracks[e.track];
    last_vt[e.track] = e.virtual_ns;
    if (e.phase == obs::Phase::kBegin) {
      open[e.track].push_back(e.name);
    } else if (e.phase == obs::Phase::kEnd) {
      ASSERT_FALSE(open[e.track].empty())
          << "E without open B on track " << tracks[e.track];
      EXPECT_STREQ(open[e.track].back(), e.name);
      open[e.track].pop_back();
    }
  }
  // The ring was large enough not to wrap, so every span must have closed.
  for (std::size_t t = 0; t < open.size(); ++t) {
    EXPECT_TRUE(open[t].empty()) << "unclosed span on track " << tracks[t];
  }

  // The workload drives daemons, disks, fibers, and dispatch: expect events
  // on the kernel track, at least one disk track, and at least one fiber.
  auto track_id = [&](const std::string& name) -> std::uint32_t {
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      if (tracks[i] == name) {
        return static_cast<std::uint32_t>(i);
      }
    }
    return ~0u;
  };
  std::vector<bool> seen(tracks.size(), false);
  for (const obs::TraceEvent& e : events) {
    seen[e.track] = true;
  }
  EXPECT_TRUE(seen[obs::kTrackKernel]);
  EXPECT_TRUE(seen[obs::kTrackFlushDaemon]);
  ASSERT_NE(track_id("disk/0"), ~0u);
  EXPECT_TRUE(seen[track_id("disk/0")]);
  ASSERT_NE(track_id("fiber/0"), ~0u);
  EXPECT_TRUE(seen[track_id("fiber/0")]);
}

// ---- Chrome JSON export ----

TEST(Trace, ChromeJsonExportIsMinimallyValid) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  os.StartTrace(1 << 14);
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/f", 4 * kMb);
  const int fd = os.Open(pid, "/d0/f");
  ASSERT_GE(fd, 0);
  (void)os.Pread(pid, fd, {}, kMb, 0);
  (void)os.Close(pid, fd);
  os.StopTrace();

  const std::string path = ::testing::TempDir() + "/graysim_trace_test.json";
  ASSERT_TRUE(os.trace().WriteChromeJson(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  // Minimal schema: object form with a traceEvents array, metadata naming
  // at least the six well-known tracks plus dynamic disk/fiber rows, and
  // phase/ts fields on the events.
  EXPECT_EQ(text.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\""), std::string::npos);
  const char* expected_tracks[] = {"kernel/events", "daemon/flush", "daemon/page",
                                   "chaos",         "probe",        "icl",
                                   "disk/0"};
  std::size_t named = 0;
  for (const char* t : expected_tracks) {
    if (text.find("\"name\": \"" + std::string(t) + "\"") != std::string::npos) {
      ++named;
    }
  }
  EXPECT_GE(named, 7u) << "expected the well-known tracks plus disk/0 in metadata";
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos) << "no disk request spans";
  EXPECT_NE(text.find("\"ts\": "), std::string::npos);
  // Balanced braces/brackets — cheap proxy for "a JSON parser would accept
  // the nesting" without pulling in a parser dependency.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"' && (i == 0 || text[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// ---- tracing is passive ----

class TracePassivityTest : public ::testing::TestWithParam<const char*> {
 protected:
  static PlatformProfile ProfileFor(const std::string& name) {
    if (name == "linux2.2") {
      return PlatformProfile::Linux22();
    }
    if (name == "netbsd1.5") {
      return PlatformProfile::NetBsd15();
    }
    return PlatformProfile::Solaris7();
  }
};

TEST_P(TracePassivityTest, TraceOnAndOffAreBitIdentical) {
  const PlatformProfile profile = ProfileFor(GetParam());
  std::vector<obs::TraceEvent> events;
  const Snapshot off = RunWorkload(profile, /*traced=*/false);
  const Snapshot on = RunWorkload(profile, /*traced=*/true, &events);
  EXPECT_EQ(off.virtual_time, on.virtual_time);
  EXPECT_TRUE(off.stats == on.stats);
  EXPECT_TRUE(off.chaos == on.chaos);
  EXPECT_EQ(off.queue_totals, on.queue_totals);
  EXPECT_GT(off.virtual_time, 0u);
  EXPECT_FALSE(events.empty()) << "traced run recorded nothing";
}

INSTANTIATE_TEST_SUITE_P(Platforms, TracePassivityTest,
                         ::testing::Values("linux2.2", "netbsd1.5", "solaris7"));

// ---- metrics registry ----

TEST(Metrics, HistogramBucketsQuantilesAndMerge) {
  obs::Histogram h;
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(1024), 11);
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Log buckets bound quantile error by 2x.
  EXPECT_GT(h.Quantile(0.5), 250.0);
  EXPECT_LT(h.Quantile(0.5), 1000.0);
  EXPECT_GE(h.Quantile(1.0), h.Quantile(0.0));

  obs::Histogram other;
  other.Record(5000);
  h.Merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_EQ(h.max(), 5000u);
}

TEST(Metrics, RegistryCollectsLiveSources) {
  std::uint64_t counter = 7;
  obs::Histogram hist;
  hist.Record(100);
  obs::MetricsRegistry r;
  r.AddCounter("c", &counter);
  r.AddGauge("g", "unit", [] { return 2.5; });
  r.AddHistogram("h", "ns", &hist);

  auto find = [](const std::vector<obs::MetricsRegistry::Sample>& samples,
                 const std::string& name) -> double {
    for (const auto& s : samples) {
      if (s.name == name) {
        return s.value;
      }
    }
    ADD_FAILURE() << "missing sample " << name;
    return -1.0;
  };

  auto samples = r.Collect();
  EXPECT_EQ(find(samples, "c"), 7.0);
  EXPECT_EQ(find(samples, "g"), 2.5);
  EXPECT_EQ(find(samples, "h.count"), 1.0);

  // Pull model: sources read at Collect time, not registration time.
  counter = 9;
  hist.Record(200);
  samples = r.Collect();
  EXPECT_EQ(find(samples, "c"), 9.0);
  EXPECT_EQ(find(samples, "h.count"), 2.0);
}

TEST(Metrics, MachineRegistryExportsKernelAndDiskCounters) {
  // The Machine pre-binds its Os into its registry at construction; the
  // kernel and per-disk series must be live in it after real work.
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/f", 2 * kMb);
  bool saw_syscalls = false;
  bool saw_disk_hist = false;
  for (const auto& s : machine.metrics().Collect()) {
    if (s.name == "os.syscalls") {
      saw_syscalls = true;
      EXPECT_GT(s.value, 0.0);
    }
    if (s.name == "disk0.service_ns.count") {
      saw_disk_hist = true;
      EXPECT_GT(s.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_syscalls);
  EXPECT_TRUE(saw_disk_hist);
}

}  // namespace
}  // namespace graysim
