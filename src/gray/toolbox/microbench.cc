#include "src/gray/toolbox/microbench.h"

#include <algorithm>
#include <vector>

#include "src/gray/toolbox/stats.h"

namespace gray {

namespace {
constexpr std::uint64_t kMb = 1024 * 1024;
constexpr const char* kScratchDir = "/d0/.graybench";
constexpr std::uint64_t kDiskTestBytes = 128 * kMb;  // the disk measurements' file
constexpr int kRandomProbes = 32;                    // pages timed for random access
constexpr std::uint64_t kSeed = 0x9b5;               // random page and slot choices

double ToMbs(std::uint64_t bytes, Nanos elapsed) {
  if (elapsed == 0) {
    return 0.0;
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0) /
         (static_cast<double>(elapsed) / 1e9);
}
}  // namespace

Microbench::Microbench(SysApi* sys, MicrobenchOptions options)
    : sys_(sys),
      options_(options),
      engine_(sys),
      rng_state_(kSeed | 1) {}

std::uint64_t Microbench::NextRandom() {
  // splitmix64 step — deterministic and dependency-free.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Microbench::EnsureFile(const std::string& name, std::uint64_t bytes) {
  (void)sys_->Mkdir(kScratchDir);
  const std::string path = std::string(kScratchDir) + "/" + name;
  FileInfo info;
  if (sys_->Stat(path, &info) == 0 && info.size >= bytes) {
    return path;
  }
  const int fd = sys_->Creat(path);
  if (fd < 0) {
    return {};
  }
  for (std::uint64_t off = 0; off < bytes; off += kMb) {
    const std::uint64_t n = std::min(kMb, bytes - off);
    if (sys_->Pwrite(fd, n, off) < 0) {
      (void)sys_->Close(fd);
      return {};
    }
  }
  (void)sys_->Fsync(fd);
  (void)sys_->Close(fd);
  return path;
}

void Microbench::PurgeCache() {
  // Reading a file larger than memory through an LRU-like cache leaves
  // (almost) nothing else resident.
  const std::uint64_t purge_bytes = options_.mem_hint_bytes + options_.mem_hint_bytes / 4;
  const std::string path = EnsureFile("purge.dat", purge_bytes);
  if (path.empty()) {
    return;
  }
  const int fd = sys_->Open(path);
  if (fd < 0) {
    return;
  }
  for (std::uint64_t off = 0; off < purge_bytes; off += kMb) {
    (void)sys_->Pread(fd, {}, std::min(kMb, purge_bytes - off), off);
  }
  (void)sys_->Close(fd);
}

double Microbench::MeasureSeqDiskBandwidthMbs() {
  const std::string path = EnsureFile("seq.dat", kDiskTestBytes);
  if (path.empty()) {
    return 0.0;
  }
  PurgeCache();
  const int fd = sys_->Open(path);
  if (fd < 0) {
    return 0.0;
  }
  const Nanos t0 = sys_->Now();
  for (std::uint64_t off = 0; off < kDiskTestBytes; off += kMb) {
    (void)sys_->Pread(fd, {}, kMb, off);
  }
  const Nanos elapsed = sys_->Now() - t0;
  (void)sys_->Close(fd);
  return ToMbs(kDiskTestBytes, elapsed);
}

double Microbench::MeasureRandomPageAccessNs() {
  const std::string path = EnsureFile("seq.dat", kDiskTestBytes);
  if (path.empty()) {
    return 0.0;
  }
  PurgeCache();
  const int fd = sys_->Open(path);
  if (fd < 0) {
    return 0.0;
  }
  const std::uint32_t ps = sys_->PageSize();
  const std::uint64_t pages = kDiskTestBytes / ps;
  std::vector<TimedPread> reqs;
  reqs.reserve(kRandomProbes);
  std::vector<bool> probed(pages, false);
  for (int i = 0; i < kRandomProbes; ++i) {
    std::uint64_t page = NextRandom() % pages;
    while (probed[page]) {
      page = (page + 1) % pages;  // never re-time a page we faulted in
    }
    probed[page] = true;
    reqs.push_back(TimedPread{fd, 1, page * ps});
  }
  std::vector<double> samples;
  for (const ProbeSample& s : engine_.RunPreads(reqs)) {
    samples.push_back(static_cast<double>(s.latency_ns));
  }
  (void)sys_->Close(fd);
  return Median(samples);
}

double Microbench::MeasureMemCopyMbs() {
  const std::uint64_t bytes = 16 * kMb;
  const std::string path = EnsureFile("warm.dat", bytes);
  if (path.empty()) {
    return 0.0;
  }
  const int fd = sys_->Open(path);
  if (fd < 0) {
    return 0.0;
  }
  // First pass warms the cache; second pass measures copy rate.
  for (std::uint64_t off = 0; off < bytes; off += kMb) {
    (void)sys_->Pread(fd, {}, kMb, off);
  }
  const Nanos t0 = sys_->Now();
  for (std::uint64_t off = 0; off < bytes; off += kMb) {
    (void)sys_->Pread(fd, {}, kMb, off);
  }
  const Nanos elapsed = sys_->Now() - t0;
  (void)sys_->Close(fd);
  return ToMbs(bytes, elapsed);
}

double Microbench::MeasureMemTouchNs() {
  const MemHandle h = sys_->MemAlloc(64 * sys_->PageSize());
  if (h == kInvalidMem) {
    return 0.0;
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    sys_->MemTouch(h, i, /*write=*/true);  // fault in
  }
  std::vector<TimedMemTouch> reqs(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    reqs[i] = TimedMemTouch{h, i, true};
  }
  std::vector<double> samples;
  for (const ProbeSample& s : engine_.RunMemTouches(reqs)) {
    samples.push_back(static_cast<double>(s.latency_ns));
  }
  sys_->MemFree(h);
  return Median(samples);
}

double Microbench::MeasureZeroFillNs() {
  const MemHandle h = sys_->MemAlloc(64 * sys_->PageSize());
  if (h == kInvalidMem) {
    return 0.0;
  }
  std::vector<TimedMemTouch> reqs(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    reqs[i] = TimedMemTouch{h, i, true};
  }
  std::vector<double> samples;
  for (const ProbeSample& s : engine_.RunMemTouches(reqs)) {
    samples.push_back(static_cast<double>(s.latency_ns));
  }
  sys_->MemFree(h);
  return Median(samples);
}

double Microbench::MeasureProbeHitNs() {
  const std::uint64_t bytes = kMb;
  const std::string path = EnsureFile("warm.dat", bytes);
  if (path.empty()) {
    return 0.0;
  }
  const int fd = sys_->Open(path);
  if (fd < 0) {
    return 0.0;
  }
  (void)sys_->Pread(fd, {}, bytes, 0);  // warm
  const std::uint32_t ps = sys_->PageSize();
  std::vector<TimedPread> reqs;
  reqs.reserve(bytes / ps);
  for (std::uint64_t p = 0; p < bytes / ps; ++p) {
    reqs.push_back(TimedPread{fd, 1, p * ps});
  }
  std::vector<double> samples;
  for (const ProbeSample& s : engine_.RunPreads(reqs)) {
    samples.push_back(static_cast<double>(s.latency_ns));
  }
  (void)sys_->Close(fd);
  return Median(samples);
}

double Microbench::CalibrateAccessUnitBytes() {
  const std::string path = EnsureFile("seq.dat", kDiskTestBytes);
  if (path.empty()) {
    return 0.0;
  }
  const std::vector<std::uint64_t> units = {1 * kMb, 2 * kMb, 5 * kMb,
                                            10 * kMb, 20 * kMb, 40 * kMb};
  std::vector<double> bandwidth(units.size(), 0.0);
  for (std::size_t u = 0; u < units.size(); ++u) {
    PurgeCache();
    const int fd = sys_->Open(path);
    if (fd < 0) {
      return 0.0;
    }
    const std::uint64_t unit = units[u];
    const std::uint64_t slots = kDiskTestBytes / unit;
    // Read a handful of units at pseudo-random positions: each read pays
    // one seek amortized over `unit` bytes.
    const int reads = static_cast<int>(std::min<std::uint64_t>(4, slots));
    std::uint64_t total = 0;
    const Nanos t0 = sys_->Now();
    for (int i = 0; i < reads; ++i) {
      const std::uint64_t slot = NextRandom() % slots;
      (void)sys_->Pread(fd, {}, unit, slot * unit);
      total += unit;
    }
    const Nanos elapsed = sys_->Now() - t0;
    bandwidth[u] = ToMbs(total, elapsed);
    (void)sys_->Close(fd);
  }
  const double peak = *std::max_element(bandwidth.begin(), bandwidth.end());
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (bandwidth[u] >= 0.9 * peak) {
      return static_cast<double>(units[u]);
    }
  }
  return static_cast<double>(units.back());
}

bool Microbench::RunAll(ParamRepository* repo) {
  if (sys_->Mkdir(kScratchDir) < 0) {
    FileInfo info;
    if (sys_->Stat(kScratchDir, &info) != 0 || !info.is_dir) {
      return false;
    }
  }
  repo->Set(params::kMemTouchNs, MeasureMemTouchNs());
  repo->Set(params::kMemZeroFillNs, MeasureZeroFillNs());
  repo->Set(params::kMemCopyMbs, MeasureMemCopyMbs());
  repo->Set(params::kCacheProbeHitNs, MeasureProbeHitNs());
  repo->Set(params::kDiskSeqBandwidthMbs, MeasureSeqDiskBandwidthMbs());
  repo->Set(params::kDiskRandomAccessNs, MeasureRandomPageAccessNs());
  repo->Set(params::kFccdAccessUnitBytes, CalibrateAccessUnitBytes());
  return true;
}

void Microbench::Cleanup() {
  for (const char* name : {"purge.dat", "seq.dat", "warm.dat"}) {
    (void)sys_->Unlink(std::string(kScratchDir) + "/" + name);
  }
  (void)sys_->Rmdir(kScratchDir);
}

}  // namespace gray
