#include "src/gray/mac/mac.h"

#include <algorithm>
#include <cassert>

#include "src/gray/toolbox/stats.h"

namespace gray {

namespace {

// Consecutive slow second-loop touches that abort verification (the answer
// is already "does not fit"; finishing would thrash).
constexpr int kConsecutiveSlowAbort = 4;
constexpr int kMaxRetries = 240;                      // give up after ~2 virtual minutes
constexpr Nanos kRetrySleep = 500ULL * 1000 * 1000;  // legacy: 500 ms between retries
// Hardened backoff (MacOptions::hardened).
constexpr int kAbortStreakBackoff = 2;
constexpr Nanos kBackoffInitial = 100ULL * 1000 * 1000;  // 100 ms
constexpr Nanos kBackoffMax = 2000ULL * 1000 * 1000;     // 2 s
constexpr double kBackoffGrowth = 1.5;

}  // namespace

// --- GbAllocation ---

GbAllocation& GbAllocation::operator=(GbAllocation&& other) noexcept {
  if (this != &other) {
    Release();
    sys_ = other.sys_;
    bytes_ = other.bytes_;
    page_size_ = other.page_size_;
    chunks_ = std::move(other.chunks_);
    other.sys_ = nullptr;
    other.bytes_ = 0;
    other.chunks_.clear();
  }
  return *this;
}

GbAllocation::~GbAllocation() { Release(); }

std::uint64_t GbAllocation::PageCount() const {
  std::uint64_t pages = 0;
  for (const Chunk& c : chunks_) {
    pages += c.pages;
  }
  return pages;
}

void GbAllocation::Touch(std::uint64_t index, bool write) {
  for (const Chunk& c : chunks_) {
    if (index < c.pages) {
      sys_->MemTouch(c.handle, index, write);
      return;
    }
    index -= c.pages;
  }
  assert(false && "page index out of range");
}

TimedMemTouch GbAllocation::TouchRequest(std::uint64_t index, bool write) const {
  for (const Chunk& c : chunks_) {
    if (index < c.pages) {
      return TimedMemTouch{c.handle, index, write};
    }
    index -= c.pages;
  }
  assert(false && "page index out of range");
  return TimedMemTouch{};
}

std::vector<TimedMemTouch> GbAllocation::AllTouchRequests(bool write) const {
  std::vector<TimedMemTouch> reqs;
  reqs.reserve(PageCount());
  for (const Chunk& c : chunks_) {
    for (std::uint64_t i = 0; i < c.pages; ++i) {
      reqs.push_back(TimedMemTouch{c.handle, i, write});
    }
  }
  return reqs;
}

void GbAllocation::Release() {
  if (sys_ != nullptr) {
    for (const Chunk& c : chunks_) {
      sys_->MemFree(c.handle);
    }
  }
  chunks_.clear();
  bytes_ = 0;
  sys_ = nullptr;
}

// --- Mac ---

Mac::Mac(SysApi* sys, MacOptions options, const ParamRepository* repo)
    : sys_(sys),
      options_(options),
      engine_(sys) {
  usage_.Record(Technique::kAlgorithmicKnowledge);
  usage_.Describe(Technique::kAlgorithmicKnowledge,
                  "page daemon evicts when the working set exceeds memory; "
                  "writes allocate, reads hit the COW zero page");
  usage_.Describe(Technique::kMonitorOutputs, "per-page write-touch times");
  usage_.Describe(Technique::kStatistics, "median calibration; consecutive-slow runs");
  usage_.Describe(Technique::kMicrobenchmarks, "touch/zero-fill times from repository");
  usage_.Describe(Technique::kProbes, "two-loop page-touch probes");
  usage_.Describe(Technique::kKnownState, "first loop forces pages resident");

  if (repo != nullptr && repo->Has(params::kMemZeroFillNs)) {
    // Anything much slower than an allocate+zero means the page daemon did
    // I/O on our behalf.
    slow_threshold_ =
        static_cast<Nanos>(repo->GetOr(params::kMemZeroFillNs, 3000.0) * 30.0);
    usage_.Record(Technique::kMicrobenchmarks);
  } else {
    SelfCalibrate();
  }
  base_threshold_ = slow_threshold_;
}

void Mac::SelfCalibrate() {
  // First contact without a repository: time first-touch zero-fills of a
  // small allocation (paper §4.3.2, second method).
  const std::uint64_t pages = 64;
  const MemHandle h = sys_->MemAlloc(pages * sys_->PageSize());
  std::vector<TimedMemTouch> reqs(pages);
  for (std::uint64_t i = 0; i < pages; ++i) {
    reqs[i] = TimedMemTouch{h, i, true};
  }
  std::vector<double> samples;
  samples.reserve(pages);
  for (const ProbeSample& s : engine_.RunMemTouches(reqs)) {
    samples.push_back(static_cast<double>(s.latency_ns));
  }
  sys_->MemFree(h);
  const std::vector<double> kept = DiscardOutliers(samples);
  usage_.Record(Technique::kStatistics);
  const double med = Median(kept);
  slow_threshold_ = static_cast<Nanos>(std::max(med * 30.0, 20'000.0));
}

void Mac::Recalibrate() {
  // Consecutive aborted verifications suggest the threshold no longer
  // matches reality — e.g. chaos jitter shifted the baseline touch cost so
  // honest fast touches read as "slow". Re-sample, but clamp against the
  // construction-time threshold: calibrating in the middle of a thrash
  // produces an inflated median, and accepting it unclamped would blind the
  // detector permanently.
  ++metrics_.recalibrations;
  SelfCalibrate();
  slow_threshold_ = std::clamp(slow_threshold_, base_threshold_, base_threshold_ * 4);
  if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
    t->Instant(obs::kTrackIcl, "mac.recalibrate", sys_->Now(), "threshold_ns",
               slow_threshold_);
  }
}

bool Mac::ProbeFits(GbAllocation& allocation) {
  const std::uint64_t pages = allocation.PageCount();
  const Nanos start = sys_->Now();
  usage_.Record(Technique::kProbes, pages);
  usage_.Record(Technique::kKnownState);

  const std::vector<TimedMemTouch> reqs = allocation.AllTouchRequests(/*write=*/true);
  assert(reqs.size() == pages);

  // Loop 1: move to a known state. Touch (write) every page. Times here mix
  // zero-fill, reclaim, and swap-in costs; they cannot prove the chunk
  // fits, but consecutive slow touches reveal page-daemon activity early.
  // Streamed (RunUntil), never batched: the early skip must stop probing.
  int consecutive_slow = 0;
  bool suspicious = false;
  engine_.RunMemTouchesUntil(reqs, [&](std::size_t, const ProbeSample& s) {
    ++metrics_.pages_probed;
    if (s.latency_ns > slow_threshold_) {
      ++metrics_.slow_touches;
      if (++consecutive_slow >= options_.consecutive_slow_skip) {
        suspicious = true;
        ++metrics_.early_skips;
        if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
          t->Instant(obs::kTrackIcl, "mac.early_skip", sys_->Now());
        }
        return false;  // skip straight to the verification loop
      }
    } else {
      consecutive_slow = 0;
    }
    return true;
  });

  // Loop 2: verification. Every page must re-touch fast; slow re-touches
  // mean some of the allocation was selected for replacement. Isolated slow
  // points are scheduling noise (a competitor's timeslice landing inside a
  // timed touch); paging shows up as several slow data points in near
  // succession (paper §4.3.2), because the daemon reclaims LRU runs.
  consecutive_slow = 0;
  std::uint64_t slow = 0;
  bool aborted = false;
  engine_.RunMemTouchesUntil(reqs, [&](std::size_t, const ProbeSample& s) {
    ++metrics_.pages_probed;
    if (s.latency_ns > slow_threshold_) {
      ++metrics_.slow_touches;
      ++slow;
      if (++consecutive_slow >= kConsecutiveSlowAbort) {
        aborted = true;
        return false;  // certainly paging; stop before thrashing further
      }
    } else {
      consecutive_slow = 0;
    }
    return true;
  });
  metrics_.probe_time += sys_->Now() - start;
  if (aborted) {
    ++metrics_.aborted_verifications;
    last_alloc_aborted_ = true;
    if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
      t->Instant(obs::kTrackIcl, "mac.abort", sys_->Now(), "pages", pages);
    }
    return false;
  }
  // No consecutive-slow run: isolated slow touches are tolerated unless
  // they amount to a sustained fraction of the allocation (alternating
  // reclaim patterns). Loop-1 suspicion tightens the fraction.
  const std::uint64_t limit = suspicious ? pages / 100 : pages / 20;
  (void)suspicious;
  return slow <= std::max<std::uint64_t>(limit, 1);
}

std::optional<GbAllocation> Mac::GbAlloc(std::uint64_t min, std::uint64_t max,
                                         std::uint64_t multiple) {
  if (multiple == 0) {
    multiple = sys_->PageSize();
  }
  const std::uint64_t ps = sys_->PageSize();
  auto round_down = [&](std::uint64_t v) { return v / multiple * multiple; };
  auto round_up = [&](std::uint64_t v) { return (v + multiple - 1) / multiple * multiple; };
  min = round_up(std::max<std::uint64_t>(min, 1));
  max = std::max(min, round_down(max));

  GbAllocation result;
  result.sys_ = sys_;
  result.page_size_ = ps;
  last_alloc_aborted_ = false;

  std::uint64_t increment = round_up(options_.initial_increment);
  bool failed_at_initial = false;
  while (result.bytes_ < max) {
    const std::uint64_t want = std::min(round_up(increment), max - result.bytes_);
    const MemHandle h = sys_->MemAlloc(want);
    if (h == kInvalidMem) {
      break;
    }
    result.chunks_.push_back(GbAllocation::Chunk{h, (want + ps - 1) / ps});
    if (ProbeFits(result)) {
      result.bytes_ += want;
      // Grow the increment while things fit (capped), TCP-style.
      increment = std::min(increment * 2, options_.max_increment);
      failed_at_initial = false;
      continue;
    }
    // Too big: free the chunk that pushed us over and back off completely.
    ++metrics_.failed_iterations;
    sys_->MemFree(h);
    result.chunks_.pop_back();
    if (increment <= round_up(options_.initial_increment)) {
      if (failed_at_initial || result.bytes_ >= max) {
        break;
      }
      failed_at_initial = true;
      // One more attempt at the smallest granularity (transient pressure,
      // e.g. a competitor mid-release, may clear).
      continue;
    }
    increment = round_up(options_.initial_increment);
  }

  if (result.bytes_ < min) {
    result.Release();
    return std::nullopt;
  }
  return result;
}

std::optional<GbAllocation> Mac::GbAllocBlocking(std::uint64_t min, std::uint64_t max,
                                                 std::uint64_t multiple) {
  if (!options_.hardened) {
    // Legacy fixed-period loop, kept for A/B comparison under interference.
    // Its failure mode: a fixed 500 ms sleep can lock step with periodic
    // pressure so every retry lands inside the next burst.
    for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
      if (auto result = GbAlloc(min, max, multiple); result.has_value()) {
        return result;
      }
      ++metrics_.retries;
      const Nanos t0 = sys_->Now();
      sys_->SleepNs(kRetrySleep);
      metrics_.wait_time += sys_->Now() - t0;
    }
    return std::nullopt;
  }

  Nanos sleep = kBackoffInitial;
  int abort_streak = 0;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (auto result = GbAlloc(min, max, multiple); result.has_value()) {
      return result;
    }
    if (last_alloc_aborted_) {
      // The estimate collapsed hard (verification thrashed), not a mere
      // shortfall: after a streak, suspect the threshold itself.
      if (++abort_streak >= kAbortStreakBackoff) {
        Recalibrate();
        abort_streak = 0;
      }
    } else {
      abort_streak = 0;
    }
    ++metrics_.retries;
    ++metrics_.backoffs;
    if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
      t->Instant(obs::kTrackIcl, "mac.backoff", sys_->Now(), "sleep_ns", sleep);
    }
    const Nanos t0 = sys_->Now();
    sys_->SleepNs(sleep);
    metrics_.wait_time += sys_->Now() - t0;
    sleep = std::min(static_cast<Nanos>(static_cast<double>(sleep) * kBackoffGrowth),
                     kBackoffMax);
  }
  return std::nullopt;
}

}  // namespace gray
