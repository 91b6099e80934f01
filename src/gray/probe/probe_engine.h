// The shared observation layer of the gray toolbox.
//
// Every ICL in the paper reduces to the same loop — issue a syscall, time
// it, feed the sample to statistics (FCCD times 1-byte reads, MAC times
// page touches, FLDC times stats). The ProbeEngine is that loop, written
// once: it plans, executes, and times probe batches, feeds every sample to
// an incremental RunningStats, and accounts probe overhead (probes issued,
// bytes touched, probe time vs useful-work time) in one place.
//
// Plans run as sub-batches through the SysApi batch calls. A backend with a
// cheap boundary crossing (graysim, vectored I/O) overrides them and pays
// the syscall tax once per batch; on any other backend the SysApi defaults
// loop over the scalar calls with Now() around each — the portable loop
// every UNIX supports, and the paper's literal one.
//
// Early-exit probe loops (MAC's consecutive-slow abort) use RunUntil
// variants, which are inherently sequential: each sample decides whether
// the next probe is issued at all, so they execute one scalar call at a
// time.
#ifndef SRC_GRAY_PROBE_PROBE_ENGINE_H_
#define SRC_GRAY_PROBE_PROBE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/gray/sys_api.h"
#include "src/gray/toolbox/stats.h"
#include "src/obs/metrics.h"

namespace gray {

// --- requests ---

// Time a read of `len` bytes at `offset` (len = 1 is the classic residency
// probe; larger lengths time prefetch-style reads).
struct TimedPread {
  int fd = -1;
  std::uint64_t len = 1;
  std::uint64_t offset = 0;
};

// Time a touch of one page of an anonymous allocation.
struct TimedMemTouch {
  MemHandle handle = kInvalidMem;
  std::uint64_t page_index = 0;
  bool write = true;
};

// Time a stat; the FileInfo comes back alongside the sample.
struct TimedStat {
  std::string path;
};

// Time one network round trip: send `bytes` from `endpoint` to `peer` and
// wait (up to `timeout`) for the peer to echo the same tag back. Requires a
// cooperating echo peer; the sample latency is the full RTT the application
// would see, which is what congestion and co-scheduling inference feed on.
struct TimedNetPing {
  int endpoint = -1;  // our endpoint (the echo lands here)
  int peer = -1;      // echo server's endpoint
  std::uint64_t bytes = 64;
  Nanos timeout = 5'000'000;  // 5 ms
};

// --- results ---

// One timed observation: the elapsed time of the operation (the covert
// channel) and the return code the scalar call would have produced.
struct ProbeSample {
  Nanos latency_ns = 0;
  std::int64_t rc = 0;
};

struct ProbeEngineOptions {
  // Failure-aware retry: a sample whose rc the backend classifies as
  // transient (SysApi::IsTransientError) is re-issued scalar up to this many
  // times, sleeping 200 us, 400 us, ... between attempts so a burst of
  // interference can pass. The backoff sleep is NOT part of the sample
  // latency — only the operation itself is timed. 0 restores the legacy
  // fire-once behavior.
  std::size_t max_retries = 2;
};

// Per-layer accounting of observation overhead. Everything an ICL needs to
// answer "what did probing cost me?" — printed per ICL by
// bench/table2_case_studies.
struct ProbeReport {
  std::uint64_t probes = 0;          // operations issued
  std::uint64_t batches = 0;         // SysApi batch calls made
  std::uint64_t pread_probes = 0;
  std::uint64_t memtouch_probes = 0;
  std::uint64_t stat_probes = 0;
  std::uint64_t net_probes = 0;  // round-trip pings issued
  std::uint64_t failed_probes = 0;   // rc < 0 after retries
  std::uint64_t retried_probes = 0;  // extra attempts issued by retry
  std::uint64_t bytes_touched = 0;   // bytes read + pages touched * page size
  Nanos probe_time = 0;              // virtual time spent inside probes

  // Folds another report in (Compose aggregates its sub-ICLs this way).
  void Merge(const ProbeReport& other);

  // Fraction of `lifetime` spent probing; the remainder is useful work.
  [[nodiscard]] double ProbeShare(Nanos lifetime) const {
    return lifetime == 0 ? 0.0
                         : static_cast<double>(probe_time) / static_cast<double>(lifetime);
  }
};

class ProbeEngine {
 public:
  // Requests per SysApi batch call; bounds per-batch memory and lets long
  // plans interleave with competitors at sub-batch boundaries.
  static constexpr std::size_t kMaxBatch = 256;

  explicit ProbeEngine(SysApi* sys, ProbeEngineOptions options = ProbeEngineOptions{});

  // Executes and times every request, in order; returns one sample per
  // request and feeds each latency to the incremental stats.
  std::vector<ProbeSample> RunPreads(std::span<const TimedPread> reqs);
  std::vector<ProbeSample> RunMemTouches(std::span<const TimedMemTouch> reqs);
  // infos->at(i) is filled when samples[i].rc == 0.
  std::vector<ProbeSample> RunStats(std::span<const TimedStat> reqs,
                                    std::vector<FileInfo>* infos);
  // Round-trip pings, inherently sequential (each ping is an RPC): a timed-
  // out ping is retried with fresh tags under the usual backoff schedule,
  // and stale echoes of abandoned pings are discarded by tag. Requires the
  // backend to support SysApi's net calls; without one, every sample fails.
  std::vector<ProbeSample> RunNetPings(std::span<const TimedNetPing> reqs);

  // Early-exit streaming: issues requests one at a time and calls `visit`
  // with each sample; stops (and stops probing) when visit returns false.
  // Returns the number of requests executed. Sequential by necessity: the
  // sample decides whether the next probe may be issued at all. Templated
  // on the visitor so the per-touch callback inlines — this loop carries
  // hundreds of millions of touches per MAC sweep and an indirect call per
  // sample is measurable.
  template <typename Visit>
  std::size_t RunMemTouchesUntil(std::span<const TimedMemTouch> reqs, Visit&& visit) {
    std::size_t executed = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const ProbeSample sample{
          sys_->MemTouchTimed(reqs[i].handle, reqs[i].page_index, reqs[i].write), 0};
      Account(Kind::kMemTouch, sample);
      ++executed;
      if (!visit(i, sample)) {
        break;
      }
    }
    return executed;
  }

  [[nodiscard]] const ProbeReport& report() const { return report_; }
  // Incremental statistics over every SUCCESSFUL sample since
  // construction/reset. Failed probes (rc < 0) are excluded: an injected
  // EIO's latency measures the kernel's retry loop, not cache state, and
  // folding it in would poison every mean/percentile downstream.
  [[nodiscard]] const RunningStats& latency_stats() const { return latency_stats_; }
  // True when more than a quarter of the last Run* call's samples failed —
  // the per-batch "don't trust this ranking" signal hardened ICLs consult.
  [[nodiscard]] bool last_run_degraded() const { return last_run_degraded_; }
  // Virtual time since construction/reset; report().ProbeShare(lifetime())
  // is the probe-time share of this engine's owner.
  [[nodiscard]] Nanos lifetime() const;
  void Reset();

  [[nodiscard]] SysApi* sys() const { return sys_; }

  // Log-bucketed distribution of every successful sample latency — the
  // richer sibling of latency_stats() (which keeps only moments).
  [[nodiscard]] const obs::Histogram& latency_hist() const { return latency_hist_; }

  // Binds this engine's report counters and latency histogram into
  // `registry` under "<prefix>." names (e.g. "fccd.probes").
  void BindMetrics(obs::MetricsRegistry* registry, const std::string& prefix) const;

  // Ping tags carry this marker so application protocols sharing an
  // endpoint can tell probe echoes from their own traffic — and so echo
  // peers (any loop willing to reflect messages) can tell which incoming
  // tags to bounce straight back.
  static constexpr std::uint64_t kPingTagMarker = 1ULL << 62;

 private:
  enum class Kind { kPread, kMemTouch, kStat, kNetPing };

  // First sleep of the retry backoff; it doubles per attempt.
  static constexpr Nanos kRetryBackoff = 200'000;  // 200 us
  // A run whose (post-retry) failure fraction exceeds this marks the engine
  // degraded for that run — the ICL's cue to distrust the batch wholesale
  // rather than dissect poisoned samples.
  static constexpr double kDegradedFailureFraction = 0.25;

  // One send + echo-wait round trip with a fresh tag.
  ProbeSample PingOnce(const TimedNetPing& req);

  // Accounts one executed sample into the report and incremental stats.
  void Account(Kind kind, const ProbeSample& sample);

  // Re-issues a transiently failed pread/stat scalar with exponential
  // backoff; returns the final sample (retry disabled => the input).
  ProbeSample RetryPread(const TimedPread& req, ProbeSample sample);
  ProbeSample RetryStat(const TimedStat& req, FileInfo* info, ProbeSample sample);
  [[nodiscard]] bool ShouldRetry(const ProbeSample& sample) const {
    return options_.max_retries > 0 && sample.rc < 0 && sys_->IsTransientError(sample.rc);
  }

  // Updates last_run_degraded_ from one run's final samples.
  void NoteRunOutcome(std::span<const ProbeSample> samples);

  SysApi* sys_;
  ProbeEngineOptions options_;
  ProbeReport report_;
  RunningStats latency_stats_;
  obs::Histogram latency_hist_;
  // Backend trace sink (nullptr on real-OS backends); batch spans land on
  // obs::kTrackProbe. Write-only — see SysApi::Trace().
  obs::TraceSink* trace_ = nullptr;
  // PageSize() is a per-machine constant; cached so Account's per-touch
  // bytes_touched bump does not pay a virtual dispatch.
  std::uint64_t page_size_ = 0;
  Nanos created_at_ = 0;
  std::uint64_t next_ping_tag_ = 1;
  bool last_run_degraded_ = false;
};

}  // namespace gray

#endif  // SRC_GRAY_PROBE_PROBE_ENGINE_H_
