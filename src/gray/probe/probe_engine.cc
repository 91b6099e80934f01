#include "src/gray/probe/probe_engine.h"

#include <algorithm>

namespace gray {

void ProbeReport::Merge(const ProbeReport& other) {
  probes += other.probes;
  batches += other.batches;
  pread_probes += other.pread_probes;
  memtouch_probes += other.memtouch_probes;
  stat_probes += other.stat_probes;
  net_probes += other.net_probes;
  failed_probes += other.failed_probes;
  retried_probes += other.retried_probes;
  bytes_touched += other.bytes_touched;
  probe_time += other.probe_time;
}

ProbeEngine::ProbeEngine(SysApi* sys, ProbeEngineOptions options)
    : sys_(sys),
      options_(options),
      trace_(sys->Trace()),
      page_size_(sys->PageSize()),
      created_at_(sys->Now()) {}

void ProbeEngine::BindMetrics(obs::MetricsRegistry* registry,
                              const std::string& prefix) const {
  obs::MetricsRegistry& r = *registry;
  r.AddCounter(prefix + ".probes", &report_.probes);
  r.AddCounter(prefix + ".batches", &report_.batches);
  r.AddCounter(prefix + ".pread_probes", &report_.pread_probes);
  r.AddCounter(prefix + ".memtouch_probes", &report_.memtouch_probes);
  r.AddCounter(prefix + ".stat_probes", &report_.stat_probes);
  r.AddCounter(prefix + ".net_probes", &report_.net_probes);
  r.AddCounter(prefix + ".failed_probes", &report_.failed_probes);
  r.AddCounter(prefix + ".retried_probes", &report_.retried_probes);
  r.AddCounter(prefix + ".bytes_touched", &report_.bytes_touched, "bytes");
  r.AddCounter(prefix + ".probe_time_ns", &report_.probe_time, "ns");
  r.AddHistogram(prefix + ".probe_latency_ns", "ns", &latency_hist_);
}

Nanos ProbeEngine::lifetime() const { return sys_->Now() - created_at_; }

ProbeSample ProbeEngine::RetryPread(const TimedPread& req, ProbeSample sample) {
  Nanos backoff = kRetryBackoff;
  for (std::size_t attempt = 0; attempt < options_.max_retries && ShouldRetry(sample);
       ++attempt) {
    sys_->SleepNs(backoff);  // let the interference burst pass; not timed
    backoff *= 2;
    ++report_.retried_probes;
    const Nanos t0 = sys_->Now();
    const std::int64_t rc = sys_->Pread(req.fd, {}, req.len, req.offset);
    sample = ProbeSample{sys_->Now() - t0, rc};
  }
  return sample;
}

ProbeSample ProbeEngine::RetryStat(const TimedStat& req, FileInfo* info,
                                   ProbeSample sample) {
  Nanos backoff = kRetryBackoff;
  for (std::size_t attempt = 0; attempt < options_.max_retries && ShouldRetry(sample);
       ++attempt) {
    sys_->SleepNs(backoff);
    backoff *= 2;
    ++report_.retried_probes;
    const Nanos t0 = sys_->Now();
    const int rc = sys_->Stat(req.path, info);
    sample = ProbeSample{sys_->Now() - t0, rc};
  }
  return sample;
}

void ProbeEngine::NoteRunOutcome(std::span<const ProbeSample> samples) {
  if (samples.empty()) {
    last_run_degraded_ = false;
    return;
  }
  std::size_t failed = 0;
  for (const ProbeSample& s : samples) {
    failed += s.rc < 0 ? 1 : 0;
  }
  last_run_degraded_ = static_cast<double>(failed) >
                       kDegradedFailureFraction * static_cast<double>(samples.size());
}

void ProbeEngine::Reset() {
  report_ = ProbeReport{};
  latency_stats_ = RunningStats{};
  latency_hist_.Reset();
  created_at_ = sys_->Now();
  last_run_degraded_ = false;
}

void ProbeEngine::Account(Kind kind, const ProbeSample& sample) {
  ++report_.probes;
  report_.probe_time += sample.latency_ns;
  if (sample.rc >= 0) {
    // Only successful observations feed the statistics: a failed probe's
    // latency times the error path, not the state being inferred.
    latency_stats_.Add(static_cast<double>(sample.latency_ns));
    latency_hist_.Record(sample.latency_ns);
  }
  switch (kind) {
    case Kind::kPread:
      ++report_.pread_probes;
      if (sample.rc > 0) {
        report_.bytes_touched += static_cast<std::uint64_t>(sample.rc);
      }
      break;
    case Kind::kMemTouch:
      ++report_.memtouch_probes;
      report_.bytes_touched += page_size_;
      break;
    case Kind::kStat:
      ++report_.stat_probes;
      break;
    case Kind::kNetPing:
      ++report_.net_probes;
      if (sample.rc > 0) {
        // Echo received: the payload crossed the wire both ways.
        report_.bytes_touched += 2 * static_cast<std::uint64_t>(sample.rc);
      }
      break;
  }
  if (sample.rc < 0) {
    ++report_.failed_probes;
  }
}

std::vector<ProbeSample> ProbeEngine::RunPreads(std::span<const TimedPread> reqs) {
  std::vector<ProbeSample> samples(reqs.size());
  std::vector<PreadOp> ops;
  std::vector<BatchResult> results;
  for (std::size_t start = 0; start < reqs.size(); start += kMaxBatch) {
    const std::size_t n = std::min(kMaxBatch, reqs.size() - start);
    ops.resize(n);
    results.assign(n, BatchResult{});
    for (std::size_t i = 0; i < n; ++i) {
      ops[i] = PreadOp{reqs[start + i].fd, reqs[start + i].len, reqs[start + i].offset};
    }
    const bool traced = trace_ != nullptr && trace_->enabled();
    const Nanos t0 = traced ? sys_->Now() : 0;
    sys_->PreadBatch(ops, results);
    ++report_.batches;
    if (traced) {
      trace_->Complete(obs::kTrackProbe, "pread.batch", t0, sys_->Now() - t0, "probes", n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      samples[start + i] =
          RetryPread(reqs[start + i], ProbeSample{results[i].latency_ns, results[i].rc});
      Account(Kind::kPread, samples[start + i]);
    }
  }
  NoteRunOutcome(samples);
  return samples;
}

std::vector<ProbeSample> ProbeEngine::RunMemTouches(std::span<const TimedMemTouch> reqs) {
  std::vector<ProbeSample> samples(reqs.size());
  std::vector<MemTouchOp> ops;
  std::vector<BatchResult> results;
  for (std::size_t start = 0; start < reqs.size(); start += kMaxBatch) {
    const std::size_t n = std::min(kMaxBatch, reqs.size() - start);
    ops.resize(n);
    results.assign(n, BatchResult{});
    for (std::size_t i = 0; i < n; ++i) {
      ops[i] = MemTouchOp{reqs[start + i].handle, reqs[start + i].page_index,
                          reqs[start + i].write};
    }
    const bool traced = trace_ != nullptr && trace_->enabled();
    const Nanos t0 = traced ? sys_->Now() : 0;
    sys_->MemTouchBatch(ops, results);
    ++report_.batches;
    if (traced) {
      trace_->Complete(obs::kTrackProbe, "memtouch.batch", t0, sys_->Now() - t0, "probes", n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      samples[start + i] = ProbeSample{results[i].latency_ns, results[i].rc};
      Account(Kind::kMemTouch, samples[start + i]);
    }
  }
  last_run_degraded_ = false;
  return samples;
}

std::vector<ProbeSample> ProbeEngine::RunStats(std::span<const TimedStat> reqs,
                                               std::vector<FileInfo>* infos) {
  std::vector<ProbeSample> samples(reqs.size());
  infos->assign(reqs.size(), FileInfo{});
  std::vector<std::string> paths;
  std::vector<BatchResult> results;
  for (std::size_t start = 0; start < reqs.size(); start += kMaxBatch) {
    const std::size_t n = std::min(kMaxBatch, reqs.size() - start);
    paths.resize(n);
    results.assign(n, BatchResult{});
    for (std::size_t i = 0; i < n; ++i) {
      paths[i] = reqs[start + i].path;
    }
    const bool traced = trace_ != nullptr && trace_->enabled();
    const Nanos t0 = traced ? sys_->Now() : 0;
    sys_->StatBatch(paths, std::span<FileInfo>(infos->data() + start, n), results);
    ++report_.batches;
    if (traced) {
      trace_->Complete(obs::kTrackProbe, "stat.batch", t0, sys_->Now() - t0, "probes", n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      samples[start + i] =
          RetryStat(reqs[start + i], &(*infos)[start + i],
                    ProbeSample{results[i].latency_ns, results[i].rc});
      Account(Kind::kStat, samples[start + i]);
    }
  }
  NoteRunOutcome(samples);
  return samples;
}

ProbeSample ProbeEngine::PingOnce(const TimedNetPing& req) {
  const std::uint64_t tag = kPingTagMarker | next_ping_tag_++;
  const Nanos t0 = sys_->Now();
  std::int64_t rc = sys_->NetSend(req.endpoint, req.peer, req.bytes, tag);
  if (rc < 0) {
    return ProbeSample{sys_->Now() - t0, rc};
  }
  const Nanos deadline = t0 + req.timeout;
  NetMessage msg;
  while (true) {
    const Nanos now = sys_->Now();
    rc = sys_->NetRecv(req.endpoint, now < deadline ? deadline - now : 0, &msg);
    if (rc < 0 || msg.tag == tag) {
      return ProbeSample{sys_->Now() - t0, rc};
    }
    // A stale echo of an earlier, abandoned ping: discard and keep waiting
    // on the same deadline.
  }
}

std::vector<ProbeSample> ProbeEngine::RunNetPings(std::span<const TimedNetPing> reqs) {
  std::vector<ProbeSample> samples(reqs.size());
  const bool traced = trace_ != nullptr && trace_->enabled();
  const Nanos run_t0 = traced ? sys_->Now() : 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ProbeSample sample = PingOnce(reqs[i]);
    Nanos backoff = kRetryBackoff;
    for (std::size_t attempt = 0; attempt < options_.max_retries && ShouldRetry(sample);
         ++attempt) {
      sys_->SleepNs(backoff);  // let the loss burst pass; not timed
      backoff *= 2;
      ++report_.retried_probes;
      sample = PingOnce(reqs[i]);
    }
    samples[i] = sample;
    Account(Kind::kNetPing, sample);
  }
  if (traced && !reqs.empty()) {
    trace_->Complete(obs::kTrackProbe, "netping.run", run_t0, sys_->Now() - run_t0, "probes",
                     reqs.size());
  }
  NoteRunOutcome(samples);
  return samples;
}

}  // namespace gray
