// Span recording and the helpers the three workloads share.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include "bench/alloc_hook.h"
#include "perfbench/graybench.h"
#include "src/os/machine_image_io.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();

std::atomic<bool> g_tracing{false};

// One log per recording thread. Capacity is reserved up front so that
// recording a span does not itself allocate inside the enclosing span and
// show up in its allocation count.
struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int> open;  // indices of the open spans, innermost last
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

thread_local ThreadLog* t_log = nullptr;

ThreadLog& Log() {
  if (t_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(1 << 16);
    log->open.reserve(64);
    const std::lock_guard<std::mutex> lock(g_logs_mu);
    log->thread = static_cast<std::uint32_t>(g_logs.size());
    t_log = log.get();
    g_logs.push_back(std::move(log));
  }
  return *t_log;
}

}  // namespace

std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t op) {
  if (Tracing()) {
    ThreadLog& log = Log();
    Span span;
    span.name = name;
    span.parent = log.open.empty() ? -1 : log.open.back();
    span.thread = log.thread;
    span.op = op;
    index_ = static_cast<int>(log.spans.size());
    log.spans.push_back(span);
    log.open.push_back(index_);
    log.spans.back().allocs = gbench::ThreadAllocSnapshot().allocs;
  }
  start_ns_ = HostNs();
}

Scope::~Scope() { (void)Close(); }

std::int64_t Scope::Close(std::uint64_t units) {
  if (elapsed_ns_ >= 0) {
    return elapsed_ns_;
  }
  const std::int64_t end = HostNs();
  elapsed_ns_ = end - start_ns_;
  if (index_ >= 0) {
    const std::uint64_t allocs = gbench::ThreadAllocSnapshot().allocs;
    Span& span = t_log->spans[static_cast<std::size_t>(index_)];
    span.start_ns = start_ns_;
    span.end_ns = end;
    span.allocs = allocs - span.allocs;
    span.units = units;
    t_log->open.pop_back();
  }
  return elapsed_ns_;
}

std::vector<Span> CollectSpans() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    // Parent indices are per thread; rebase them onto the merged vector.
    const auto base = static_cast<std::int32_t>(all.size());
    for (Span span : log->spans) {
      if (span.parent >= 0) {
        span.parent += base;
      }
      all.push_back(span);
    }
  }
  return all;
}

void Report::AddRepetition(std::uint64_t ops, std::uint64_t failed_ops,
                           const std::vector<double>& ops_host_ms, double work, double wall_s,
                           bool traced) {
  attempted += ops;
  failed += failed_ops;
  op_host_ms.insert(op_host_ms.end(), ops_host_ms.begin(), ops_host_ms.end());
  unit_rate.push_back(work / wall_s);
  unit_p50_ms.push_back(Quantile(ops_host_ms, 0.50));
  unit_p90_ms.push_back(Quantile(ops_host_ms, 0.90));
  unit_traced.push_back(traced);
  if (traced) {
    traced_ops += ops;
    timed_host_s += wall_s;
  }
}

bool BudgetLeft(const Options& options, std::int64_t t0) {
  return static_cast<double>(HostNs() - t0) < options.seconds * 1e9;
}

std::string PinMismatch(const char* what, std::uint64_t got, std::uint64_t want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: digest %#llx, pinned %#llx", what,
                static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
  return buf;
}

void Fnv::Add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xFF;
    state_ *= 0x100000001b3ULL;
  }
}

void AddOsStats(Fnv* fnv, const graysim::OsStats& s) {
  for (const std::uint64_t v :
       {s.syscalls, s.batch_syscalls, s.batched_ops, s.cache_hits, s.cache_misses,
        s.disk_reads, s.disk_writes, s.swap_ins, s.swap_outs, s.readahead_pages,
        s.writeback_pages, s.daemon_wakeups, s.queued_disk_requests, s.net_sends,
        s.net_recvs, s.fsyncs, s.syncfs_calls}) {
    fnv->Add(v);
  }
}

void AddMemStats(Fnv* fnv, const graysim::MemStats& s) {
  for (const std::uint64_t v :
       {s.evictions, s.file_evictions, s.anon_evictions, s.admissions_denied}) {
    fnv->Add(v);
  }
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

std::unique_ptr<graysim::Machine> CheckpointRoundTrip(const graysim::Machine& machine,
                                                      const std::string& path,
                                                      std::uint64_t op,
                                                      std::uint64_t* image_bytes,
                                                      std::string* error) {
  graysim::MachineImage image;
  {
    Scope span("os.snapshot", op);
    image = machine.Snapshot();
  }
  {
    Scope span("image_io.save", op);
    if (!graysim::SaveMachineImage(image, path, error)) {
      return nullptr;
    }
  }
  graysim::MachineImage loaded;
  {
    Scope span("image_io.load", op);
    if (!graysim::LoadMachineImage(path, &loaded, error)) {
      return nullptr;
    }
  }
  std::unique_ptr<graysim::Machine> fork;
  {
    Scope span("os.fork", op);
    fork = graysim::Machine::Fork(loaded);
  }
  if (fork->Now() != machine.Now() || !(fork->os().stats() == machine.os().stats()) ||
      !(fork->os().mem_stats() == machine.os().mem_stats())) {
    *error = "restored machine differs from the one checkpointed";
    return nullptr;
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  *image_bytes = ec ? 0 : size;
  return fork;
}

}  // namespace perfbench
