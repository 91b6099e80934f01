// Shared types of graybench, the graybox benchmark program (see run.py for the command
// line and main.cc for the metrics it prints).
//
// graybench measures every layer from outside: it times the public calls it
// makes into the simulator (Machine construction, Snapshot, Fork,
// RunProcesses, Save/LoadMachineImage, Mac::GbAllocBlocking,
// GbAllocation::Touch, graywork::MakeFile/MakeFileSet,
// grayservice::RunLoadMachine) and reads the counters the simulator already
// exports. Two clocks appear in the output and every metric names its own:
// host time (what running the simulator costs) and virtual time (what the
// simulated machine experiences, bit-identical for a given seed).
#ifndef PERFBENCH_GRAYBENCH_H_
#define PERFBENCH_GRAYBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/machine.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;       // --seed as given
  std::uint64_t root_seed = 0;  // the workload's simulation seed, derived from `seed`
  double seconds = 10.0;        // host-time budget of the timed phase
  bool trace = false;           // record spans and print the per-layer metrics
  int threads = 1;              // host threads for load_steady's fleet
  std::string out_dir;          // checkpoint files, results and span dumps
};

// What one workload run measured. The workload fills it; main.cc turns it
// into the printed end-to-end and per-layer metrics.
struct Report {
  // Timed phase, host clock. An "op" is one RunLoadMachine call
  // (load_steady) or one checkpoint-restore cycle with its wave
  // (ckpt_restart).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_host_ms;  // one entry per op
  // Work completed per host second, one entry per repetition of the
  // workload's deterministic unit (a fleet pass, a chain); the
  // reported ops_per_host_s is their median.
  std::vector<double> unit_rate;
  // Per-op host-time quantiles within each repetition; the reported
  // op_host_ms.p50/.p90 are their medians, so a host stall that slows one
  // repetition does not move the run's tail.
  std::vector<double> unit_p50_ms;
  std::vector<double> unit_p90_ms;
  std::vector<bool> unit_traced;  // which repetitions ran with spans on
  std::uint64_t traced_ops = 0;   // ops inside the traced repetitions
  double timed_host_s = 0.0;      // wall time of the traced repetitions
  int threads = 1;                // host threads the timed phase ran on
  std::uint64_t timed_allocs = 0;  // heap allocations over the whole timed phase
  std::vector<double> setup_s;     // one entry per set-up repetition

  // Virtual clock, from one repetition of the unit (every repetition must
  // reproduce it exactly; `virtual_digest` is what they are compared by).
  std::uint64_t virt_samples = 0;  // requests or cycles
  std::uint64_t virt_ok = 0;       // samples that finished without error
  double virt_p50_ms = 0.0;        // sample latency percentiles
  double virt_p90_ms = 0.0;
  double virt_p99_ms = 0.0;
  double virt_s = 0.0;  // simulated seconds the ok count is taken over
  std::uint64_t virtual_digest = 0;

  // Per-layer values the workload read from the simulator's counters
  // (spans are turned into per-layer numbers by main.cc).
  std::map<std::string, double> layer;

  // Self-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;

  // Records one repetition of the unit: its ops and their host times, the
  // work it completed (requests for load_steady, ops otherwise) and its wall
  // time.
  void AddRepetition(std::uint64_t ops, std::uint64_t failed_ops,
                     const std::vector<double>& ops_host_ms, double work, double wall_s,
                     bool traced);
};

// True while the timed phase that started at host time `t0` has budget left.
[[nodiscard]] bool BudgetLeft(const Options& options, std::int64_t t0);

// "<what>: digest <got>, pinned <want>".
[[nodiscard]] std::string PinMismatch(const char* what, std::uint64_t got, std::uint64_t want);

// ---- spans ----

// Host nanoseconds on the steady clock since the process started.
[[nodiscard]] std::int64_t HostNs();

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index of the enclosing span in the same thread, -1 = none
  std::uint32_t thread = 0;
  std::uint64_t op = 0;        // op id; 0 = set-up
  std::uint64_t allocs = 0;    // heap allocations this thread made inside the span
  std::uint64_t units = 1;     // work items the span covered (pages for a touch loop)
};

// Turns span recording on or off. Only flip it while no Scope is open.
void SetTracing(bool on);
[[nodiscard]] bool Tracing();

// Times one call. With tracing on it also records a span on the calling
// thread, nested under the innermost open Scope of that thread. Spans stay
// in memory until CollectSpans() after the run.
class Scope {
 public:
  Scope(const char* name, std::uint64_t op);
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope();

  // Ends the span (idempotent) and returns its host duration in ns.
  std::int64_t Close(std::uint64_t units = 1);

 private:
  std::int64_t start_ns_;
  std::int64_t elapsed_ns_ = -1;
  int index_ = -1;
};

// Every span recorded so far, thread by thread. Call after all recording
// threads have been joined.
[[nodiscard]] std::vector<Span> CollectSpans();

// ---- helpers shared by the workloads ----

constexpr std::uint64_t kMb = 1024ULL * 1024;

// FNV-1a over 64-bit words, the digest every pin uses.
class Fnv {
 public:
  void Add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void AddOsStats(Fnv* fnv, const graysim::OsStats& s);
void AddMemStats(Fnv* fnv, const graysim::MemStats& s);

[[nodiscard]] double Median(std::vector<double> xs);
// Linear-interpolated quantile of `xs` (q in [0, 1]).
[[nodiscard]] double Quantile(std::vector<double> xs, double q);

// Snapshot -> SaveMachineImage -> LoadMachineImage -> Fork, each timed as
// its own span under op `op`. Returns the fork, or null with *error set when
// the save or load failed or the fork's state differs from `machine`'s.
[[nodiscard]] std::unique_ptr<graysim::Machine> CheckpointRoundTrip(
    const graysim::Machine& machine, const std::string& path, std::uint64_t op,
    std::uint64_t* image_bytes, std::string* error);

// ---- the workloads ----

[[nodiscard]] Report RunLoadSteady(const Options& options);
[[nodiscard]] Report RunCkptRestart(const Options& options);

// Hardened MAC admission rounds on a 512 MB machine under interference 0.5,
// outside any timed phase: records gray.mac spans and fills the gray.mac
// and gray.probe per-layer counters (see mac_probe.cc).
void MacLayerProbe(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_GRAYBENCH_H_
