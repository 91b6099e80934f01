// Memory-based Admission Controller (paper §4.3).
//
// gb_alloc(min, max, multiple) discovers how much memory can be used without
// paging and allocates it atomically; gb_free returns it. The probing
// algorithm is the paper's:
//
//  * memory is probed a page at a time in TWO sequential loops, writing to
//    each page (reads hit the COW zero page and allocate nothing);
//  * the first loop moves the system to a known state — its touch times mix
//    allocation/zeroing/reclaim costs and prove nothing by themselves, but
//    several consecutive slow touches mean the page daemon woke up, and the
//    prober skips straight to the verification loop;
//  * the second loop re-touches every page: if all are fast, nothing was
//    selected for replacement and the chunk fits; slow re-touches mean the
//    allocation exceeded available memory;
//  * the probe size grows conservatively — increments double while things
//    fit, up to a cap, and collapse back to the initial increment on
//    trouble ("analogous to but more conservative than TCP congestion
//    control");
//  * the slow/fast threshold comes from the microbenchmark repository, or
//    from self-calibration on first contact (paper §4.3.2).
//
// Blocking admission: GbAllocBlocking retries with sleeps until the minimum
// is available, which is what serializes competing gb-fastsorts in Fig 7.
#ifndef SRC_GRAY_MAC_MAC_H_
#define SRC_GRAY_MAC_MAC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"
#include "src/gray/toolbox/param_repository.h"
#include "src/gray/toolbox/techniques.h"

namespace gray {

struct MacOptions {
  std::uint64_t initial_increment = 16ULL * 1024 * 1024;
  std::uint64_t max_increment = 64ULL * 1024 * 1024;
  // Consecutive slow first-loop touches that trigger the early skip to the
  // verification loop.
  int consecutive_slow_skip = 4;
  // Interference hardening for the blocking path. Consecutive verification
  // aborts mean the memory estimate collapsed under interference (a shock,
  // a competitor's burst); hammering at a fixed period then thrashes — and
  // can lock step with periodic interference so every retry lands inside
  // the next burst. When true, GbAllocBlocking backs off exponentially
  // (100 ms growing 1.5x per retry, capped at 2 s — growth 1.5 deliberately
  // breaks period-divisibility lockstep) and re-calibrates the slow
  // threshold after two consecutive aborted attempts, clamped to [1x, 4x]
  // of the construction-time threshold so a calibration taken mid-thrash
  // cannot blind the detector. When false, the legacy fixed 500 ms retry
  // loop runs for A/B comparison.
  bool hardened = true;
};

struct MacMetrics {
  std::uint64_t pages_probed = 0;
  std::uint64_t slow_touches = 0;
  std::uint64_t early_skips = 0;       // loop-1 early exits
  std::uint64_t failed_iterations = 0;
  std::uint64_t retries = 0;           // blocking-admission sleeps
  std::uint64_t aborted_verifications = 0;  // loop-2 consecutive-slow aborts
  std::uint64_t backoffs = 0;          // hardened exponential-backoff sleeps
  std::uint64_t recalibrations = 0;    // threshold re-calibrations
  Nanos probe_time = 0;                // time inside probing loops
  Nanos wait_time = 0;                 // time sleeping for admission
};

// RAII result of gb_alloc: owns one or more memory chunks totalling
// `bytes()`. Pages are addressed 0..PageCount()-1 across chunks.
class GbAllocation {
 public:
  GbAllocation() = default;
  GbAllocation(GbAllocation&& other) noexcept { *this = std::move(other); }
  GbAllocation& operator=(GbAllocation&& other) noexcept;
  GbAllocation(const GbAllocation&) = delete;
  GbAllocation& operator=(const GbAllocation&) = delete;
  ~GbAllocation();

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t PageCount() const;
  [[nodiscard]] bool valid() const { return sys_ != nullptr && bytes_ > 0; }

  // Touches logical page `index` (spanning chunks transparently).
  void Touch(std::uint64_t index, bool write = true);
  // The same touch as a timed request for a ProbeEngine run.
  [[nodiscard]] TimedMemTouch TouchRequest(std::uint64_t index, bool write = true) const;
  // All PageCount() touches in logical-page order, one pass over the
  // chunks — equivalent to TouchRequest(0..pages) without the per-index
  // chunk walk that made request building quadratic in chunk count.
  [[nodiscard]] std::vector<TimedMemTouch> AllTouchRequests(bool write = true) const;

  void Release();  // explicit gb_free

 private:
  friend class Mac;
  struct Chunk {
    MemHandle handle = kInvalidMem;
    std::uint64_t pages = 0;
  };

  SysApi* sys_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::uint64_t page_size_ = 0;
  std::vector<Chunk> chunks_;
};

class Mac {
 public:
  explicit Mac(SysApi* sys, MacOptions options = MacOptions{},
               const ParamRepository* repo = nullptr);

  // Non-blocking gb_alloc: returns nullopt when `min` bytes are not
  // currently available without paging.
  [[nodiscard]] std::optional<GbAllocation> GbAlloc(std::uint64_t min, std::uint64_t max,
                                                    std::uint64_t multiple);

  // Blocking variant: sleeps and retries until the minimum is available (or
  // 240 retries, about two virtual minutes, are exhausted, returning nullopt).
  [[nodiscard]] std::optional<GbAllocation> GbAllocBlocking(std::uint64_t min,
                                                            std::uint64_t max,
                                                            std::uint64_t multiple);

  static void GbFree(GbAllocation& allocation) { allocation.Release(); }

  [[nodiscard]] Nanos slow_threshold() const { return slow_threshold_; }
  [[nodiscard]] const MacMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const TechniqueUsage& usage() const { return usage_; }
  // Observation-overhead accounting for every page-touch probe.
  [[nodiscard]] const ProbeReport& probe_report() const { return engine_.report(); }
  [[nodiscard]] const ProbeEngine& probe_engine() const { return engine_; }

 private:
  // Probes every page of the allocation twice (the two loops). True when
  // the footprint fits in available memory.
  [[nodiscard]] bool ProbeFits(GbAllocation& allocation);
  void SelfCalibrate();
  // Re-runs self-calibration mid-flight, clamped against the construction
  // threshold (hardened blocking path only).
  void Recalibrate();

  SysApi* sys_;
  MacOptions options_;
  ProbeEngine engine_;
  Nanos slow_threshold_ = 0;
  Nanos base_threshold_ = 0;  // threshold at construction; recalibration clamp
  bool last_alloc_aborted_ = false;  // any verification abort in the last GbAlloc
  MacMetrics metrics_;
  TechniqueUsage usage_;
};

}  // namespace gray

#endif  // SRC_GRAY_MAC_MAC_H_
