// File-Cache Content Detector (paper §4.1).
//
// Infers which parts of files are resident in the OS file cache by timing
// carefully chosen 1-byte read probes, then hands applications an access
// plan that visits cached data first.
//
// Design decisions straight from the paper:
//  * one probe per *prediction unit* (default 5 MB) inside each *access
//    unit* (default 20 MB, calibrated by microbenchmark to near-peak disk
//    bandwidth);
//  * probe offsets are RANDOM within the prediction unit, so repeated or
//    concurrent probe phases do not poison each other (§4.1.2);
//  * NO in-cache/on-disk threshold: access units are simply sorted by total
//    probe time, which also orders multi-level storage correctly;
//  * files smaller than one page are never probed (the probe would fault in
//    the whole file — the Heisenberg effect) and get a fake "high" time;
//  * extents can be aligned to an application record size.
#ifndef SRC_GRAY_FCCD_FCCD_H_
#define SRC_GRAY_FCCD_FCCD_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"
#include "src/gray/toolbox/param_repository.h"
#include "src/gray/toolbox/techniques.h"

namespace gray {

struct FccdOptions {
  std::uint64_t access_unit = 20ULL * 1024 * 1024;
  std::uint64_t prediction_unit = 5ULL * 1024 * 1024;
  // Returned extents never split an `align`-byte record (e.g. 100 for the
  // paper's sort).
  std::uint64_t align = 1;
  // 0 = seed the probe-offset generator from the current time. Fixing the
  // seed re-probes identical offsets across runs, which self-poisons: a
  // prior probe phase faults those exact pages in and every later probe
  // "hits" (§4.1.2 — this is why the paper probes a RANDOM byte per unit).
  std::uint64_t seed = 0;
  // Use the mincore(2) interface when the platform has one instead of
  // probing (paper §4.1 footnote 1). Off by default: mincore "is not
  // broadly available and thus cannot be relied upon" — and the probing
  // path is this library's whole point. When a mincore attempt fails, the
  // detector silently falls back to probes, so the same binary stays
  // portable.
  bool try_mincore = false;
  // Interference hardening. When true: transiently failed probes are
  // retried with backoff (ProbeEngine), samples that still fail are excluded
  // from unit totals (a unit with no surviving probe gets kFakeHighTime
  // instead of an error-path latency). When false the detector reproduces
  // the legacy behavior — every latency folds in, failures and all — for
  // A/B comparison under chaos.
  bool hardened = true;
};

struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const Extent&, const Extent&) = default;
};

struct UnitPlan {
  Extent extent;
  Nanos probe_time = 0;  // total time of this unit's probes
  int probes = 0;
};

struct FilePlan {
  std::string path;
  std::uint64_t file_size = 0;
  // Access units in recommended order (fastest probes first).
  std::vector<UnitPlan> units;
  // True when the probe run behind this plan saw a high failure fraction
  // (ProbeEngine::last_run_degraded): the ordering is best-effort and the
  // application should expect mispredictions.
  bool degraded = false;

  // Total bytes covered (== file_size).
  [[nodiscard]] std::uint64_t TotalBytes() const;
};

struct RankedFile {
  std::string path;
  std::uint64_t size = 0;
  Nanos avg_probe_time = 0;  // per-probe average, comparable across sizes
  Nanos total_probe_time = 0;
  int probes = 0;
};

class Fccd {
 public:
  // Reported for sub-page files instead of probing them.
  static constexpr Nanos kFakeHighTime = 250ULL * 1000 * 1000;  // 250 ms

  // `repo` (optional) supplies the calibrated access unit
  // (fccd.access_unit_bytes); explicit options win over the repository.
  explicit Fccd(SysApi* sys, FccdOptions options = FccdOptions{},
                const ParamRepository* repo = nullptr);

  // Probes one file and returns its access plan, or nullopt if the file
  // cannot be opened. The plan's extents partition [0, size).
  [[nodiscard]] std::optional<FilePlan> PlanFile(const std::string& path);

  // Probes each file once per prediction unit and returns the recommended
  // processing order (fastest average probe first). Unopenable files are
  // ranked last.
  [[nodiscard]] std::vector<RankedFile> OrderFiles(std::span<const std::string> paths);

  [[nodiscard]] const FccdOptions& options() const { return options_; }
  [[nodiscard]] const TechniqueUsage& usage() const { return usage_; }
  [[nodiscard]] std::uint64_t probes_issued() const { return probes_issued_; }
  // Observation-overhead accounting for every probe this detector issued.
  [[nodiscard]] const ProbeReport& probe_report() const { return engine_.report(); }
  [[nodiscard]] const ProbeEngine& probe_engine() const { return engine_; }
  // True when the last PlanFile was answered by mincore (no probes, no
  // Heisenberg effect).
  [[nodiscard]] bool last_plan_used_mincore() const { return last_used_mincore_; }

 private:
  // Plans a timed 1-byte read at a random offset within [lo, hi).
  [[nodiscard]] TimedPread ProbeRequest(int fd, std::uint64_t lo, std::uint64_t hi);
  // Executes a probe plan through the engine and updates the counters.
  [[nodiscard]] std::vector<ProbeSample> RunProbes(std::span<const TimedPread> reqs);
  [[nodiscard]] std::uint64_t NextRandom();

  // Builds a plan from a mincore bitmap; nullopt when the interface is
  // unavailable (caller falls back to probing).
  [[nodiscard]] std::optional<FilePlan> PlanFileViaMincore(const std::string& path,
                                                           std::uint64_t size);

  SysApi* sys_;
  FccdOptions options_;
  std::uint64_t rng_state_;
  ProbeEngine engine_;
  std::uint64_t probes_issued_ = 0;
  bool last_used_mincore_ = false;
  TechniqueUsage usage_;
};

}  // namespace gray

#endif  // SRC_GRAY_FCCD_FCCD_H_
