// Microbenchmark suite of the gray toolbox (paper §5).
//
// Measures the platform parameters ICLs need — sequential disk bandwidth,
// random page access time, memory copy rate, resident-page touch time,
// zero-fill time, in-cache probe time — strictly through the gray-box
// SysApi, and records them in the shared ParamRepository. Also calibrates
// the FCCD access unit: the smallest request size that achieves near-peak
// disk bandwidth (the paper arrives at 20 MB on its platform).
//
// Like the paper's microbenchmarks, the suite assumes a quiet, dedicated
// system and is expected to run once per platform. It uses the "move the
// system to a known state" control technique: before cold-read measurements
// it purges the file cache by streaming a memory-sized eviction file.
#ifndef SRC_GRAY_TOOLBOX_MICROBENCH_H_
#define SRC_GRAY_TOOLBOX_MICROBENCH_H_

#include <string>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"
#include "src/gray/toolbox/param_repository.h"

namespace gray {

struct MicrobenchOptions {
  // Approximate physical memory; used to size the cache-purging stream.
  std::uint64_t mem_hint_bytes = 896ULL * 1024 * 1024;
};

class Microbench {
 public:
  explicit Microbench(SysApi* sys, MicrobenchOptions options = MicrobenchOptions{});

  // Runs every benchmark and stores the results under the canonical keys.
  // Returns false if the scratch area could not be prepared.
  bool RunAll(ParamRepository* repo);

  // Individual measurements (units noted per key in param_repository.h).
  [[nodiscard]] double MeasureSeqDiskBandwidthMbs();
  [[nodiscard]] double MeasureRandomPageAccessNs();
  [[nodiscard]] double MeasureMemCopyMbs();
  [[nodiscard]] double MeasureMemTouchNs();
  [[nodiscard]] double MeasureZeroFillNs();
  [[nodiscard]] double MeasureProbeHitNs();
  // Smallest access unit reaching >= 90% of the largest tested unit's
  // effective bandwidth.
  [[nodiscard]] double CalibrateAccessUnitBytes();

  // Deletes scratch files.
  void Cleanup();

  // Observation overhead of the whole suite's timed samples.
  [[nodiscard]] const ProbeReport& probe_report() const { return engine_.report(); }

 private:
  // Creates (if needed) a scratch file of `bytes`; returns its path.
  [[nodiscard]] std::string EnsureFile(const std::string& name, std::uint64_t bytes);
  // Streams a memory-sized file through the cache to evict prior contents.
  void PurgeCache();
  [[nodiscard]] std::uint64_t NextRandom();

  SysApi* sys_;
  MicrobenchOptions options_;
  ProbeEngine engine_;
  std::uint64_t rng_state_;
};

}  // namespace gray

#endif  // SRC_GRAY_TOOLBOX_MICROBENCH_H_
