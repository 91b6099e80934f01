// File Layout Detector and Controller (paper §4.2).
//
// Detection: on FFS-derived file systems, files created together in one
// directory land in the same cylinder group, and within a clean directory
// i-number order matches data-block layout. FLDC therefore orders file
// accesses by stat()-observed i-number (which subsumes directory grouping),
// falling back to directory grouping alone when asked.
//
// Control: file-system aging destroys the i-number/layout correlation, so
// FLDC can "move the system to a known state" by refreshing a directory —
// the paper's six-step recipe: create a temp dir at the same level, sort
// files (smallest first so large files take late i-numbers), copy in sorted
// order, restore timestamps (so make(1) keeps working), delete the old
// directory, rename the temp into place.
#ifndef SRC_GRAY_FLDC_FLDC_H_
#define SRC_GRAY_FLDC_FLDC_H_

#include <span>
#include <string>
#include <vector>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"
#include "src/gray/toolbox/techniques.h"

namespace gray {

struct FldcOptions {
  // Interference hardening. When true: transiently failed stats are retried
  // with backoff (ProbeEngine), a sweep that still saw failures re-stats
  // just the failed paths once more (a transient EIO would otherwise dump
  // that file at the back of the order). Costs nothing on a clean sweep.
  // When false, the legacy fire-once sweep runs for A/B comparison.
  bool hardened = true;
};

struct StatOrderEntry {
  std::string path;
  std::uint64_t inum = 0;
  std::uint64_t size = 0;
  Nanos mtime = 0;
  bool stat_ok = false;
};

class Fldc {
 public:
  explicit Fldc(SysApi* sys, FldcOptions options = FldcOptions{});

  // Stats every path and returns them ordered by (directory, i-number):
  // i-number sorting within a file system naturally groups directories too,
  // since inodes are allocated per-cylinder-group. Paths that fail stat()
  // keep their relative order at the end.
  [[nodiscard]] std::vector<StatOrderEntry> OrderByInode(std::span<const std::string> paths);

  // Groups paths by parent directory only (the weaker heuristic the paper
  // compares against in Fig 5).
  [[nodiscard]] std::vector<std::string> OrderByDirectory(std::span<const std::string> paths);

  // The LFS port of the detector (paper §4.2.5): on a log-structured file
  // system, writes that occur near one another in time lead to proximity in
  // space — so modification-time order predicts layout where i-number order
  // does not.
  [[nodiscard]] std::vector<StatOrderEntry> OrderByMtime(std::span<const std::string> paths);

  // The control half: rewrites `dir` so that i-number order again matches
  // layout. Returns 0 on success, negative on failure. Smallest files are
  // copied first (paper §4.2.1). The original timestamps are preserved.
  int RefreshDirectory(const std::string& dir);

  [[nodiscard]] const TechniqueUsage& usage() const { return usage_; }
  [[nodiscard]] std::uint64_t stats_issued() const { return stats_issued_; }
  // Observation-overhead accounting for the stat sweeps.
  [[nodiscard]] const ProbeReport& probe_report() const { return engine_.report(); }
  [[nodiscard]] const ProbeEngine& probe_engine() const { return engine_; }

 private:
  // Stats every path through the engine, in order.
  [[nodiscard]] std::vector<StatOrderEntry> StatAll(std::span<const std::string> paths);
  // Returns 0 on success or the first failing call's negative errno-style
  // code (never a bare -1: callers distinguish ENOSPC from EIO).
  int CopyFile(const std::string& from, const std::string& to, std::uint64_t size);

  SysApi* sys_;
  FldcOptions options_;
  ProbeEngine engine_;
  std::uint64_t stats_issued_ = 0;
  TechniqueUsage usage_;
};

// Path helper shared with the gbp tool: parent directory of a path ("" when
// none).
[[nodiscard]] std::string DirnameOf(const std::string& path);

}  // namespace gray

#endif  // SRC_GRAY_FLDC_FLDC_H_
