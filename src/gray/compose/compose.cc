#include "src/gray/compose/compose.h"

#include <algorithm>
#include <unordered_map>

#include "src/gray/toolbox/stats.h"

namespace gray {

Compose::Compose(SysApi* sys) : fccd_(sys), fldc_(sys) {}

ComposedOrder Compose::OrderFiles(std::span<const std::string> paths) {
  ComposedOrder result;
  if (paths.empty()) {
    return result;
  }

  // Probe times per file (FCCD) and i-numbers (FLDC).
  const std::vector<RankedFile> ranked = fccd_.OrderFiles(paths);
  std::unordered_map<std::string, std::uint64_t> inum_of;
  for (const StatOrderEntry& e : fldc_.OrderByInode(paths)) {
    inum_of[e.path] = e.stat_ok ? e.inum : ~0ULL;
  }

  std::vector<double> times;
  times.reserve(ranked.size());
  for (const RankedFile& rf : ranked) {
    times.push_back(static_cast<double>(rf.avg_probe_time));
  }
  const Clusters clusters = TwoMeans(times);
  result.clustered = clusters.separated;
  result.cluster_threshold_ns = clusters.threshold;

  std::vector<const RankedFile*> cached;
  std::vector<const RankedFile*> uncached;
  for (const RankedFile& rf : ranked) {
    if (clusters.separated && static_cast<double>(rf.avg_probe_time) < clusters.threshold) {
      cached.push_back(&rf);
    } else {
      uncached.push_back(&rf);
    }
  }
  result.predicted_in_cache = cached.size();

  // Predictions may be wrong, so each group is still sorted by i-number.
  const auto by_inum = [&](const RankedFile* a, const RankedFile* b) {
    return inum_of[a->path] < inum_of[b->path];
  };
  std::stable_sort(cached.begin(), cached.end(), by_inum);
  std::stable_sort(uncached.begin(), uncached.end(), by_inum);

  result.order.reserve(paths.size());
  for (const RankedFile* rf : cached) {
    result.order.push_back(rf->path);
  }
  for (const RankedFile* rf : uncached) {
    result.order.push_back(rf->path);
  }
  return result;
}

}  // namespace gray
