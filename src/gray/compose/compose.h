// Composition of FCCD and FLDC (paper §4.2.4).
//
// The best file order visits in-cache files first, then the rest in on-disk
// layout order. FCCD alone only ranks by probe time and never says which
// files ARE cached, so the composition applies two-group (2-means)
// clustering to the probe times: the fast cluster is predicted in-cache.
// Because predictions can be wrong (e.g. everything is on disk), BOTH groups
// are still sorted by i-number.
#ifndef SRC_GRAY_COMPOSE_COMPOSE_H_
#define SRC_GRAY_COMPOSE_COMPOSE_H_

#include <span>
#include <string>
#include <vector>

#include "src/gray/fccd/fccd.h"
#include "src/gray/fldc/fldc.h"
#include "src/gray/sys_api.h"

namespace gray {

struct ComposedOrder {
  std::vector<std::string> order;
  // True when probe times split into two clear groups.
  bool clustered = false;
  std::size_t predicted_in_cache = 0;
  double cluster_threshold_ns = 0.0;
};

class Compose {
 public:
  explicit Compose(SysApi* sys);

  [[nodiscard]] ComposedOrder OrderFiles(std::span<const std::string> paths);

  [[nodiscard]] Fccd& fccd() { return fccd_; }
  [[nodiscard]] Fldc& fldc() { return fldc_; }
  // Combined observation overhead of both constituent ICLs.
  [[nodiscard]] ProbeReport probe_report() const {
    ProbeReport merged = fccd_.probe_report();
    merged.Merge(fldc_.probe_report());
    return merged;
  }

 private:
  Fccd fccd_;
  Fldc fldc_;
};

}  // namespace gray

#endif  // SRC_GRAY_COMPOSE_COMPOSE_H_
