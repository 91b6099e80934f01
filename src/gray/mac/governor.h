// GbGovernor — the higher-level MAC interface (paper §4.3.2).
//
// Raw gb_alloc can deadlock: "if two applications each allocate half of
// memory and then try to allocate more memory before releasing their
// initial memory, neither will ever be able to complete. Classic solutions
// for deadlock prevention, such as allocating all required memory at once
// or releasing memory if an allocation fails, solve this problem. In the
// future, we plan to investigate higher-level interfaces that will both
// hide this complexity and help provide fair allocation across competing
// processes."
//
// The governor implements exactly those two classic solutions on top of
// Mac:
//  * AcquireAll — all-or-nothing multi-request acquisition: on partial
//    failure everything is released before backing off (no hold-and-wait,
//    hence no deadlock) with randomized backoff (no lockstep livelock);
//  * AcquireFair — single acquisition whose maximum is capped to a fair
//    share of discoverable memory given an expected number of peers.
#ifndef SRC_GRAY_MAC_GOVERNOR_H_
#define SRC_GRAY_MAC_GOVERNOR_H_

#include <optional>
#include <span>
#include <vector>

#include "src/gray/mac/mac.h"
#include "src/gray/sys_api.h"

namespace gray {

struct MemRequest {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t multiple = 0;  // 0 = page size
};

struct GovernorMetrics {
  std::uint64_t rounds = 0;
  std::uint64_t partial_releases = 0;  // times we gave everything back
  Nanos backoff_time = 0;
};

class GbGovernor {
 public:
  // The backoff jitter is seeded from the clock.
  explicit GbGovernor(SysApi* sys);

  // Acquires every request or nothing. Deadlock-free: a partial acquisition
  // is never held across a wait. Returns nullopt after 120 rounds.
  [[nodiscard]] std::optional<std::vector<GbAllocation>> AcquireAll(
      std::span<const MemRequest> requests);

  // Fair single acquisition: the request's max is capped at (discoverable
  // memory / expected_peers), so one early process cannot starve the rest.
  [[nodiscard]] std::optional<GbAllocation> AcquireFair(const MemRequest& request,
                                                        int expected_peers);

  [[nodiscard]] const GovernorMetrics& metrics() const { return metrics_; }
  [[nodiscard]] Mac& mac() { return mac_; }

 private:
  [[nodiscard]] Nanos NextBackoff();

  SysApi* sys_;
  Mac mac_;
  GovernorMetrics metrics_;
  std::uint64_t rng_state_;
};

}  // namespace gray

#endif  // SRC_GRAY_MAC_GOVERNOR_H_
