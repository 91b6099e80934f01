#include "src/gray/mac/governor.h"

#include <algorithm>

namespace gray {

namespace {

constexpr Nanos kBackoffBase = 100ULL * 1000 * 1000;  // 100 ms, jittered by [0.5, 1.5]
constexpr int kMaxRounds = 120;                       // acquisition rounds before giving up

}  // namespace

GbGovernor::GbGovernor(SysApi* sys)
    : sys_(sys), mac_(sys), rng_state_((sys->Now() ^ 0x90b3) | 1) {}

Nanos GbGovernor::NextBackoff() {
  // splitmix64 step for the jittered backoff.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Uniform in [0.5, 1.5] x base: competitors that fail together retry at
  // different times.
  const double factor = 0.5 + static_cast<double>(z % 1000) / 1000.0;
  return static_cast<Nanos>(static_cast<double>(kBackoffBase) * factor);
}

std::optional<std::vector<GbAllocation>> GbGovernor::AcquireAll(
    std::span<const MemRequest> requests) {
  if (requests.empty()) {
    return std::vector<GbAllocation>{};
  }
  for (int round = 0; round < kMaxRounds; ++round) {
    ++metrics_.rounds;
    std::vector<GbAllocation> held;
    held.reserve(requests.size());
    bool all_ok = true;
    for (const MemRequest& request : requests) {
      auto allocation = mac_.GbAlloc(request.min, request.max, request.multiple);
      if (!allocation.has_value()) {
        all_ok = false;
        break;
      }
      held.push_back(std::move(*allocation));
    }
    if (all_ok) {
      return held;
    }
    // Release-on-failure: give EVERYTHING back before waiting, so a peer in
    // the same bind can make progress (the classic deadlock-prevention
    // move the paper cites).
    if (!held.empty()) {
      ++metrics_.partial_releases;
      held.clear();  // RAII releases
    }
    const Nanos backoff = NextBackoff();
    metrics_.backoff_time += backoff;
    sys_->SleepNs(backoff);
  }
  return std::nullopt;
}

std::optional<GbAllocation> GbGovernor::AcquireFair(const MemRequest& request,
                                                    int expected_peers) {
  expected_peers = std::max(1, expected_peers);
  // Discover what is currently obtainable, then keep only a fair share of
  // it. The discovery allocation doubles as the reservation: shrink-in-place
  // by releasing and immediately reacquiring the capped amount (the gap is
  // covered by the backoff loop in case a peer grabs the released memory).
  for (int round = 0; round < kMaxRounds; ++round) {
    ++metrics_.rounds;
    auto probe = mac_.GbAlloc(request.min, request.max, request.multiple);
    if (!probe.has_value()) {
      const Nanos backoff = NextBackoff();
      metrics_.backoff_time += backoff;
      sys_->SleepNs(backoff);
      continue;
    }
    const std::uint64_t discovered = probe->bytes();
    const std::uint64_t fair =
        std::max(request.min, discovered / static_cast<std::uint64_t>(expected_peers));
    if (discovered <= fair) {
      return probe;  // already within the fair share
    }
    probe->Release();
    auto capped = mac_.GbAlloc(request.min, std::min(fair, request.max),
                               request.multiple);
    if (capped.has_value()) {
      return capped;
    }
    ++metrics_.partial_releases;
  }
  return std::nullopt;
}

}  // namespace gray
