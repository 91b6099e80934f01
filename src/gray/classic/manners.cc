#include "src/gray/classic/manners.h"

#include <algorithm>
#include <vector>

#include "src/gray/toolbox/stats.h"

namespace grayclassic {

namespace {

// Progress-measurement window; must exceed the scheduler slice or a window
// sees only its own turn and contention is invisible.
constexpr gray::Nanos kWindow = 40'000'000;  // 40 ms
constexpr gray::Nanos kUnitCompute = 200'000;  // CPU burn per work unit
constexpr std::uint64_t kBufferPages = 32;     // resident working set
constexpr std::size_t kTouchesPerUnit = 8;     // ProbeEngine-timed page touches
constexpr int kCalibrateWindows = 4;           // uncontended baseline measurement
constexpr double kSuspendThreshold = 0.8;      // suspect contention below this fraction
constexpr int kInitialBackoffWindows = 2;
constexpr int kMaxBackoffWindows = 32;
constexpr double kEwmaAlpha = 0.3;
constexpr std::size_t kSignWindow = 8;  // recent samples kept for the sign test

}  // namespace

void MannersIcl::DoUnit(gray::ProbeEngine* engine, gray::MemHandle buffer) {
  std::vector<gray::TimedMemTouch> touches(kTouchesPerUnit);
  for (auto& t : touches) {
    t = gray::TimedMemTouch{buffer, next_page_, true};
    next_page_ = (next_page_ + 1) % kBufferPages;
  }
  engine->RunMemTouches(touches);
  sys_->Compute(kUnitCompute);
}

MannersIclResult MannersIcl::Run() {
  MannersIclResult result;
  gray::ProbeEngine engine(sys_);
  const gray::MemHandle buffer =
      sys_->MemAlloc(kBufferPages * sys_->PageSize());

  const gray::Nanos start = sys_->Now();
  const gray::Nanos end = start + kRunFor;
  obs::TraceSink* trace = sys_->Trace();

  gray::ExponentialAverage progress(kEwmaAlpha);
  std::vector<double> recent;    // recent progress samples
  std::vector<double> expected;  // paired threshold samples
  double baseline = 0.0;
  int backoff_windows = kInitialBackoffWindows;
  int below_streak = 0;
  int calibrated = 0;
  double calibration_sum = 0.0;

  while (sys_->Now() < end) {
    // One measurement window of work.
    const gray::Nanos w0 = sys_->Now();
    const gray::Nanos w_end = std::min(end, w0 + kWindow);
    std::uint64_t units = 0;
    while (sys_->Now() < w_end) {
      DoUnit(&engine, buffer);
      ++units;
    }
    result.bg_units += units;
    ++result.windows;
    // Normalize short final windows to a full-window rate.
    const gray::Nanos w_len = std::max<gray::Nanos>(1, sys_->Now() - w0);
    const double sample = static_cast<double>(units) *
                          static_cast<double>(kWindow) /
                          static_cast<double>(w_len);

    if (calibrated < kCalibrateWindows) {
      // Known state by construction: the scenario starts the background
      // process before any foreground burst, so the first windows measure
      // the uncontended rate.
      calibration_sum += sample;
      if (++calibrated == kCalibrateWindows) {
        baseline = calibration_sum / static_cast<double>(calibrated);
        result.baseline_rate = baseline;
        result.unit_cost_ns =
            baseline > 0.0 ? static_cast<double>(kWindow) / baseline : 0.0;
      }
      continue;
    }
    if (!options_.governed) {
      continue;  // greedy baseline: measure, never yield
    }

    progress.Add(sample);
    recent.push_back(sample);
    expected.push_back(baseline * kSuspendThreshold);
    if (recent.size() > kSignWindow) {
      recent.erase(recent.begin());
      expected.erase(expected.begin());
    }

    // Contention inference: smoothed progress below the threshold, confirmed
    // statistically (sign test) and by a second consecutive bad window
    // before giving up the CPU.
    const bool below = progress.value() < baseline * kSuspendThreshold;
    bool suspend = false;
    if (below) {
      ++below_streak;
      const gray::SignTestResult sign = gray::SignTest(expected, recent);
      result.sign_test_fired = result.sign_test_fired || sign.significant;
      suspend = below_streak >= 2 && sign.plus > sign.minus;
    } else {
      below_streak = 0;
      backoff_windows = kInitialBackoffWindows;  // healthy again
    }

    if (suspend) {
      ++result.suspensions;
      result.suspended_windows += static_cast<std::uint64_t>(backoff_windows);
      if (trace != nullptr) {
        trace->Instant(obs::kTrackIcl, "manners.suspend", sys_->Now(), "backoff_windows",
                       static_cast<std::uint64_t>(backoff_windows));
      }
      sys_->SleepNs(static_cast<gray::Nanos>(backoff_windows) * kWindow);
      if (trace != nullptr) {
        trace->Instant(obs::kTrackIcl, "manners.resume", sys_->Now());
      }
      backoff_windows = std::min(backoff_windows * 2, kMaxBackoffWindows);
      // Measurements taken before the suspension describe a contended
      // world that may be gone; start the statistics fresh.
      progress = gray::ExponentialAverage(kEwmaAlpha);
      recent.clear();
      expected.clear();
      below_streak = 0;
    }
  }

  sys_->MemFree(buffer);
  result.probe_report = engine.report();
  return result;
}

}  // namespace grayclassic
