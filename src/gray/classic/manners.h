// MS Manners as a gray-box ICL (paper §3, Table 1).
//
// A low-importance background process regulates itself so it only consumes
// resources that are otherwise idle. Gray-box knowledge: "one process
// competing with another usually degrades the progress of the other
// symmetrically to its own" — so by measuring its OWN progress rate against
// a calibrated uncontended baseline, the background process infers that
// someone important is running and suspends itself.
//
// Rebuilt as a kernel citizen: the work units are real scheduler-charged
// computation plus ProbeEngine-timed page touches over a resident buffer,
// progress windows are measured on the virtual clock, and suspension is a
// real sleep that hands the CPU back. Statistics from the original system
// (Table 1): exponential averaging of progress samples and a paired-sample
// sign test against the baseline. The controller is hardened against one
// noisy window (a chaos shock, a jitter spike): the EWMA dip must be
// confirmed by the sign test AND hold for two consecutive windows before it
// suspends.
#ifndef SRC_GRAY_CLASSIC_MANNERS_H_
#define SRC_GRAY_CLASSIC_MANNERS_H_

#include <cstdint>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"

namespace grayclassic {

struct MannersIclOptions {
  // When false, the controller never suspends: the greedy baseline every
  // comparison runs against.
  bool governed = true;
};

struct MannersIclResult {
  std::uint64_t bg_units = 0;           // work units completed
  std::uint64_t windows = 0;            // measurement windows executed
  std::uint64_t suspensions = 0;
  std::uint64_t suspended_windows = 0;  // windows' worth of backoff slept
  bool sign_test_fired = false;         // the statistics confirmed contention
  double baseline_rate = 0.0;           // calibrated units per window
  double unit_cost_ns = 0.0;            // calibrated uncontended cost of one unit
  gray::ProbeReport probe_report;
};

class MannersIcl {
 public:
  // Virtual time Run() works for.
  static constexpr gray::Nanos kRunFor = 4'000'000'000;  // 4 s

  MannersIcl(gray::SysApi* sys, const MannersIclOptions& options)
      : sys_(sys), options_(options) {}

  [[nodiscard]] MannersIclResult Run();

 private:
  // One unit of background work: timed page touches + a compute burn.
  void DoUnit(gray::ProbeEngine* engine, gray::MemHandle buffer);

  gray::SysApi* sys_;
  MannersIclOptions options_;
  std::uint64_t next_page_ = 0;
};

}  // namespace grayclassic

#endif  // SRC_GRAY_CLASSIC_MANNERS_H_
