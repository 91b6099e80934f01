// Implicit coscheduling as a gray-box ICL (paper §3, Table 1).
//
// Fine-grain parallel processes on an independently scheduled system infer
// remote scheduling state from message timing: a prompt response means the
// partner is scheduled; a missing one means it probably is not. The control
// action is the two-phase waiting policy — spin for about a round trip
// (staying scheduled so the response is consumed the instant it lands),
// then block and release the CPU to local competitors.
//
// Rebuilt as a kernel citizen: each process runs on a simulated-OS fiber,
// requests and responses are real datagrams through SysApi (charged through
// the turnstile), and the spin limit comes from a ProbeEngine round-trip
// benchmark against a known-scheduled echo fiber (Table 1's "Benchmarks"
// row: "round-trip time", "Known state: required for benchmarks"). It is
// hardened against interference: a blocked wait that times out re-sends its
// request, and the spin limit is recalibrated from the gaps actually caught
// while spinning.
#ifndef SRC_GRAY_CLASSIC_COSCHED_H_
#define SRC_GRAY_CLASSIC_COSCHED_H_

#include <cstdint>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"

namespace grayclassic {

enum class WaitPolicy : std::uint8_t { kBlockImmediate, kSpinForever, kTwoPhase };

struct CoschedIclOptions {
  int endpoint = -1;     // ours (requests from the predecessor land here too)
  int partner = -1;      // ring successor: we request from it
  int echo_peer = -1;    // known-scheduled echo fiber for the RTT benchmark
  WaitPolicy policy = WaitPolicy::kTwoPhase;
};

struct CoschedIclResult {
  std::uint64_t iterations_done = 0;
  gray::Nanos elapsed = 0;      // Run() wall time on the virtual clock
  gray::Nanos spin_time = 0;    // CPU burned polling
  std::uint64_t blocks = 0;     // times the process gave up the CPU
  std::uint64_t fast_waits = 0; // responses caught during the spin phase
  std::uint64_t resends = 0;    // timeout recoveries
  std::uint64_t served = 0;     // partner requests answered
  bool gave_up = false;         // a wait exhausted its resends
  gray::Nanos rtt_estimate = 0; // final spin-limit basis (gap EWMA)
  gray::Nanos benchmark_rtt = 0; // uncontended probe-run round trip
  gray::ProbeReport probe_report;
};

// One ring process. Construct per fiber, call Run(); partners must run
// concurrently (each serves its predecessor while waiting on its
// successor). RunCoschedEcho is the benchmark echo fiber.
class CoschedIcl {
 public:
  // Compute/communicate rounds per Run().
  static constexpr int kIterations = 200;
  // Per-iteration compute.
  static constexpr gray::Nanos kCompute = 50'000;  // 50 us

  CoschedIcl(gray::SysApi* sys, const CoschedIclOptions& options)
      : sys_(sys), options_(options) {}

  [[nodiscard]] CoschedIclResult Run();

  // Serve the predecessor's stragglers after Run(): a ring peer may still
  // be a few iterations behind and needs responses. Returns once the ring
  // has been quiet for one blocked-wait timeout. Harnesses call this after
  // recording Run()'s result so job-time accounting excludes the tail.
  void Linger();

 private:
  // Handles one inbound message; returns true when it was the response we
  // are waiting for (tag == want).
  bool Handle(const gray::NetMessage& msg, std::uint64_t want);
  // Drains everything already delivered without blocking.
  void DrainInbox(std::uint64_t want, bool* got);

  gray::SysApi* sys_;
  CoschedIclOptions options_;
  CoschedIclResult result_;
  gray::Nanos spin_limit_ = 0;
  double gap_ewma_ = 0.0;
};

// Echo fiber: reflects probe pings until `idle_timeout` passes quietly.
// Returns the number of messages echoed.
std::uint64_t RunCoschedEcho(gray::SysApi* sys, int endpoint, gray::Nanos idle_timeout);

}  // namespace grayclassic

#endif  // SRC_GRAY_CLASSIC_COSCHED_H_
