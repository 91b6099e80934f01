#include "src/gray/classic/cosched.h"

#include <algorithm>
#include <vector>

namespace grayclassic {

namespace {

// Datagram protocol: the low bits carry the iteration, the high bits say
// request or response. Probe pings keep their own marker bit.
constexpr std::uint64_t kReqBit = 1ULL << 40;
constexpr std::uint64_t kRespBit = 1ULL << 41;
constexpr std::uint64_t kIterMask = kReqBit - 1;
constexpr std::uint64_t kMsgBytes = 64;

constexpr gray::Nanos kSpinGrain = 5'000;  // poll granularity while spinning
constexpr std::size_t kBenchmarkPings = 6;
constexpr gray::Nanos kPingTimeout = 5'000'000;
// Post-benchmark settle sleep: ring peers calibrate concurrently, and a
// request landing inside a peer's ping run would be discarded as a stale
// echo. Sleeping past the benchmark skew keeps first requests off that
// window (the resend path would recover anyway, at 20 ms a hit).
constexpr gray::Nanos kSettle = 5'000'000;
// Two-phase spin limit = kSpinMultiplier x rtt estimate, capped.
constexpr double kSpinMultiplier = 8.0;
constexpr gray::Nanos kSpinCap = 2'000'000;  // 2 ms
// Blocked-wait timeout; on expiry the request is re-sent (it may have been
// dropped by interference) up to kMaxResend times before the iteration is
// given up.
constexpr gray::Nanos kBlockTimeout = 100'000'000;  // 100 ms
constexpr int kMaxResend = 20;
// Weight of a new gap in the spin limit's EWMA.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

bool CoschedIcl::Handle(const gray::NetMessage& msg, std::uint64_t want) {
  if ((msg.tag & gray::ProbeEngine::kPingTagMarker) != 0) {
    (void)sys_->NetSend(options_.endpoint, msg.from, msg.bytes, msg.tag);
    return false;
  }
  if ((msg.tag & kReqBit) != 0) {
    // Serve the predecessor immediately — this promptness is exactly the
    // signal implicit coscheduling reads on the other side.
    (void)sys_->NetSend(options_.endpoint, msg.from, kMsgBytes,
                        kRespBit | (msg.tag & kIterMask));
    ++result_.served;
    return false;
  }
  return msg.tag == want;  // stale responses (earlier iterations) fall out
}

void CoschedIcl::DrainInbox(std::uint64_t want, bool* got) {
  gray::NetMessage msg;
  while (!*got && sys_->NetPoll(options_.endpoint) > 0) {
    if (sys_->NetRecv(options_.endpoint, 0, &msg) >= 0) {
      *got = Handle(msg, want);
    }
  }
}

CoschedIclResult CoschedIcl::Run() {
  const gray::Nanos start = sys_->Now();

  // Benchmark the coordinated-case round trip against the echo fiber. The
  // echo fiber blocks in receive, so it is scheduled the moment the ping
  // lands — the "known state" the benchmark requires.
  gray::ProbeEngine engine(sys_);
  {
    std::vector<gray::TimedNetPing> pings(
        kBenchmarkPings,
        gray::TimedNetPing{options_.endpoint, options_.echo_peer, kMsgBytes, kPingTimeout});
    engine.RunNetPings(pings);
  }
  gray::Nanos rtt = engine.latency_stats().count() > 0
                        ? static_cast<gray::Nanos>(engine.latency_stats().mean())
                        : kPingTimeout / 8;
  result_.benchmark_rtt = rtt;
  gap_ewma_ = static_cast<double>(rtt);
  spin_limit_ = std::min(kSpinCap,
                         std::max(rtt, static_cast<gray::Nanos>(
                                           kSpinMultiplier *
                                           static_cast<double>(rtt))));

  sys_->SleepNs(kSettle);  // let every peer finish calibrating

  obs::TraceSink* trace = sys_->Trace();
  gray::NetMessage msg;
  for (int iter = 1; iter <= kIterations; ++iter) {
    // Serve anything that queued up while we were away, then compute.
    bool got = false;
    DrainInbox(0, &got);
    sys_->Compute(kCompute);

    const std::uint64_t tag = kReqBit | static_cast<std::uint64_t>(iter);
    const std::uint64_t want = kRespBit | static_cast<std::uint64_t>(iter);
    gray::Nanos sent_at = sys_->Now();
    (void)sys_->NetSend(options_.endpoint, options_.partner, kMsgBytes, tag);
    int resends = 0;
    bool abandoned = false;  // this wait exhausted kMaxResend
    got = false;

    // Phase 1: spin. Stay on the CPU polling so a prompt response is
    // consumed the instant it lands.
    if (options_.policy != WaitPolicy::kBlockImmediate) {
      const bool forever = options_.policy == WaitPolicy::kSpinForever;
      const gray::Nanos spin_deadline = sys_->Now() + spin_limit_;
      gray::Nanos resend_at = sent_at + kBlockTimeout;
      while (!got) {
        const gray::Nanos now = sys_->Now();
        if (!forever && now >= spin_deadline) {
          break;
        }
        DrainInbox(want, &got);
        if (got) {
          break;
        }
        if (forever && now >= resend_at) {
          // Spin-forever still needs a liveness bound: a dropped request
          // would otherwise spin the fiber to the end of time.
          if (++resends > kMaxResend) {
            abandoned = true;
            break;
          }
          ++result_.resends;
          if (trace != nullptr) {
            trace->Instant(obs::kTrackIcl, "cosched.retry", now, "iter",
                           static_cast<std::uint64_t>(iter));
          }
          sent_at = sys_->Now();
          (void)sys_->NetSend(options_.endpoint, options_.partner, kMsgBytes, tag);
          resend_at = sys_->Now() + kBlockTimeout;
        }
        sys_->Compute(kSpinGrain);
        result_.spin_time += kSpinGrain;
      }
      if (got) {
        ++result_.fast_waits;
        // Recalibrate the spin limit from gaps actually caught spinning —
        // the coordinated-case response time, the only gap worth the burn.
        const double sample = static_cast<double>(sys_->Now() - sent_at);
        gap_ewma_ = kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * gap_ewma_;
        spin_limit_ = std::min(
            kSpinCap,
            std::max(gray::Nanos{1}, static_cast<gray::Nanos>(kSpinMultiplier * gap_ewma_)));
      }
    }

    // Phase 2: block. Release the CPU; the kernel wakes us on delivery.
    if (!got && !abandoned) {
      ++result_.blocks;
      if (trace != nullptr) {
        trace->Instant(obs::kTrackIcl, "cosched.block", sys_->Now(), "iter",
                       static_cast<std::uint64_t>(iter));
      }
      while (!got) {
        if (sys_->NetRecv(options_.endpoint, kBlockTimeout, &msg) >= 0) {
          got = Handle(msg, want);
          continue;
        }
        if (++resends > kMaxResend) {
          abandoned = true;
          break;
        }
        ++result_.resends;
        if (trace != nullptr) {
          trace->Instant(obs::kTrackIcl, "cosched.retry", sys_->Now(), "iter",
                         static_cast<std::uint64_t>(iter));
        }
        (void)sys_->NetSend(options_.endpoint, options_.partner, kMsgBytes, tag);
      }
    }
    result_.gave_up = result_.gave_up || abandoned;
    ++result_.iterations_done;
  }

  result_.elapsed = sys_->Now() - start;
  result_.rtt_estimate = static_cast<gray::Nanos>(gap_ewma_);
  result_.probe_report = engine.report();
  return result_;
}

void CoschedIcl::Linger() {
  gray::NetMessage msg;
  while (sys_->NetRecv(options_.endpoint, kBlockTimeout, &msg) >= 0) {
    (void)Handle(msg, 0);
  }
}

std::uint64_t RunCoschedEcho(gray::SysApi* sys, int endpoint, gray::Nanos idle_timeout) {
  std::uint64_t echoed = 0;
  gray::NetMessage msg;
  while (sys->NetRecv(endpoint, idle_timeout, &msg) >= 0) {
    if ((msg.tag & gray::ProbeEngine::kPingTagMarker) != 0) {
      (void)sys->NetSend(endpoint, msg.from, msg.bytes, msg.tag);
      ++echoed;
    }
  }
  return echoed;
}

}  // namespace grayclassic
