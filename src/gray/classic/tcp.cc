#include "src/gray/classic/tcp.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace grayclassic {

namespace {

constexpr std::uint64_t kPacketBytes = 1024;
// Initial RTT benchmark: ProbeEngine ping run against the receiver (it
// echoes probe-tagged messages).
constexpr std::size_t kBenchmarkPings = 8;
constexpr Nanos kPingTimeout = 5'000'000;  // 5 ms
// Congestion control.
constexpr double kInitialSsthresh = 64.0;
constexpr double kMaxCwnd = 256.0;
// Fast retransmit: this many duplicate cumulative acks mean the packet at
// `base` is gone but later ones are arriving — halve and resend without
// waiting for the RTO (loss inferred from ack pattern, not silence).
constexpr int kDupackThreshold = 3;
constexpr Nanos kMinRto = 1'000'000;  // 1 ms floor (standard tick coarseness)
// Consecutive RTOs after which the estimator has clearly lost the plot and
// is re-benchmarked with a ping run.
constexpr int kRecalibrateAfter = 4;

// An ICL never sees the wire; congestion inference can only clamp what it
// controls. kNever-free local helper: saturating deadline math.
[[nodiscard]] Nanos SaturatingAdd(Nanos a, Nanos b) {
  return b > ~Nanos{0} - a ? ~Nanos{0} : a + b;
}

}  // namespace

void TcpIcl::SendPacket(std::uint64_t seq, bool retransmit) {
  if (sys_->NetSend(options_.endpoint, options_.peer, kPacketBytes, seq) < 0) {
    return;  // backend refused; the RTO path will retry
  }
  ++result_.sent;
  if (retransmit) {
    ++result_.retransmits;
  }
  in_flight_.push_back(InFlight{seq, sys_->Now(), retransmit});
}

void TcpIcl::UpdateRtt(Nanos sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    // Jacobson/Karels: srtt += err/8, rttvar += (|err| - rttvar)/4.
    const auto err = static_cast<std::int64_t>(sample) - static_cast<std::int64_t>(srtt_);
    srtt_ = static_cast<Nanos>(static_cast<std::int64_t>(srtt_) + err / 8);
    const auto abs_err = static_cast<Nanos>(err < 0 ? -err : err);
    rttvar_ += (abs_err - rttvar_) / 4;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
}

void TcpIcl::OnTimeout() {
  ++result_.timeouts;
  ++consecutive_timeouts_;
  if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
    t->Instant(obs::kTrackIcl, "tcp.congestion", sys_->Now(), "cwnd",
               static_cast<std::uint64_t>(cwnd_));
  }
  // Congestion inferred: multiplicative decrease, slow-start restart,
  // go-back-N from the oldest unacked packet.
  ssthresh_ = std::max(2.0, cwnd_ / 2.0);
  cwnd_ = 1.0;
  recover_ = highest_sent_;
  next_ = base_;
  in_flight_.clear();
  // Exponential RTO backoff, capped: doubling without a ceiling is how a
  // loss burst turns into a multi-second stall.
  rto_ = std::min(rto_ * 2, kMaxRto);
}

TcpIclResult TcpIcl::Run() {
  // Benchmark phase: measure the uncontended round trip with probe pings
  // (the receiver echoes anything tagged with the probe marker).
  gray::ProbeEngine engine(sys_);
  const auto bench = [&] {
    std::vector<gray::TimedNetPing> pings(
        kBenchmarkPings,
        gray::TimedNetPing{options_.endpoint, options_.peer, kPacketBytes, kPingTimeout});
    const std::uint64_t before = engine.latency_stats().count();
    engine.RunNetPings(pings);
    if (engine.latency_stats().count() > before) {
      srtt_ = static_cast<Nanos>(engine.latency_stats().mean());
      rttvar_ = std::max(static_cast<Nanos>(engine.latency_stats().stddev()), srtt_ / 4);
      rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
    }
  };
  bench();
  if (rto_ == 0) {
    rto_ = kMinRto * 8;  // no echo came back; start conservative
  }
  ssthresh_ = kInitialSsthresh;

  const Nanos start = sys_->Now();
  end_ = SaturatingAdd(start, kRunFor);
  double cwnd_integral = 0.0;
  Nanos integral_t = start;
  const auto integrate = [&](Nanos now) {
    if (now <= integral_t) {
      return;  // clock already past this point (e.g. final clamp to end_)
    }
    cwnd_integral += cwnd_ * static_cast<double>(now - integral_t);
    integral_t = now;
  };

  gray::NetMessage msg;
  while (sys_->Now() < end_) {
    // Fill the window.
    while (next_ < base_ + static_cast<std::uint64_t>(cwnd_) && sys_->Now() < end_) {
      const bool retransmit = next_ <= highest_sent_;
      SendPacket(next_, retransmit);
      highest_sent_ = std::max(highest_sent_, next_);
      ++next_;
    }
    const Nanos now = sys_->Now();
    if (now >= end_) {
      break;
    }
    // Wait for an ack until the oldest unacked packet's RTO expires.
    const Nanos deadline =
        std::min(end_, in_flight_.empty() ? SaturatingAdd(now, rto_)
                                          : SaturatingAdd(in_flight_.front().sent_at, rto_));
    const std::int64_t rc =
        sys_->NetRecv(options_.endpoint, deadline > now ? deadline - now : 0, &msg);
    if (rc >= 0) {
      if ((msg.tag & gray::ProbeEngine::kPingTagMarker) != 0) {
        continue;  // stale echo of an abandoned benchmark ping
      }
      const std::uint64_t ack = msg.tag;  // cumulative: next expected seq
      if (ack <= base_) {
        // Duplicate ack: the receiver is still seeing traffic but is stuck
        // at `base` — the gray-box read is "that one packet is gone, the
        // path is alive". Halve and go-back-N without waiting out the RTO.
        // Go-back-N resends packets the receiver already has; each one
        // yields another dup-ack. The recovery guard (NewReno) keeps those
        // self-inflicted dup-acks from cascading into more retransmits.
        if (ack == base_ && ++dup_acks_ >= kDupackThreshold &&
            base_ <= highest_sent_ && base_ > recover_) {
          ++result_.fast_retransmits;
          if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
            t->Instant(obs::kTrackIcl, "tcp.fast_rtx", sys_->Now(), "seq", base_);
          }
          integrate(sys_->Now());
          ssthresh_ = std::max(2.0, cwnd_ / 2.0);
          cwnd_ = ssthresh_;
          recover_ = highest_sent_;
          next_ = base_;
          in_flight_.clear();
          dup_acks_ = 0;
        }
        continue;
      }
      dup_acks_ = 0;
      const Nanos ack_now = sys_->Now();
      integrate(ack_now);
      std::uint64_t newly = ack - base_;
      result_.acked += newly;
      // RTT sample off the highest newly acked packet; Karn's rule refuses
      // samples from retransmitted packets, whose ack is ambiguous.
      while (!in_flight_.empty() && in_flight_.front().seq < ack) {
        const InFlight rec = in_flight_.front();
        in_flight_.pop_front();
        if (rec.seq == ack - 1 && !rec.retransmitted) {
          UpdateRtt(ack_now - rec.sent_at);
        }
      }
      consecutive_timeouts_ = 0;
      for (; newly > 0; --newly) {
        cwnd_ = cwnd_ < ssthresh_ ? cwnd_ + 1.0 : cwnd_ + 1.0 / cwnd_;
      }
      cwnd_ = std::min(cwnd_, kMaxCwnd);
      base_ = ack;
    } else if (sys_->Now() >= deadline && deadline < end_) {
      integrate(sys_->Now());
      OnTimeout();
      if (consecutive_timeouts_ >= kRecalibrateAfter) {
        // The estimator has clearly lost the plot (a loss burst, a shifted
        // delay regime): re-benchmark instead of doubling blindly.
        ++result_.recalibrations;
        if (obs::TraceSink* t = sys_->Trace(); t != nullptr) {
          t->Instant(obs::kTrackIcl, "tcp.recalibrate", sys_->Now(), "rto_ns", rto_);
        }
        srtt_ = 0;
        bench();
        if (rto_ == 0) {
          rto_ = kMinRto * 8;
        }
        consecutive_timeouts_ = 0;
      }
    }
    // rc < 0 before the deadline means a transient backend refusal; loop.
  }

  integrate(end_);
  result_.avg_cwnd = integral_t == start
                         ? cwnd_
                         : cwnd_integral / static_cast<double>(integral_t - start);
  result_.srtt = srtt_;
  result_.rto = rto_;
  result_.probe_report = engine.report();
  return result_;
}

TcpReceiverStats RunTcpReceiver(gray::SysApi* sys, int endpoint, Nanos idle_timeout,
                                std::uint64_t ack_bytes) {
  TcpReceiverStats stats;
  std::unordered_map<std::int32_t, std::uint64_t> expected;  // per sender endpoint
  gray::NetMessage msg;
  while (true) {
    if (sys->NetRecv(endpoint, idle_timeout, &msg) < 0) {
      return stats;  // idle long enough: every sender has gone quiet
    }
    if ((msg.tag & gray::ProbeEngine::kPingTagMarker) != 0) {
      (void)sys->NetSend(endpoint, msg.from, msg.bytes, msg.tag);  // echo service
      continue;
    }
    std::uint64_t& next = expected.try_emplace(msg.from, 1).first->second;
    if (msg.tag == next) {
      ++next;
      ++stats.in_order;
      stats.bytes += msg.bytes;
    } else if (msg.tag > next) {
      ++stats.out_of_order;  // a hole: the dup ack below asks for `next`
    }
    (void)sys->NetSend(endpoint, msg.from, ack_bytes, next);  // cumulative ack
  }
}

}  // namespace grayclassic
