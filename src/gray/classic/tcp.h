// TCP congestion control as a gray-box ICL (paper §3, Table 1).
//
// The sender combines algorithmic knowledge of the network ("the network
// drops packets when there is congestion") with observations (time before
// an ACK arrives) to infer hidden state (congestion) and control its send
// rate — Tahoe-style AIMD with slow start and go-back-N retransmission.
// Unlike the closed-form tick simulation this replaces, the ICL is a real
// gray-box client: it talks to the kernel's simulated link exclusively
// through SysApi's datagram calls, benchmarks the round-trip time with a
// ProbeEngine ping run (Table 1's "Benchmarks" row for TCP is "none"; the
// rebuild adds one, which is exactly the paper's point about what the
// toolbox contributes), and estimates RTO with Jacobson's mean/variance
// filter (Table 1's "Statistics" row). It is hardened against a lost
// estimator: Karn's rule (never sample RTT off a retransmitted packet), a
// kMaxRto ceiling on the backoff, and a ping-run recalibration after four
// consecutive RTOs instead of doubling forever.
//
// The cautionary tale survives the rebuild: over a "wireless" link (random
// non-congestion loss) the very same inference misreads loss as congestion
// and collapses the window for no reason — misidentified gray-box knowledge
// fails in new environments.
#ifndef SRC_GRAY_CLASSIC_TCP_H_
#define SRC_GRAY_CLASSIC_TCP_H_

#include <cstdint>
#include <deque>

#include "src/gray/probe/probe_engine.h"
#include "src/gray/sys_api.h"

namespace grayclassic {

using gray::Nanos;

struct TcpIclOptions {
  int endpoint = -1;  // our endpoint (acks land here)
  int peer = -1;      // receiver's endpoint
};

struct TcpIclResult {
  std::uint64_t acked = 0;          // packets cumulatively acknowledged
  std::uint64_t sent = 0;           // data packets put on the wire
  std::uint64_t retransmits = 0;    // go-back-N resends
  std::uint64_t timeouts = 0;       // window collapses (congestion inferred)
  std::uint64_t fast_retransmits = 0;  // dup-ack-triggered halvings
  std::uint64_t recalibrations = 0; // ping-run re-benchmarks
  double avg_cwnd = 0.0;            // time-averaged congestion window
  Nanos srtt = 0;                   // final smoothed RTT estimate
  Nanos rto = 0;                    // final retransmission timeout
  gray::ProbeReport probe_report;   // the RTT benchmark's accounting
};

// One sender. Construct with the endpoints, call Run() from the sending
// process; the receiver side is RunTcpReceiver below (a different process).
class TcpIcl {
 public:
  // Run until this much virtual time has elapsed, then stop sending; acked
  // packets within the window are what goodput is measured over.
  static constexpr Nanos kRunFor = 200'000'000;  // 200 ms
  // Ceiling of the exponential RTO backoff.
  static constexpr Nanos kMaxRto = 100'000'000;  // 100 ms

  TcpIcl(gray::SysApi* sys, const TcpIclOptions& options) : sys_(sys), options_(options) {}

  [[nodiscard]] TcpIclResult Run();

 private:
  struct InFlight {
    std::uint64_t seq = 0;
    Nanos sent_at = 0;
    bool retransmitted = false;
  };

  void SendPacket(std::uint64_t seq, bool retransmit);
  void UpdateRtt(Nanos sample);
  void OnTimeout();

  gray::SysApi* sys_;
  TcpIclOptions options_;
  TcpIclResult result_;

  std::uint64_t base_ = 1;  // oldest unacked sequence number
  std::uint64_t next_ = 1;  // next sequence number to send
  std::uint64_t highest_sent_ = 0;
  std::uint64_t recover_ = 0;  // NewReno guard: ignore dup-acks below this
  double cwnd_ = 1.0;
  double ssthresh_ = 0.0;
  Nanos srtt_ = 0;
  Nanos rttvar_ = 0;
  Nanos rto_ = 0;
  int consecutive_timeouts_ = 0;
  int dup_acks_ = 0;
  std::deque<InFlight> in_flight_;
  Nanos end_ = 0;
};

// Receiver stats: what landed, in order and out of it.
struct TcpReceiverStats {
  std::uint64_t in_order = 0;    // packets accepted at the expected seq
  std::uint64_t out_of_order = 0;  // arrivals past a hole (dup-acked)
  std::uint64_t bytes = 0;       // payload bytes of in-order packets
};

// The cooperating receiver loop: per-sender cumulative acks (the ack's tag
// is the next expected sequence number) plus echo service for probe pings.
// Returns when `idle_timeout` passes without traffic — after every sender
// has gone quiet.
TcpReceiverStats RunTcpReceiver(gray::SysApi* sys, int endpoint, Nanos idle_timeout,
                                std::uint64_t ack_bytes = 40);

}  // namespace grayclassic

#endif  // SRC_GRAY_CLASSIC_TCP_H_
