// Simulated network link: SimDevice serialization + latency/loss/reorder.
//
// One NetDevice models one shared link (think: the machine's NIC plus the
// first-hop router). Messages between endpoints serialize through a
// SimDevice in FCFS order — that busy-timeline queueing is what a
// congestion-inferring ICL observes — then spend a propagation latency in
// flight before landing in the destination endpoint's inbox. Loss comes
// from three places, each visible in its own counter: random per-message
// drops (the "wireless" knob), tail drops when the bounded router queue is
// full, and RED early drops as the queue fills. All randomness comes from
// one dedicated RNG stream (NetSchedule::seed), drawn in a fixed order per
// Send regardless of outcome, so runs replay bit-identically and the
// kernel's jitter/tie streams never shift.
//
// Blocking lives in the Os (NetRecv sleeps on the scheduler); NetDevice
// itself is non-blocking and synchronous with the event queue.
#ifndef SRC_NET_NET_DEVICE_H_
#define SRC_NET_NET_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/net/net_schedule.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_device.h"

namespace graysim {

// One delivered message, as seen by the receiver.
struct NetMessage {
  std::int32_t from = -1;     // sender endpoint id
  std::uint64_t bytes = 0;    // payload size
  std::uint64_t tag = 0;      // opaque application tag (seq/ack number)
  std::uint64_t seq = 0;      // device-global send sequence number
  Nanos sent_at = 0;          // virtual time the send was submitted

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("from", s.from);
    v("bytes", s.bytes);
    v("tag", s.tag);
    v("seq", s.seq);
    v("sent_at", s.sent_at);
  }
};

class NetDevice : private SimDevice::ServiceModel {
 public:
  // Chaos hooks, installed by the Os while a FaultPlan is armed. The drop
  // hook draws from the chaos stream and returns true to swallow the
  // message; the delay scale multiplies propagation latency (square-wave
  // congestion windows). Both are null when chaos is off.
  using DropHook = std::function<bool()>;
  using DelayScale = std::function<double(Nanos)>;

  struct Endpoint {
    std::deque<NetMessage> inbox;
    std::vector<Nanos> in_flight;  // scheduled arrival times, unsorted
    // Set by CrashReset: the endpoint died with the machine. A receiver
    // blocked on (or later handed) a closed endpoint fails ECONNRESET-style
    // instead of waiting for traffic that can never arrive.
    bool closed = false;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("inbox", s.inbox);
      v("in_flight", s.in_flight);
      v("closed", s.closed);
    }
  };

  NetDevice(const NetSchedule& schedule, SimClock* clock, EventQueue* events);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  // Endpoints are small integer handles; the Os hands them to processes.
  int CreateEndpoint();
  [[nodiscard]] int num_endpoints() const { return static_cast<int>(endpoints_.size()); }

  // Submits a message. Returns the scheduled delivery time, or 0 when the
  // message was dropped (loss is silent to the sender, as on a real
  // datagram socket — inferring *why* is the ICLs' job).
  Nanos Send(int from, int to, std::uint64_t bytes, std::uint64_t tag);

  // Pops the oldest delivered message; false when the inbox is empty.
  bool Recv(int endpoint, NetMessage* out);

  [[nodiscard]] bool Closed(int endpoint) const {
    return endpoints_[static_cast<std::size_t>(endpoint)].closed;
  }

  // Crash-stop teardown: every endpoint's volatile state dies — queued
  // inbox messages, in-flight arrival bookkeeping (the delivery events
  // themselves were discarded wholesale) — and the endpoint is marked
  // closed. The link device's queue collapses alongside. Counters survive:
  // they are observability, and a restarted run keeps accumulating.
  void CrashReset(Nanos now);

  // Delivered-and-unread messages waiting at `endpoint`.
  [[nodiscard]] std::uint64_t Pending(int endpoint) const {
    return endpoints_[static_cast<std::size_t>(endpoint)].inbox.size();
  }

  // Earliest known arrival time of an in-flight message headed to
  // `endpoint`; EventQueue::kNever when nothing is in flight. The Os uses
  // this to sleep a blocked NetRecv precisely instead of polling.
  [[nodiscard]] Nanos EarliestArrival(int endpoint) const;

  // --- counters (cumulative) ---
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return loss_drops_ + congestion_drops_ + red_drops_ + chaos_drops_;
  }
  [[nodiscard]] std::uint64_t loss_drops() const { return loss_drops_; }
  [[nodiscard]] std::uint64_t congestion_drops() const { return congestion_drops_; }
  [[nodiscard]] std::uint64_t red_drops() const { return red_drops_; }
  [[nodiscard]] std::uint64_t chaos_drops() const { return chaos_drops_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }

  // Send-to-delivery times (ns) of delivered messages. Alloc-free.
  [[nodiscard]] const obs::Histogram& delivery_hist() const { return delivery_hist_; }

  // The underlying link queue (busy timeline, depth, service histogram).
  [[nodiscard]] const SimDevice& link() const { return link_; }
  // Mutable access for snapshot restore: a captured link completion event
  // (kDeviceCompletion, dev == -1) is rebuilt against this device.
  [[nodiscard]] SimDevice& link_mutable() { return link_; }

  void set_trace(obs::TraceSink* trace, std::uint32_t track) {
    trace_ = trace;
    track_ = track;
    link_.set_trace(trace, track);
  }

  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }
  void set_delay_scale(DelayScale scale) { delay_scale_ = std::move(scale); }

  [[nodiscard]] const NetSchedule& schedule() const { return schedule_; }

  // --- Snapshot surface ----------------------------------------------
  // Everything simulation-visible as pure data: the link-device timeline,
  // the mid-sequence RNG (the fixed three-draw-per-Send order means a
  // reseeded stream would re-decide every later loss/RED/reorder), inboxes
  // and in-flight arrival times, and the counters. In-flight deliveries
  // themselves live in the event image as kNetDeliver descriptors —
  // RestoreState must therefore never re-push in_flight entries (the copied
  // endpoints already hold them).
  struct State {
    SimDevice::State link;
    Rng::State rng;
    std::vector<Endpoint> endpoints;
    obs::Histogram delivery_hist;
    std::uint64_t next_seq = 1;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t loss_drops = 0;
    std::uint64_t congestion_drops = 0;
    std::uint64_t red_drops = 0;
    std::uint64_t chaos_drops = 0;
    std::uint64_t reordered = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("link", s.link);
      v("rng", s.rng);
      v("endpoints", s.endpoints);
      v("delivery_hist", s.delivery_hist);
      v("next_seq", s.next_seq);
      v("sent", s.sent);
      v("delivered", s.delivered);
      v("loss_drops", s.loss_drops);
      v("congestion_drops", s.congestion_drops);
      v("red_drops", s.red_drops);
      v("chaos_drops", s.chaos_drops);
      v("reordered", s.reordered);
    }
  };

  [[nodiscard]] State CaptureState() const;
  void RestoreState(const State& s);

  // Rebuilds a captured in-flight delivery event bound to this device.
  [[nodiscard]] EventFn RebuildDeliver(int to, const NetMessage& msg, Nanos arrival) {
    return EventFn([this, to, msg, arrival]() { Deliver(to, msg, arrival); });
  }

 private:
  // Link physics: every message pays controller overhead plus wire time.
  // Coalescing is off — back-to-back messages don't merge on a link.
  [[nodiscard]] Nanos Service(std::uint64_t offset, std::uint64_t bytes, bool is_write,
                              bool coalesce) override;

  void Deliver(int to, const NetMessage& msg, Nanos arrival);

  NetSchedule schedule_;
  SimClock* clock_;
  EventQueue* events_;
  SimDevice link_;
  Rng rng_;
  std::vector<Endpoint> endpoints_;
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t track_ = 0;
  DropHook drop_hook_;
  DelayScale delay_scale_;
  obs::Histogram delivery_hist_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t loss_drops_ = 0;
  std::uint64_t congestion_drops_ = 0;
  std::uint64_t red_drops_ = 0;
  std::uint64_t chaos_drops_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace graysim

#endif  // SRC_NET_NET_DEVICE_H_
