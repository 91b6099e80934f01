// Generic simulated device: FCFS request queue with completion events.
//
// Submit() computes the request's service time against an injected
// ServiceModel, appends it to the device's busy timeline (requests to one
// device serialize; different devices proceed in parallel), and schedules a
// completion event on the simulation's event queue. The submitter decides
// whether to block on the returned completion time (demand reads) or walk
// away (write-behind, readahead, swap-out) — that split is what makes
// background I/O truly asynchronous.
//
// Contiguous-run coalescing (optional, on by default): a request that starts
// exactly where the queue's tail request ends, in the same transfer
// direction, is merged into that tail — the controller keeps streaming, and
// the ServiceModel sees coalesce=true so it can charge transfer time only.
// Devices without a seek/stream distinction (the net link) switch it off.
//
// This is the device layer both DiskQueue (mechanical disk model) and
// NetDevice (link serialization) are built on. It deliberately knows nothing
// about disks or networks: the ServiceModel owns all device physics.
#ifndef SRC_SIM_SIM_DEVICE_H_
#define SRC_SIM_SIM_DEVICE_H_

#include <cstdint>
#include <functional>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_fn.h"

namespace graysim {

class SimDevice {
 public:
  // Device physics live behind this interface; SimDevice owns only the
  // queueing discipline. `coalesce` is true when the request extends the
  // queue tail contiguously in the same direction.
  class ServiceModel {
   public:
    virtual ~ServiceModel() = default;
    [[nodiscard]] virtual Nanos Service(std::uint64_t offset, std::uint64_t bytes, bool is_write,
                                        bool coalesce) = 0;
  };

  // `jitter` (optional) perturbs each request's service time; the Os wires
  // its seeded timing jitter through it. Installed once at setup, so the
  // std::function indirection costs nothing per request.
  using Jitter = std::function<Nanos(Nanos)>;
  // `service_scale` (optional) rescales the already-jittered service time;
  // the chaos layer wires degraded-window / latency-spike multipliers
  // through it. Installed only while a FaultPlan is armed, so the unarmed
  // hot path pays a single null check.
  using ServiceScale = std::function<Nanos(Nanos)>;

  // Completion callbacks are stored inline (nested inside the completion
  // event), so submitting a request never allocates. 48 bytes fits the Os's
  // read-fill closure (this + inum + page range + token + flag).
  using CompletionFn = InlineFn<48>;

  SimDevice(ServiceModel* model, SimClock* clock, EventQueue* events)
      : model_(model), clock_(clock), events_(events) {}

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  void set_jitter(Jitter jitter) { jitter_ = std::move(jitter); }
  void set_service_scale(ServiceScale scale) { service_scale_ = std::move(scale); }
  void set_coalescing(bool on) { coalescing_ = on; }

  // Trace span names for the two transfer directions; must be string
  // literals (or otherwise outlive the sink — TraceEvent stores pointers).
  // The disk keeps the default read/write pair; the net device renames both
  // directions "xmit".
  void set_op_names(const char* read_name, const char* write_name) {
    read_name_ = read_name;
    write_name_ = write_name;
  }

  // Enqueues a contiguous request of `bytes` at byte `offset`. Returns its
  // completion time; `on_complete` (may be null) runs at that instant in
  // Band::kCompletion — before any process waking at the same time.
  // `desc` describes the completion event for machine snapshots; callers
  // whose on_complete is null can use the overload, which records a plain
  // kDeviceCompletion against this device's snapshot id.
  Nanos Submit(std::uint64_t offset, std::uint64_t bytes, bool is_write, CompletionFn on_complete,
               const EventDesc& desc);
  Nanos Submit(std::uint64_t offset, std::uint64_t bytes, bool is_write,
               CompletionFn on_complete);

  // Timeline position after the last queued request completes.
  [[nodiscard]] Nanos busy_until() const { return busy_until_; }
  [[nodiscard]] std::uint64_t depth() const { return depth_; }
  [[nodiscard]] std::uint64_t max_depth() const { return max_depth_; }
  [[nodiscard]] std::uint64_t total_requests() const { return total_requests_; }
  [[nodiscard]] std::uint64_t coalesced_requests() const { return coalesced_requests_; }

  // Optional trace sink + the track ("disk/N", "net/0" row) this device's
  // request lifecycle events land on. Each request becomes an "X" span over
  // its service window, plus a "queue" instant when it had to wait behind
  // the device's busy timeline.
  void set_trace(obs::TraceSink* trace, std::uint32_t track) {
    trace_ = trace;
    track_ = track;
  }

  // Per-request service times (ns), recorded on every Submit. Alloc-free.
  [[nodiscard]] const obs::Histogram& service_hist() const { return service_hist_; }

  // --- Snapshot surface ----------------------------------------------
  // The device's simulation-visible state as pure data. The model/clock/
  // events pointers, jitter and chaos hooks, and trace wiring are identity,
  // not state — a forked machine rebinds them to its own subsystems.
  // `depth` counts in-flight requests whose completion events are captured
  // separately in the event image; restoring it wholesale keeps the
  // rebuilt events' --depth_ decrements balanced.
  struct State {
    obs::Histogram service_hist;
    Nanos busy_until = 0;
    std::uint64_t tail_end_offset = 0;
    bool tail_is_write = false;
    std::uint64_t depth = 0;
    std::uint64_t max_depth = 0;
    std::uint64_t total_requests = 0;
    std::uint64_t coalesced_requests = 0;

    template <class S, class V>
    static constexpr void VisitFields(S& s, V&& v) {
      v("service_hist", s.service_hist);
      v("busy_until", s.busy_until);
      v("tail_end_offset", s.tail_end_offset);
      v("tail_is_write", s.tail_is_write);
      v("depth", s.depth);
      v("max_depth", s.max_depth);
      v("total_requests", s.total_requests);
      v("coalesced_requests", s.coalesced_requests);
    }
  };

  [[nodiscard]] State CaptureState() const {
    return State{service_hist_, busy_until_,    tail_end_offset_, tail_is_write_,
                 depth_,        max_depth_,     total_requests_,  coalesced_requests_};
  }
  void RestoreState(const State& s) {
    service_hist_ = s.service_hist;
    busy_until_ = s.busy_until;
    tail_end_offset_ = s.tail_end_offset;
    tail_is_write_ = s.tail_is_write;
    depth_ = s.depth;
    max_depth_ = s.max_depth;
    total_requests_ = s.total_requests;
    coalesced_requests_ = s.coalesced_requests;
  }

  // Identifies this device inside snapshot event descriptors (disk index,
  // or -1 for the net link). Set once at machine assembly.
  void set_snapshot_dev(std::int32_t dev) { snapshot_dev_ = dev; }

  // Crash-stop teardown: in-flight requests die with the machine (their
  // completion events have already been discarded wholesale), so the queue
  // empties and the busy timeline collapses to `now`. Cumulative counters
  // and the service histogram survive — they are observability, not device
  // state, and a restarted run keeps accumulating into them.
  void CrashReset(Nanos now) {
    depth_ = 0;
    busy_until_ = now;
    tail_end_offset_ = 0;
    tail_is_write_ = false;
  }

  // The completion-event closure Submit schedules, exposed so a restoring
  // Os can rebuild a captured in-flight completion bound to this device.
  [[nodiscard]] EventFn MakeCompletionEvent(CompletionFn cb) {
    return EventFn([this, cb]() mutable {
      --depth_;
      if (cb) {
        cb();
      }
    });
  }

 private:
  ServiceModel* model_;
  SimClock* clock_;
  EventQueue* events_;
  Jitter jitter_;
  ServiceScale service_scale_;
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t track_ = 0;
  const char* read_name_ = "read";
  const char* write_name_ = "write";
  obs::Histogram service_hist_;
  Nanos busy_until_ = 0;
  // End offset + direction of the tail request, for coalescing.
  std::uint64_t tail_end_offset_ = 0;
  bool tail_is_write_ = false;
  bool coalescing_ = true;
  std::uint64_t depth_ = 0;
  std::uint64_t max_depth_ = 0;
  std::uint64_t total_requests_ = 0;
  std::uint64_t coalesced_requests_ = 0;
  std::int32_t snapshot_dev_ = 0;
};

}  // namespace graysim

#endif  // SRC_SIM_SIM_DEVICE_H_
