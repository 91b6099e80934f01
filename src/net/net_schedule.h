// Pure-data description of the simulated network link (FaultPlan style).
//
// A NetSchedule is plain numbers plus one seed: propagation latency,
// serialization bandwidth, loss/reorder probabilities, and an optional
// bounded router queue with RED early drop. The NetDevice draws every random
// decision from a dedicated RNG stream seeded here, so a schedule replays
// bit-identically — same drops, same reorders — run after run, and the
// kernel's own jitter/tie-break streams are never perturbed. Machine-derived
// configs overwrite `seed` per machine id so fleet runs stay decorrelated.
#ifndef SRC_NET_NET_SCHEDULE_H_
#define SRC_NET_NET_SCHEDULE_H_

#include <cstdint>

#include "src/sim/clock.h"

namespace graysim {

struct NetSchedule {
  // One-way propagation delay, charged after the link finishes serializing
  // the message. Round trip for a ping-pong pair is therefore
  // 2*(serialize + latency) plus endpoint processing.
  Nanos latency = Micros(50.0);
  // Link serialization rate. Default ~100 Mbit/s: big enough that small
  // control messages are latency-dominated, small enough that bulk
  // transfers queue visibly.
  double bytes_per_sec = 12.5e6;
  // Fixed per-message controller overhead (interrupt coalescing, DMA
  // setup), charged as part of serialization.
  Nanos send_overhead = Micros(5.0);

  // Random per-message loss (the "wireless" knob from the paper's TCP
  // study: loss that is NOT congestion, which a congestion-inferring ICL
  // must distinguish from router drops).
  double drop_prob = 0.0;
  // Random per-message reordering: a reordered message is delayed an extra
  // `reorder_delay`, so it arrives behind messages sent after it.
  double reorder_prob = 0.0;
  Nanos reorder_delay = Micros(200.0);

  // Bounded router queue, measured in messages in flight on the link.
  // 0 = unbounded (no congestion drops). When bounded, a message arriving
  // to a full queue is tail-dropped — the congestion signal TCP infers.
  std::uint64_t queue_capacity = 0;
  // RED early drop: between min and max occupancy fractions the drop
  // probability ramps linearly from 0 to red_max_prob; above max the
  // message is always dropped. Off by default.
  bool red = false;
  double red_min_fraction = 0.25;
  double red_max_fraction = 0.75;
  double red_max_prob = 0.1;

  // How long a blocked NetRecv sleeps between inbox checks when no arrival
  // time is known yet (e.g. the peer has not sent). Bounds the busy-wait.
  Nanos recv_poll = Micros(100.0);

  // Seed of the dedicated net RNG stream (loss/reorder draws). Rewritten by
  // Machine::DeriveConfig from (root seed, machine id).
  std::uint64_t seed = 0x7e77;

  friend bool operator==(const NetSchedule&, const NetSchedule&) = default;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("latency", s.latency);
    v("bytes_per_sec", s.bytes_per_sec);
    v("send_overhead", s.send_overhead);
    v("drop_prob", s.drop_prob);
    v("reorder_prob", s.reorder_prob);
    v("reorder_delay", s.reorder_delay);
    v("queue_capacity", s.queue_capacity);
    v("red", s.red);
    v("red_min_fraction", s.red_min_fraction);
    v("red_max_fraction", s.red_max_fraction);
    v("red_max_prob", s.red_max_prob);
    v("recv_poll", s.recv_poll);
    v("seed", s.seed);
  }
};

}  // namespace graysim

#endif  // SRC_NET_NET_SCHEDULE_H_
