// Deterministic fault & interference schedule (the "chaos layer" input).
//
// A FaultPlan is pure data: probabilities, square-wave windows, and burst
// sizes, plus one seed. The ChaosEngine (src/os/chaos_engine.h) draws every
// random decision from a dedicated RNG stream seeded here, so a plan replays
// bit-identically — same injected faults, same spikes, same antagonist
// schedule — run after run, and the kernel's own jitter/tie-break streams
// are never perturbed. A default-constructed plan is disabled and costs
// nothing: no draws, no branches beyond one null check per hook.
//
// Two kinds of interference are modeled:
//  * random per-operation faults (EIO, ENOSPC, short writes, disk latency
//    spikes) drawn per syscall/request from the chaos RNG;
//  * time-varying windows (degraded disks, jitter bursts, memory-pressure
//    shocks, antagonist daemon bursts) driven by the virtual clock as square
//    waves — draw-free, so their phase is a pure function of time.
#ifndef SRC_SIM_FAULT_PLAN_H_
#define SRC_SIM_FAULT_PLAN_H_

#include <cstdint>

#include "src/sim/clock.h"

namespace graysim {

struct FaultPlan {
  // Master switch. When false the Os never instantiates a ChaosEngine and
  // every hook reduces to a null-pointer check (zero-cost when off).
  bool enabled = false;
  // Seed of the dedicated chaos RNG stream (independent of jitter_seed and
  // event_tie_seed, which must stay untouched for zero-cost-when-off).
  std::uint64_t seed = 0xC4A05;

  // --- syscall-level failures ---
  // Per-operation probabilities; batched syscalls roll once per constituent
  // operation, exactly like the scalar path.
  double read_eio_prob = 0.0;     // Pread returns -EIO (transient)
  double stat_eio_prob = 0.0;     // Stat returns -EIO (transient)
  double write_enospc_prob = 0.0; // Pwrite returns -ENOSPC
  double short_write_prob = 0.0;  // Pwrite persists only a prefix
  // Virtual time charged on an injected read/write EIO: real kernels retry
  // failing commands several times before giving up, so an error return is
  // SLOW — which is precisely what poisons naive probe statistics.
  Nanos eio_latency = Millis(25.0);
  // Injected stat() failures are much cheaper: the error surfaces from the
  // (usually cached) inode path without the full command-retry dance.
  Nanos stat_eio_latency = Millis(5.0);

  // --- per-disk degraded windows & latency spikes ---
  int degraded_disk = -1;        // disk index, or -1 = every disk
  Nanos degraded_period = 0;     // 0 disables the square wave
  double degraded_duty = 0.0;    // fraction of each period spent degraded
  double degraded_scale = 1.0;   // service-time multiplier inside the window
  double spike_prob = 0.0;       // per-request latency spike probability
  double spike_scale = 1.0;      // spike service-time multiplier

  // --- jitter bursts (time-varying timing_jitter) ---
  Nanos jitter_burst_period = 0; // 0 disables bursts
  double jitter_burst_duty = 0.0;
  // Jitter amplitude inside a burst (replaces MachineConfig::timing_jitter
  // there; outside bursts the configured base amplitude applies).
  double jitter_burst_amplitude = 0.0;

  // --- antagonist daemons (event-queue background processes) ---
  Nanos antagonist_period = 0;        // tick period; 0 disables both daemons
  std::uint32_t reader_burst_pages = 0;   // streaming reader: pages per tick
  std::uint32_t dirtier_burst_pages = 0;  // dirtier: dirty pages per tick
  int antagonist_disk = 0;                // disk their I/O lands on

  // --- network interference ---
  // Per-message chaos drop, on top of the schedule's own loss/congestion
  // drops (models flaky middleboxes rather than the link itself).
  double net_drop_prob = 0.0;
  // Congestion square wave: inside the window every message's propagation
  // latency is multiplied by net_delay_scale. Draw-free.
  Nanos net_delay_period = 0;  // 0 disables the wave
  double net_delay_duty = 0.0;
  double net_delay_scale = 1.0;

  // --- crash-stop schedule ---
  // Absolute virtual time at which the machine crash-stops (0 = never).
  // At that instant volatile state dies — dirty page-cache pages, in-flight
  // disk/net requests, every fiber's stack — while durable disk state
  // survives under the write-order model (a write is durable once its
  // completion event has fired). The owner must call Os::Recover() before
  // using the machine again. Scheduled as a plain event, not a draw, so a
  // crash-only plan perturbs nothing before the crash instant.
  Nanos crash_at = 0;

  // --- memory-pressure shocks ---
  Nanos shock_period = 0;      // 0 disables shocks
  Nanos shock_duration = 0;    // grabbed memory is released after this long
  double shock_mem_fraction = 0.0;  // fraction of usable memory grabbed
  // Extra latency charged to every zero-fill page allocation inside a shock
  // window (a draw-free square wave on shock_period/shock_duration): the
  // shock competitor's allocator contends for the same free lists and LRU
  // locks, so fresh pages are slow machine-wide while it runs. This is the
  // signal a naive slow-touch detector misreads as "out of memory".
  // 0 disables the stall (the grab still pollutes the cache).
  Nanos shock_alloc_stall = 0;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("enabled", s.enabled);
    v("seed", s.seed);
    v("read_eio_prob", s.read_eio_prob);
    v("stat_eio_prob", s.stat_eio_prob);
    v("write_enospc_prob", s.write_enospc_prob);
    v("short_write_prob", s.short_write_prob);
    v("eio_latency", s.eio_latency);
    v("stat_eio_latency", s.stat_eio_latency);
    v("degraded_disk", s.degraded_disk);
    v("degraded_period", s.degraded_period);
    v("degraded_duty", s.degraded_duty);
    v("degraded_scale", s.degraded_scale);
    v("spike_prob", s.spike_prob);
    v("spike_scale", s.spike_scale);
    v("jitter_burst_period", s.jitter_burst_period);
    v("jitter_burst_duty", s.jitter_burst_duty);
    v("jitter_burst_amplitude", s.jitter_burst_amplitude);
    v("antagonist_period", s.antagonist_period);
    v("reader_burst_pages", s.reader_burst_pages);
    v("dirtier_burst_pages", s.dirtier_burst_pages);
    v("antagonist_disk", s.antagonist_disk);
    v("net_drop_prob", s.net_drop_prob);
    v("net_delay_period", s.net_delay_period);
    v("net_delay_duty", s.net_delay_duty);
    v("net_delay_scale", s.net_delay_scale);
    v("crash_at", s.crash_at);
    v("shock_period", s.shock_period);
    v("shock_duration", s.shock_duration);
    v("shock_mem_fraction", s.shock_mem_fraction);
    v("shock_alloc_stall", s.shock_alloc_stall);
  }

  // Preset used by bench/robustness_matrix: one knob scales every
  // interference axis together. intensity 0 = disabled; 1 = a pathologically
  // busy, half-broken machine. Values are calibrated so that at 0.5 every
  // ICL's inference is visibly perturbed but a hardened layer still retains
  // most of its win.
  [[nodiscard]] static FaultPlan Interference(double intensity,
                                              std::uint64_t seed = 0xC4A05) {
    FaultPlan p;
    if (intensity <= 0.0) {
      return p;  // disabled
    }
    p.enabled = true;
    p.seed = seed;
    p.read_eio_prob = 0.12 * intensity;
    // Slow enough that a probe timing the error path reads as "on disk"
    // even when the disk itself is degraded: folding one injected EIO into
    // a 4-probe unit average sinks a warm unit below genuinely cold ones.
    p.eio_latency = Millis(100.0);
    p.stat_eio_prob = 0.30 * intensity;
    p.write_enospc_prob = 0.002 * intensity;
    p.short_write_prob = 0.01 * intensity;
    p.degraded_disk = -1;
    p.degraded_period = Millis(200.0);
    p.degraded_duty = 0.35;
    p.degraded_scale = 1.0 + 3.0 * intensity;
    p.spike_prob = 0.05 * intensity;
    p.spike_scale = 8.0;
    p.jitter_burst_period = Millis(50.0);
    p.jitter_burst_duty = 0.4;
    p.jitter_burst_amplitude = 0.10 + 0.50 * intensity;
    p.net_drop_prob = 0.08 * intensity;
    p.net_delay_period = Millis(150.0);
    p.net_delay_duty = 0.3;
    p.net_delay_scale = 1.0 + 4.0 * intensity;
    p.antagonist_period = Millis(5.0);
    p.reader_burst_pages = static_cast<std::uint32_t>(24.0 * intensity);
    p.dirtier_burst_pages = static_cast<std::uint32_t>(8.0 * intensity);
    p.antagonist_disk = 0;
    // A competitor bursts in every 2 s; while it runs, page allocation
    // stalls ~140 µs — past a naive "30x the median zero-fill" slowness
    // threshold (~90 µs) even at the jitter floor, but inside a
    // recalibrated detector's clamp (~4x), so a fixed-threshold prober
    // false-aborts inside every window while a recalibrating one pays the
    // stall and carries on. The window scales with intensity; the stall
    // does not (it must straddle the two thresholds).
    p.shock_period = Millis(2000.0);
    p.shock_duration = Millis(300.0 * intensity);
    p.shock_mem_fraction = 0.10 * intensity;
    p.shock_alloc_stall = Micros(140.0);
    return p;
  }
};

}  // namespace graysim

#endif  // SRC_SIM_FAULT_PLAN_H_
