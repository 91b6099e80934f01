// ChaosEngine: executes a FaultPlan against the simulated kernel.
//
// The engine owns the plan, a dedicated RNG stream (seeded from the plan, so
// fault decisions never perturb the kernel's jitter or tie-break streams),
// and the injected-fault counters. It is pure decision logic: the Os asks it
// "should this Pread fail?" / "how slow is disk d right now?" and applies
// the answer itself. Keeping all randomness here gives the replay guarantee:
// with the same plan and the same (deterministic) syscall/request sequence,
// every injected fault lands at the same virtual instant, run after run.
#ifndef SRC_OS_CHAOS_ENGINE_H_
#define SRC_OS_CHAOS_ENGINE_H_

#include <cstdint>

#include "src/sim/clock.h"
#include "src/sim/fault_plan.h"
#include "src/sim/rng.h"

namespace graysim {

// Counts of injected interference, exposed through Os::chaos_stats(). The
// determinism tests snapshot this next to OsStats: two runs of the same plan
// must agree on every counter, not just on the virtual clock.
struct ChaosStats {
  std::uint64_t injected_read_errors = 0;
  std::uint64_t injected_stat_errors = 0;
  std::uint64_t injected_write_errors = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t disk_spikes = 0;
  std::uint64_t degraded_requests = 0;  // disk requests inside a degraded window
  std::uint64_t reader_ticks = 0;
  std::uint64_t dirtier_ticks = 0;
  std::uint64_t antagonist_pages = 0;  // cache pages touched by antagonists
  std::uint64_t pressure_shocks = 0;
  std::uint64_t stalled_allocs = 0;  // zero-fills stalled inside shock windows
  std::uint64_t injected_net_drops = 0;
  std::uint64_t delayed_net_messages = 0;  // sends inside a net-delay window

  friend bool operator==(const ChaosStats&, const ChaosStats&) = default;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("injected_read_errors", s.injected_read_errors);
    v("injected_stat_errors", s.injected_stat_errors);
    v("injected_write_errors", s.injected_write_errors);
    v("short_writes", s.short_writes);
    v("disk_spikes", s.disk_spikes);
    v("degraded_requests", s.degraded_requests);
    v("reader_ticks", s.reader_ticks);
    v("dirtier_ticks", s.dirtier_ticks);
    v("antagonist_pages", s.antagonist_pages);
    v("pressure_shocks", s.pressure_shocks);
    v("stalled_allocs", s.stalled_allocs);
    v("injected_net_drops", s.injected_net_drops);
    v("delayed_net_messages", s.delayed_net_messages);
  }
};

class ChaosEngine {
 public:
  explicit ChaosEngine(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {
    if (plan_.jitter_burst_period > 0) {
      jitter_edge_ = WindowEdge(plan_.jitter_burst_period, plan_.jitter_burst_duty);
    }
  }

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const ChaosStats& stats() const { return stats_; }
  // The Os-side antagonist/shock tick bodies record their work here.
  [[nodiscard]] ChaosStats& stats_mutable() { return stats_; }

  // Snapshot support: a forked machine rebuilds the engine from the plan,
  // then restores the RNG mid-sequence (fault decisions must continue the
  // original draw stream, not restart it) and the counters.
  [[nodiscard]] Rng::State rng_state() const { return rng_.state(); }
  void set_rng_state(const Rng::State& s) { rng_.set_state(s); }
  void set_stats(const ChaosStats& s) { stats_ = s; }

  // Per-operation fault decisions. Each draws from the chaos RNG only when
  // its probability is non-zero, so the draw sequence is a pure function of
  // the operation sequence.
  [[nodiscard]] bool InjectReadError() {
    return Roll(plan_.read_eio_prob, &stats_.injected_read_errors);
  }
  [[nodiscard]] bool InjectStatError() {
    return Roll(plan_.stat_eio_prob, &stats_.injected_stat_errors);
  }
  [[nodiscard]] bool InjectWriteError() {
    return Roll(plan_.write_enospc_prob, &stats_.injected_write_errors);
  }

  [[nodiscard]] bool InjectNetDrop() {
    return Roll(plan_.net_drop_prob, &stats_.injected_net_drops);
  }

  // Latency multiplier for a message sent at virtual time `now`: the
  // congestion square wave stretches propagation inside its duty window.
  // Draw-free.
  [[nodiscard]] double NetDelayScale(Nanos now) {
    if (plan_.net_delay_period == 0 ||
        !InWindow(now, plan_.net_delay_period, plan_.net_delay_duty)) {
      return 1.0;
    }
    ++stats_.delayed_net_messages;
    return plan_.net_delay_scale;
  }

  // Possibly truncates a write to a strict non-empty prefix (POSIX short
  // write). Returns `len` unchanged when no fault fires.
  [[nodiscard]] std::uint64_t MaybeShortWrite(std::uint64_t len) {
    if (len <= 1 || !Roll(plan_.short_write_prob, &stats_.short_writes)) {
      return len;
    }
    return rng_.Range(1, len - 1);
  }

  // Jitter amplitude at virtual time `now`: the burst square wave replaces
  // the configured base amplitude inside its duty window. Draw-free. The
  // wave holds its level over [jitter_from_, jitter_until_), the run of
  // instants around the last call's, so a call inside it costs two
  // comparisons; a call outside it locates the new run with one modulo.
  [[nodiscard]] double JitterAmplitude(Nanos now, double base) {
    if (plan_.jitter_burst_period == 0) {
      return base;
    }
    if (now < jitter_from_ || now >= jitter_until_) {
      LocateJitterRun(now);
    }
    return jitter_burst_ ? plan_.jitter_burst_amplitude : base;
  }

  // Extra latency for a zero-fill page allocation at virtual time `now`:
  // inside a shock window (the same square wave that paces ShockTick's
  // grabs) the shock competitor contends for free lists and LRU locks, so
  // fresh pages are slow machine-wide. Draw-free.
  [[nodiscard]] Nanos AllocStall(Nanos now) {
    if (plan_.shock_period == 0 || plan_.shock_alloc_stall == 0 ||
        plan_.shock_duration == 0) {
      return 0;
    }
    // The first window opens with the first ShockTick grab at t = period,
    // not at t = 0: an ICL calibrating on first contact must see the clean
    // machine, exactly as a process starting before the competitor would.
    if (now < plan_.shock_period || now % plan_.shock_period >= plan_.shock_duration) {
      return 0;
    }
    ++stats_.stalled_allocs;
    return plan_.shock_alloc_stall;
  }

  // Scales one disk request's service time: degraded-window multiplier
  // (draw-free square wave) times an occasional random spike.
  [[nodiscard]] Nanos ScaleService(int disk, Nanos now, Nanos service) {
    double scale = 1.0;
    if (plan_.degraded_period > 0 &&
        (plan_.degraded_disk < 0 || plan_.degraded_disk == disk) &&
        InWindow(now, plan_.degraded_period, plan_.degraded_duty)) {
      scale *= plan_.degraded_scale;
      ++stats_.degraded_requests;
    }
    if (plan_.spike_prob > 0.0 && rng_.Chance(plan_.spike_prob)) {
      scale *= plan_.spike_scale;
      ++stats_.disk_spikes;
    }
    if (scale == 1.0) {
      return service;
    }
    return static_cast<Nanos>(static_cast<double>(service) * scale);
  }

 private:
  [[nodiscard]] bool Roll(double prob, std::uint64_t* counter) {
    if (prob <= 0.0 || !rng_.Chance(prob)) {
      return false;
    }
    ++*counter;
    return true;
  }

  [[nodiscard]] static bool InWindow(Nanos now, Nanos period, double duty) {
    return PhaseInWindow(now % period, period, duty);
  }

  // The square waves' one comparison: a phase in [0, period) lies inside
  // the duty window when it is below duty * period.
  [[nodiscard]] static bool PhaseInWindow(Nanos phase, Nanos period, double duty) {
    return static_cast<double>(phase) < duty * static_cast<double>(period);
  }

  // The least phase in [0, period] that PhaseInWindow puts outside the
  // window, or period when none is. Converting a phase to double never
  // decreases it, so the phases inside the window are a prefix and a
  // binary search finds where it ends.
  [[nodiscard]] static Nanos WindowEdge(Nanos period, double duty) {
    Nanos lo = 0;
    Nanos hi = period;
    while (lo < hi) {
      const Nanos mid = lo + (hi - lo) / 2;
      if (PhaseInWindow(mid, period, duty)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Sets the jitter run to the one holding `now`: [start, start + edge)
  // inside the burst window, [start + edge, start + period) after it. An
  // end that wraps past the largest instant only makes the next call
  // locate again.
  void LocateJitterRun(Nanos now) {
    const Nanos start = now - now % plan_.jitter_burst_period;
    jitter_burst_ = now - start < jitter_edge_;
    jitter_from_ = jitter_burst_ ? start : start + jitter_edge_;
    jitter_until_ = jitter_burst_ ? start + jitter_edge_ : start + plan_.jitter_burst_period;
  }

  FaultPlan plan_;
  Rng rng_;
  ChaosStats stats_;
  // The jitter burst wave: its window's edge within a period, and the run
  // of instants the last JitterAmplitude call located (derived from the
  // clock, so never checkpointed; empty until the first call).
  Nanos jitter_edge_ = 0;
  Nanos jitter_from_ = 0;
  Nanos jitter_until_ = 0;
  bool jitter_burst_ = false;
};

}  // namespace graysim

#endif  // SRC_OS_CHAOS_ENGINE_H_
