// Gray-glass tracing: a ring-buffered sink of typed spans and instants.
//
// The paper's whole method is inference from observations; this layer turns
// the simulator itself into an observable system. Components emit spans
// (Begin/End or Complete), instants, and counters onto named tracks; every
// event carries BOTH a virtual-time stamp (the deterministic simulation
// clock) and a host-time stamp (wall clock since Enable), so a trace can
// answer "what did the kernel believe was happening" and "what did that
// cost the host" side by side. The sink exports Chrome trace_event JSON
// loadable in chrome://tracing or Perfetto, one "thread" row per track
// (fiber, disk, daemon, chaos, probe layer, ...).
//
// Gating contract (pinned by tests/trace_test.cc and the determinism
// suite): tracing never touches the virtual clock, the jitter stream, or
// the event queue — trace-on and trace-off runs are bit-identical in
// virtual time and OsStats. Disabled, every emitter is a single branch on
// `enabled_` (no allocation, no clock read). The ring buffer is pre-sized at
// Enable(): recording never allocates, and overflow overwrites the OLDEST
// event, counted in dropped().
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace obs {

using Nanos = std::uint64_t;

// Well-known tracks, registered by the TraceSink constructor in this order
// so components can emit with a constant id instead of a lookup. Dynamic
// tracks (one per disk, one per fiber) are appended by RegisterTrack.
inline constexpr std::uint32_t kTrackKernel = 0;      // event-queue dispatch
inline constexpr std::uint32_t kTrackFlushDaemon = 1; // write-behind flusher
inline constexpr std::uint32_t kTrackPageDaemon = 2;  // page daemon
inline constexpr std::uint32_t kTrackChaos = 3;       // injected interference
inline constexpr std::uint32_t kTrackProbe = 4;       // ProbeEngine batches
inline constexpr std::uint32_t kTrackIcl = 5;         // ICL decision instants
inline constexpr std::uint32_t kNumWellKnownTracks = 6;

enum class Phase : std::uint8_t {
  kBegin,     // span open ("B")
  kEnd,       // span close ("E")
  kInstant,   // point event ("i")
  kComplete,  // span with known duration ("X")
  kCounter,   // sampled value ("C")
};

// One record in the ring. Names are static string literals (never owned, so
// recording stays allocation-free); args are an optional (name, value) pair.
struct TraceEvent {
  Nanos virtual_ns = 0;
  Nanos dur_ns = 0;  // kComplete only
  std::uint64_t host_ns = 0;
  std::uint64_t arg = 0;
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr when the event carries no arg
  std::uint32_t track = 0;
  Phase phase = Phase::kInstant;
};

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Registers a track (a "thread" row in the exported trace); returns the
  // existing id when the name was registered before. Setup-time only.
  std::uint32_t RegisterTrack(const std::string& name);

  // Pre-sizes the ring and starts recording. Re-enabling clears previously
  // recorded events but keeps registered tracks.
  void Enable(std::size_t capacity = kDefaultCapacity);
  void Disable();

  [[nodiscard]] bool enabled() const { return enabled_; }

  // ---- emitters (hot path: one branch when disabled) ----
  void Begin(std::uint32_t track, const char* name, Nanos vt) {
    if (enabled_) {
      Push(TraceEvent{vt, 0, HostNs(), 0, name, nullptr, track, Phase::kBegin});
    }
  }
  void End(std::uint32_t track, const char* name, Nanos vt) {
    if (enabled_) {
      Push(TraceEvent{vt, 0, HostNs(), 0, name, nullptr, track, Phase::kEnd});
    }
  }
  void Instant(std::uint32_t track, const char* name, Nanos vt,
               const char* arg_name = nullptr, std::uint64_t arg = 0) {
    if (enabled_) {
      Push(TraceEvent{vt, 0, HostNs(), arg, name, arg_name, track, Phase::kInstant});
    }
  }
  // A span whose start and duration are both known at emit time (e.g. a
  // disk request: service window computed at submit). `vt_start` may lie in
  // the virtual future — exporters sort by timestamp.
  void Complete(std::uint32_t track, const char* name, Nanos vt_start, Nanos dur,
                const char* arg_name = nullptr, std::uint64_t arg = 0) {
    if (enabled_) {
      Push(TraceEvent{vt_start, dur, HostNs(), arg, name, arg_name, track, Phase::kComplete});
    }
  }
  void Counter(std::uint32_t track, const char* name, Nanos vt, std::uint64_t value) {
    if (enabled_) {
      Push(TraceEvent{vt, 0, HostNs(), value, name, "value", track, Phase::kCounter});
    }
  }

  // ---- inspection & export ----
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  // Events overwritten because the ring was full (oldest dropped first).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<std::string>& track_names() const { return track_names_; }

  // Copies the retained events, oldest first.
  void Snapshot(std::vector<TraceEvent>* out) const;

  // Chrome trace_event JSON (object form: {"traceEvents": [...]}), with
  // thread_name metadata per track. Returns false on I/O error.
  bool WriteChromeJson(const std::string& path) const;
  void WriteChromeJson(std::FILE* f) const;

 private:
  void Push(const TraceEvent& e) {
    if (ring_.empty()) {
      return;
    }
    if (count_ == ring_.size()) {
      ring_[head_] = e;  // overwrite the oldest retained event
      head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
      ++dropped_;
    } else {
      std::size_t at = head_ + count_;
      if (at >= ring_.size()) {
        at -= ring_.size();
      }
      ring_[at] = e;
      ++count_;
    }
  }

  [[nodiscard]] std::uint64_t HostNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - host_epoch_)
            .count());
  }

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   // index of the oldest retained event
  std::size_t count_ = 0;  // retained events
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
  std::chrono::steady_clock::time_point host_epoch_;
  std::vector<std::string> track_names_;
};

}  // namespace obs

#endif  // SRC_OBS_TRACE_H_
