// Mechanical disk model: seek curve + rotational latency + media transfer.
//
// Models an IBM 9LZX-class drive (the disks in the paper's testbed): ~5 ms
// average seek, 10k RPM (3 ms average rotational latency), ~20 MB/s media
// rate. The model keeps the head position between requests so contiguous
// accesses pay transfer cost only — the property both FLDC (layout matters)
// and FCCD (sequential access-unit reads amortize seeks) depend on.
#ifndef SRC_DISK_DISK_H_
#define SRC_DISK_DISK_H_

#include <cstdint>
#include <string>

#include "src/sim/clock.h"

namespace graysim {

struct DiskGeometry {
  std::uint64_t capacity_bytes = 9ULL * 1024 * 1024 * 1024;  // 9 GB
  std::uint32_t rpm = 10'000;
  // Any seek costs at least this much (arm settle dominates short seeks,
  // which is why sorting by directory only buys 10-25% in the paper).
  double min_seek_ms = 5.0;
  double full_stroke_seek_ms = 12.0;
  double transfer_mb_per_s = 20.0;
  double controller_overhead_us = 150.0;
  // Requests within this byte distance of the head are same-cylinder: no
  // seek, but rotational latency still applies.
  std::uint64_t cylinder_span_bytes = 128 * 1024;
  // A contiguous request issued as a separate command still misses part of
  // the rotation window while the host turns the I/O around.
  double inter_request_rotation_miss_ms = 0.7;

  // The paper's testbed drive.
  [[nodiscard]] static DiskGeometry Ibm9Lzx() { return DiskGeometry{}; }

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("capacity_bytes", s.capacity_bytes);
    v("rpm", s.rpm);
    v("min_seek_ms", s.min_seek_ms);
    v("full_stroke_seek_ms", s.full_stroke_seek_ms);
    v("transfer_mb_per_s", s.transfer_mb_per_s);
    v("controller_overhead_us", s.controller_overhead_us);
    v("cylinder_span_bytes", s.cylinder_span_bytes);
    v("inter_request_rotation_miss_ms", s.inter_request_rotation_miss_ms);
  }
};

// Aggregate statistics, exposed for tests and benches (ground truth — the
// gray-box layers never look at these).
struct DiskStats {
  std::uint64_t requests = 0;
  std::uint64_t sequential_requests = 0;  // no seek, no rotation
  std::uint64_t seeks = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  Nanos busy_time = 0;

  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("requests", s.requests);
    v("sequential_requests", s.sequential_requests);
    v("seeks", s.seeks);
    v("bytes_read", s.bytes_read);
    v("bytes_written", s.bytes_written);
    v("busy_time", s.busy_time);
  }
};

// A single disk. Access() returns the service time of a contiguous request
// and updates the head position.
class Disk {
 public:
  Disk(DiskGeometry geometry, int disk_id);

  // Service time for a contiguous run of `bytes` at byte offset `offset`.
  [[nodiscard]] Nanos Access(std::uint64_t offset, std::uint64_t bytes, bool is_write);

  // Extends the request currently at the tail of the device queue by a
  // contiguous run starting exactly at the head position: the controller
  // keeps streaming, so only media transfer is charged (no controller
  // overhead, no rotation miss). Callers (DiskQueue) guarantee contiguity.
  [[nodiscard]] Nanos SequentialExtend(std::uint64_t offset, std::uint64_t bytes, bool is_write);

  [[nodiscard]] const DiskGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const DiskStats& stats() const { return stats_; }
  [[nodiscard]] int id() const { return disk_id_; }
  void ResetStats() { stats_ = DiskStats{}; }

  // Component costs, exposed so microbenchmarks in tests can validate the
  // model against first principles.
  [[nodiscard]] Nanos SeekTime(std::uint64_t from, std::uint64_t to) const;
  [[nodiscard]] Nanos RotationalLatency() const;  // average: half a revolution
  [[nodiscard]] Nanos TransferTime(std::uint64_t bytes) const;

  // The checkpointed state (machine_image_io). Head position is mechanical
  // state: the next request's seek cost depends on it, so a restore that
  // forgot it would diverge timing immediately.
  template <class S, class V>
  static constexpr void VisitFields(S& s, V&& v) {
    v("head_pos", s.head_pos_);
    v("head_valid", s.head_valid_);
    v("stats", s.stats_);
  }

 private:
  DiskGeometry geometry_;
  int disk_id_;
  std::uint64_t head_pos_ = 0;
  bool head_valid_ = false;
  DiskStats stats_;
};

}  // namespace graysim

#endif  // SRC_DISK_DISK_H_
