#include "src/workloads/fastsort.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

#include "src/gray/fccd/fccd.h"
#include "src/gray/gbp/gbp.h"
#include "src/gray/sim_sys.h"

namespace graywork {

using graysim::Nanos;
using graysim::Os;
using graysim::Pid;
using graysim::VmAreaId;

namespace {

constexpr std::uint64_t kChunk = 1ULL * 1024 * 1024;

// A pass buffer backed either by a MAC allocation or a plain VM area.
class PassBuffer {
 public:
  static PassBuffer FromMac(gray::GbAllocation allocation) {
    PassBuffer b;
    b.mac_alloc_ = std::move(allocation);
    b.from_mac_ = true;
    return b;
  }
  static PassBuffer FromVm(Os* os, Pid pid, std::uint64_t bytes) {
    PassBuffer b;
    b.os_ = os;
    b.pid_ = pid;
    b.area_ = os->VmAlloc(pid, bytes);
    return b;
  }

  void Touch(Os* os, Pid pid, std::uint64_t page, bool write) {
    if (from_mac_) {
      mac_alloc_.Touch(page, write);
    } else {
      os->VmTouch(pid, area_, page, write);
    }
  }

  void Free(Os* os, Pid pid) {
    if (from_mac_) {
      mac_alloc_.Release();
    } else if (area_ != 0) {
      os->VmFree(pid, area_);
      area_ = 0;
    }
  }

 private:
  bool from_mac_ = false;
  gray::GbAllocation mac_alloc_;
  Os* os_ = nullptr;
  Pid pid_ = 0;
  VmAreaId area_ = 0;
};

// Byte ranges of the input in read order, regardless of ordering policy.
std::deque<gray::Extent> BuildReadStream(Os* os, Pid pid, const FastsortOptions& options,
                                         std::uint64_t input_size, Nanos* plan_cost) {
  std::deque<gray::Extent> stream;
  switch (options.read_order) {
    case ReadOrder::kLinear:
      stream.push_back(gray::Extent{0, input_size});
      return stream;
    case ReadOrder::kFccd: {
      gray::SimSys sys(os, pid);
      gray::FccdOptions fccd_options;
      fccd_options.align = options.record_bytes;
      gray::Fccd fccd(&sys, fccd_options);
      const Nanos t0 = os->Now();
      const auto plan = fccd.PlanFile(options.input);
      *plan_cost += os->Now() - t0;
      if (!plan.has_value()) {
        stream.push_back(gray::Extent{0, input_size});
        return stream;
      }
      for (const gray::UnitPlan& u : plan->units) {
        stream.push_back(u.extent);
      }
      return stream;
    }
    case ReadOrder::kGbpPipe: {
      gray::SimSys sys(os, pid);
      // fork+exec of the gbp process.
      os->Compute(pid, os->costs().fork_exec);
      gray::GbpOptions gbp_options;
      gbp_options.align = options.record_bytes;
      const Nanos t0 = os->Now();
      const gray::GbpOutPlan plan = gray::GbpPlanOut(&sys, gbp_options, options.input);
      *plan_cost += os->Now() - t0;
      for (const gray::Extent& e : plan.extents) {
        stream.push_back(e);
      }
      if (stream.empty()) {
        stream.push_back(gray::Extent{0, input_size});
      }
      return stream;
    }
  }
  return stream;
}

}  // namespace

FastsortReport Fastsort::Run(const FastsortOptions& options) {
  FastsortReport report;
  graysim::InodeAttr attr;
  if (os_->Stat(pid_, options.input, &attr) < 0) {
    ++report.io_errors;
    return report;
  }
  if (attr.size == 0) {
    return report;
  }
  const std::uint64_t input_size = attr.size / options.record_bytes * options.record_bytes;
  const std::uint64_t ps = os_->page_size();
  const Nanos run_start = os_->Now();

  Nanos plan_cost = 0;
  std::deque<gray::Extent> stream =
      BuildReadStream(os_, pid_, options, input_size, &plan_cost);
  report.probe_overhead += plan_cost;

  const int fd = os_->Open(pid_, options.input);
  if (fd < 0) {
    ++report.io_errors;
    return report;
  }
  if (options.write_runs) {
    (void)os_->Mkdir(pid_, options.run_dir);
  }

  gray::SimSys sys(os_, pid_);
  std::optional<gray::Mac> mac;
  if (options.use_mac) {
    mac.emplace(&sys);
  }

  std::uint64_t remaining = input_size;
  double pass_mb_sum = 0.0;
  while (remaining > 0) {
    // --- size and allocate the pass buffer ---
    std::uint64_t pass = 0;
    PassBuffer buffer;
    if (options.use_mac) {
      const std::uint64_t max_limit = options.mac_max == 0 ? remaining : options.mac_max;
      const std::uint64_t want_max = std::min(remaining, max_limit);
      const std::uint64_t want_min = std::min(options.mac_min, want_max);
      const gray::MacMetrics before = mac->metrics();
      const Nanos t0 = os_->Now();
      auto allocation = mac->GbAllocBlocking(want_min, want_max, options.record_bytes);
      const Nanos alloc_elapsed = os_->Now() - t0;
      const Nanos wait_delta = mac->metrics().wait_time - before.wait_time;
      report.wait_overhead += wait_delta;
      report.probe_overhead += alloc_elapsed - wait_delta;
      if (!allocation.has_value()) {
        break;  // admission never granted; bail out
      }
      pass = std::min(allocation->bytes(), remaining) / options.record_bytes *
             options.record_bytes;
      buffer = PassBuffer::FromMac(std::move(*allocation));
    } else {
      pass = std::min(options.pass_bytes / options.record_bytes * options.record_bytes,
                      remaining);
      if (pass == 0) {
        pass = std::min<std::uint64_t>(options.record_bytes, remaining);
      }
      buffer = PassBuffer::FromVm(os_, pid_, pass);
    }

    // --- read phase: fill the buffer from the (possibly reordered) stream ---
    Nanos t0 = os_->Now();
    std::uint64_t filled = 0;
    while (filled < pass && !stream.empty()) {
      gray::Extent& e = stream.front();
      const std::uint64_t n = std::min({kChunk, e.length, pass - filled});
      if (os_->Pread(pid_, fd, {}, n, e.offset) < 0) {
        ++report.io_errors;
      }
      if (options.read_order == ReadOrder::kGbpPipe) {
        // The pipe costs one extra copy of the data through the OS.
        os_->Compute(pid_, os_->costs().CopyCost(n));
      }
      for (std::uint64_t p = filled / ps; p <= (filled + n - 1) / ps; ++p) {
        buffer.Touch(os_, pid_, p, /*write=*/true);
      }
      e.offset += n;
      e.length -= n;
      if (e.length == 0) {
        stream.pop_front();
      }
      filled += n;
    }
    report.read += os_->Now() - t0;

    // --- sort phase: permute records in memory ---
    t0 = os_->Now();
    for (std::uint64_t p = 0; filled > 0 && p <= (filled - 1) / ps; ++p) {
      buffer.Touch(os_, pid_, p, /*write=*/true);
    }
    os_->Compute(pid_, os_->costs().SortCost(filled));
    report.sort += os_->Now() - t0;

    // --- write phase: emit the sorted run ---
    if (options.write_runs && filled > 0) {
      t0 = os_->Now();
      const std::string run_path =
          options.run_dir + "/run" + std::to_string(report.passes);
      const int run_fd = os_->Creat(pid_, run_path);
      if (run_fd >= 0) {
        for (std::uint64_t off = 0; off < filled; off += kChunk) {
          const std::uint64_t n = std::min(kChunk, filled - off);
          for (std::uint64_t p = off / ps; p <= (off + n - 1) / ps; ++p) {
            buffer.Touch(os_, pid_, p, /*write=*/false);
          }
          if (os_->Pwrite(pid_, run_fd, n, off) < 0) {
            ++report.io_errors;
          }
        }
        (void)os_->Close(pid_, run_fd);
      } else {
        ++report.io_errors;
      }
      report.write += os_->Now() - t0;
    }

    buffer.Free(os_, pid_);
    remaining -= filled;
    report.bytes_sorted += filled;
    pass_mb_sum += static_cast<double>(filled) / (1024.0 * 1024.0);
    ++report.passes;
    if (filled == 0) {
      break;  // stream exhausted unexpectedly
    }
  }

  (void)os_->Close(pid_, fd);
  report.total = os_->Now() - run_start;
  if (report.passes > 0) {
    report.avg_pass_mb = pass_mb_sum / report.passes;
  }
  return report;
}

MergeReport Fastsort::Merge(const FastsortOptions& options,
                            const std::string& output_path) {
  MergeReport report;
  const Nanos t0 = os_->Now();

  // Discover the sorted runs.
  std::vector<graysim::DirEntryInfo> entries;
  if (os_->ReadDir(pid_, options.run_dir, &entries) < 0) {
    return report;
  }
  struct Run {
    int fd = -1;
    std::uint64_t size = 0;
    std::uint64_t offset = 0;
  };
  std::vector<Run> runs;
  for (const auto& e : entries) {
    if (e.is_dir) {
      continue;
    }
    const std::string path = options.run_dir + "/" + e.name;
    graysim::InodeAttr attr;
    if (os_->Stat(pid_, path, &attr) < 0 || attr.size == 0) {
      continue;
    }
    const int fd = os_->Open(pid_, path);
    if (fd < 0) {
      continue;
    }
    runs.push_back(Run{fd, attr.size, 0});
  }
  report.runs_merged = static_cast<int>(runs.size());
  if (runs.empty()) {
    return report;
  }

  const int out_fd = os_->Creat(pid_, output_path);
  if (out_fd < 0) {
    for (const Run& r : runs) {
      (void)os_->Close(pid_, r.fd);
    }
    return report;
  }

  // Merge consumption: runs drain in interleaved chunks proportional to
  // their sizes (a k-way merge reads from every run as the heads advance).
  std::uint64_t out_offset = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (Run& r : runs) {
      if (r.offset >= r.size) {
        continue;
      }
      const std::uint64_t n = std::min(kChunk, r.size - r.offset);
      (void)os_->Pread(pid_, r.fd, {}, n, r.offset);
      // CPU: heap pops + record copies for this chunk.
      os_->Compute(pid_, os_->costs().ScanCost(n));
      (void)os_->Pwrite(pid_, out_fd, n, out_offset);
      r.offset += n;
      out_offset += n;
      report.bytes_merged += n;
      progress = true;
    }
  }
  (void)os_->Fsync(pid_, out_fd);
  (void)os_->Close(pid_, out_fd);
  for (const Run& r : runs) {
    (void)os_->Close(pid_, r.fd);
  }
  report.total = os_->Now() - t0;
  return report;
}

}  // namespace graywork
