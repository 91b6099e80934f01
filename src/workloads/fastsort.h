// fastsort: the paper's highly tuned two-pass disk-to-disk sort (§4.1.3,
// §4.3.3; modeled on Agarwal's super-scalar sort).
//
// Pass structure: read up to one pass of 100-byte records into a memory
// buffer, sort the keys, write a sorted run; repeat; (optionally) merge the
// runs. Three knobs reproduce the paper's variants:
//  * read ordering: linear / FCCD plan (gb-fastsort's modified read loop) /
//    gbp -out pipe (unmodified sort reading the reordered stream);
//  * pass sizing: static (command-line) or MAC gb_alloc (gb-fastsort);
//  * phase accounting: read/sort/write plus MAC probe and wait overheads.
#ifndef SRC_WORKLOADS_FASTSORT_H_
#define SRC_WORKLOADS_FASTSORT_H_

#include <string>

#include "src/gray/mac/mac.h"
#include "src/os/os.h"

namespace graywork {

enum class ReadOrder : std::uint8_t {
  kLinear,   // unmodified
  kFccd,     // gb-fastsort: probe + in-cache-first access plan
  kGbpPipe,  // unmodified sort reading `gbp -mem -out` through a pipe
};

struct FastsortOptions {
  std::string input;
  std::string run_dir;  // sorted runs land here (same disk by default)
  std::uint64_t record_bytes = 100;
  // Static pass size; ignored when use_mac is true. Rounded down to records.
  std::uint64_t pass_bytes = 150ULL * 1024 * 1024;
  bool use_mac = false;
  std::uint64_t mac_min = 100ULL * 1024 * 1024;
  std::uint64_t mac_max = 0;  // 0 = remaining input
  ReadOrder read_order = ReadOrder::kLinear;
  bool write_runs = true;  // false = read phase only (Fig 3)
};

struct FastsortReport {
  graysim::Nanos total = 0;
  graysim::Nanos read = 0;
  graysim::Nanos sort = 0;
  graysim::Nanos write = 0;
  graysim::Nanos probe_overhead = 0;  // time inside MAC probing
  graysim::Nanos wait_overhead = 0;   // time waiting for admission
  int passes = 0;
  int io_errors = 0;  // failed stat/open/pread/creat/pwrite calls
  std::uint64_t bytes_sorted = 0;
  double avg_pass_mb = 0.0;
};

struct MergeReport {
  graysim::Nanos total = 0;
  std::uint64_t bytes_merged = 0;
  int runs_merged = 0;
};

class Fastsort {
 public:
  Fastsort(graysim::Os* os, graysim::Pid pid) : os_(os), pid_(pid) {}

  // Runs the pass loop (read [+ sort + write]) over the whole input.
  FastsortReport Run(const FastsortOptions& options);

  // Second pass of the two-pass sort: merges the sorted runs in `run_dir`
  // into `output_path` (paper §4.1.3: "reads the sorted runs from disk,
  // merges them into a single sorted list, and writes the final output").
  // Reads all runs in interleaved chunks — the access pattern that makes
  // merge performance insensitive to the pass size (paper §4.3.3: "we do
  // not execute the merge phase, since its performance is not as
  // sensitive...").
  MergeReport Merge(const FastsortOptions& options, const std::string& output_path);

 private:
  graysim::Os* os_;
  graysim::Pid pid_;
};

}  // namespace graywork

#endif  // SRC_WORKLOADS_FASTSORT_H_
