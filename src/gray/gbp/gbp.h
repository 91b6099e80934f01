// gbp — the gray-box probe command-line tool (paper §4.1.2, §4.2.4).
//
// Lets UNMODIFIED applications benefit from the ICLs:
//   grep foo `gbp -mem *`          best cache order (FCCD)
//   grep foo `gbp -file *`         best layout order (FLDC)
//   grep foo `gbp -compose *`      in-cache first, then layout order
//   gbp -mem -out in | app -       intra-file reordering piped to stdin
//
// This header holds the tool's logic as a library so examples, tests, and
// benches can drive it; examples/gbp_tool.cpp wraps it in argv parsing.
#ifndef SRC_GRAY_GBP_GBP_H_
#define SRC_GRAY_GBP_GBP_H_

#include <span>
#include <string>
#include <vector>

#include "src/gray/compose/compose.h"
#include "src/gray/fccd/fccd.h"
#include "src/gray/fldc/fldc.h"
#include "src/gray/sys_api.h"

namespace gray {

enum class GbpMode : std::uint8_t {
  kMem,      // -mem: FCCD probe-time order
  kFile,     // -file: FLDC i-number order
  kCompose,  // -compose: clustering composition
};

struct GbpOptions {
  GbpMode mode = GbpMode::kMem;
  // Record alignment for -out extents (e.g. 100 for fastsort records).
  std::uint64_t align = 1;
};

struct GbpFileOrder {
  std::vector<std::string> order;
};

// Orders a set of files for processing (the `gbp <flags> *` form).
[[nodiscard]] GbpFileOrder GbpOrderFiles(SysApi* sys, const GbpOptions& options,
                                         std::span<const std::string> paths);

struct GbpOutPlan {
  std::string path;
  // Extents of the file in recommended read order; reading them in sequence
  // and concatenating reproduces the -out stream.
  std::vector<Extent> extents;
};

// Plans the `-out` intra-file reordering stream for one file.
[[nodiscard]] GbpOutPlan GbpPlanOut(SysApi* sys, const GbpOptions& options,
                                    const std::string& path);

// Executes an -out plan: reads the file in plan order (as the gbp process
// would) and "writes" it to a pipe, charging the extra copy the paper
// attributes to the pipe mechanism. Returns bytes streamed. The 1 MB
// prefetch reads go through `engine` when one is supplied (each extent is
// one engine run), so callers can account streaming against probing.
std::uint64_t GbpStreamOut(SysApi* sys, const GbpOutPlan& plan,
                           ProbeEngine* engine = nullptr);

}  // namespace gray

#endif  // SRC_GRAY_GBP_GBP_H_
