#include "src/gray/gbp/gbp.h"

namespace gray {

GbpFileOrder GbpOrderFiles(SysApi* sys, const GbpOptions& options,
                           std::span<const std::string> paths) {
  GbpFileOrder result;
  switch (options.mode) {
    case GbpMode::kMem: {
      Fccd fccd(sys);
      for (const RankedFile& rf : fccd.OrderFiles(paths)) {
        result.order.push_back(rf.path);
      }
      return result;
    }
    case GbpMode::kFile: {
      Fldc fldc(sys);
      for (const StatOrderEntry& e : fldc.OrderByInode(paths)) {
        result.order.push_back(e.path);
      }
      return result;
    }
    case GbpMode::kCompose: {
      Compose compose(sys);
      result.order = compose.OrderFiles(paths).order;
      return result;
    }
  }
  return result;
}

GbpOutPlan GbpPlanOut(SysApi* sys, const GbpOptions& options, const std::string& path) {
  GbpOutPlan plan;
  plan.path = path;
  FccdOptions fccd_options;
  fccd_options.align = options.align;
  Fccd fccd(sys, fccd_options);
  const auto file_plan = fccd.PlanFile(path);
  if (!file_plan.has_value()) {
    return plan;
  }
  plan.extents.reserve(file_plan->units.size());
  for (const UnitPlan& u : file_plan->units) {
    plan.extents.push_back(u.extent);
  }
  return plan;
}

std::uint64_t GbpStreamOut(SysApi* sys, const GbpOutPlan& plan, ProbeEngine* engine) {
  const int fd = sys->Open(plan.path);
  if (fd < 0) {
    return 0;
  }
  ProbeEngine local(sys);
  if (engine == nullptr) {
    engine = &local;
  }
  std::uint64_t streamed = 0;
  constexpr std::uint64_t kChunk = 1ULL * 1024 * 1024;
  for (const Extent& e : plan.extents) {
    std::vector<TimedPread> reqs;
    reqs.reserve(static_cast<std::size_t>((e.length + kChunk - 1) / kChunk));
    for (std::uint64_t off = 0; off < e.length; off += kChunk) {
      reqs.push_back(TimedPread{fd, std::min(kChunk, e.length - off), e.offset + off});
    }
    for (const ProbeSample& s : engine->RunPreads(reqs)) {
      if (s.rc < 0) {
        (void)sys->Close(fd);
        return streamed;
      }
      streamed += static_cast<std::uint64_t>(s.rc);
    }
  }
  (void)sys->Close(fd);
  return streamed;
}

}  // namespace gray
