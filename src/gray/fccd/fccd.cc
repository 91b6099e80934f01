#include "src/gray/fccd/fccd.h"

#include <algorithm>
#include <cassert>

namespace gray {

std::uint64_t FilePlan::TotalBytes() const {
  std::uint64_t total = 0;
  for (const UnitPlan& u : units) {
    total += u.extent.length;
  }
  return total;
}

Fccd::Fccd(SysApi* sys, FccdOptions options, const ParamRepository* repo)
    : sys_(sys),
      options_(options),
      rng_state_((options.seed != 0 ? options.seed : sys->Now() ^ 0x5eedULL) | 1),
      // Unhardened, probes fire once and keep what came back (legacy).
      engine_(sys, ProbeEngineOptions{options.hardened ? ProbeEngineOptions{}.max_retries : 0}) {
  if (repo != nullptr) {
    // The calibrated access unit from the microbenchmark repository; an
    // explicitly non-default option wins.
    if (options_.access_unit == FccdOptions{}.access_unit) {
      if (const auto v = repo->Get(params::kFccdAccessUnitBytes); v.has_value() && *v > 0) {
        options_.access_unit = static_cast<std::uint64_t>(*v);
      }
    }
    usage_.Record(Technique::kMicrobenchmarks);
  }
  // Snap units to the record alignment so extents never split a record.
  if (options_.align > 1) {
    options_.access_unit = std::max(options_.align,
                                    options_.access_unit / options_.align * options_.align);
    options_.prediction_unit =
        std::max(options_.align, options_.prediction_unit / options_.align * options_.align);
  }
  options_.prediction_unit = std::min(options_.prediction_unit, options_.access_unit);

  usage_.Record(Technique::kAlgorithmicKnowledge);
  usage_.Describe(Technique::kAlgorithmicKnowledge,
                  "LRU-like replacement evicts files in long runs");
  usage_.Describe(Technique::kMonitorOutputs, "time for 1-byte read probes");
  usage_.Describe(Technique::kStatistics, "sort units by probe time");
  usage_.Describe(Technique::kMicrobenchmarks, "access unit from disk bandwidth curve");
  usage_.Describe(Technique::kProbes, "random byte per prediction unit");
  usage_.Describe(Technique::kFeedback, "access-unit-sized reads recache in units");
}

std::uint64_t Fccd::NextRandom() {
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TimedPread Fccd::ProbeRequest(int fd, std::uint64_t lo, std::uint64_t hi) {
  assert(hi > lo);
  return TimedPread{fd, 1, lo + NextRandom() % (hi - lo)};
}

std::vector<ProbeSample> Fccd::RunProbes(std::span<const TimedPread> reqs) {
  probes_issued_ += reqs.size();
  usage_.Record(Technique::kProbes, reqs.size());
  usage_.Record(Technique::kMonitorOutputs, reqs.size());
  return engine_.RunPreads(reqs);
}

std::optional<FilePlan> Fccd::PlanFileViaMincore(const std::string& path,
                                                 std::uint64_t size) {
  const int fd = sys_->Open(path);
  if (fd < 0) {
    return std::nullopt;
  }
  std::vector<bool> resident;
  const int rc = sys_->Mincore(fd, 0, size, &resident);
  (void)sys_->Close(fd);
  if (rc < 0) {
    return std::nullopt;  // platform without mincore: caller probes instead
  }
  const std::uint64_t ps = sys_->PageSize();
  FilePlan plan;
  plan.path = path;
  plan.file_size = size;
  const std::uint64_t au = options_.access_unit;
  for (std::uint64_t start = 0; start < size; start += au) {
    const std::uint64_t end = std::min(size, start + au);
    UnitPlan unit;
    unit.extent = Extent{start, end - start};
    // Ordering key: number of absent pages (no timing involved).
    std::uint64_t absent = 0;
    for (std::uint64_t p = start / ps; p <= (end - 1) / ps && p < resident.size(); ++p) {
      absent += resident[p] ? 0 : 1;
    }
    unit.probe_time = absent;
    unit.probes = 0;
    plan.units.push_back(unit);
  }
  std::stable_sort(plan.units.begin(), plan.units.end(),
                   [](const UnitPlan& a, const UnitPlan& b) {
                     return a.probe_time < b.probe_time;
                   });
  return plan;
}

std::optional<FilePlan> Fccd::PlanFile(const std::string& path) {
  FileInfo info;
  if (sys_->Stat(path, &info) < 0 || info.is_dir) {
    return std::nullopt;
  }
  last_used_mincore_ = false;
  FilePlan plan;
  plan.path = path;
  plan.file_size = info.size;
  if (info.size == 0) {
    return plan;
  }
  if (options_.try_mincore && info.size >= sys_->PageSize()) {
    if (auto via_mincore = PlanFileViaMincore(path, info.size); via_mincore.has_value()) {
      last_used_mincore_ = true;
      return via_mincore;
    }
    // Not available here: continue with the portable probing path.
  }

  const std::uint64_t page = sys_->PageSize();
  if (info.size < page) {
    // Heisenberg guard: probing would fault in the whole file. Report a
    // fake high probe time instead (paper §4.1.4).
    plan.units.push_back(UnitPlan{Extent{0, info.size}, kFakeHighTime, 0});
    return plan;
  }

  const int fd = sys_->Open(path);
  if (fd < 0) {
    return std::nullopt;
  }

  // Plan the whole file up front — one probe per prediction unit inside
  // each access unit (four per default 20 MB unit), offsets drawn in the
  // same order a scalar loop would — then execute as one engine run.
  const std::uint64_t au = options_.access_unit;
  const std::uint64_t pu = options_.prediction_unit;
  std::vector<TimedPread> reqs;
  for (std::uint64_t start = 0; start < info.size; start += au) {
    const std::uint64_t end = std::min(info.size, start + au);
    UnitPlan unit;
    unit.extent = Extent{start, end - start};
    for (std::uint64_t p = start; p < end; p += pu) {
      reqs.push_back(ProbeRequest(fd, p, std::min(end, p + pu)));
      ++unit.probes;
    }
    plan.units.push_back(unit);
  }
  const std::vector<ProbeSample> samples = RunProbes(reqs);
  plan.degraded = engine_.last_run_degraded();
  std::size_t next = 0;
  for (UnitPlan& unit : plan.units) {
    int counted = 0;
    Nanos total = 0;
    for (int i = 0; i < unit.probes; ++i) {
      const ProbeSample& s = samples[next++];
      if (options_.hardened && s.rc < 0) {
        continue;  // a failed probe timed the error path, not the cache
      }
      total += s.latency_ns;
      ++counted;
    }
    if (options_.hardened) {
      unit.probes = counted;
      // Every probe of the unit failed: no observation survives, so assume
      // the worst (on-disk) instead of ranking on error-path latency.
      unit.probe_time = counted > 0 ? total : kFakeHighTime;
    } else {
      unit.probe_time = total;
    }
  }
  (void)sys_->Close(fd);

  // The sort IS the classifier: no in-cache threshold needed, and a
  // multi-level storage hierarchy comes out in nearest-first order.
  usage_.Record(Technique::kStatistics);
  std::stable_sort(plan.units.begin(), plan.units.end(),
                   [](const UnitPlan& a, const UnitPlan& b) {
                     // Compare per-probe averages so short tail units with
                     // fewer probes are comparable to full units.
                     const double ta = a.probes > 0
                                           ? static_cast<double>(a.probe_time) / a.probes
                                           : static_cast<double>(a.probe_time);
                     const double tb = b.probes > 0
                                           ? static_cast<double>(b.probe_time) / b.probes
                                           : static_cast<double>(b.probe_time);
                     return ta < tb;
                   });
  usage_.Record(Technique::kFeedback);
  return plan;
}

std::vector<RankedFile> Fccd::OrderFiles(std::span<const std::string> paths) {
  std::vector<RankedFile> ranked;
  ranked.reserve(paths.size());
  for (const std::string& path : paths) {
    RankedFile rf;
    rf.path = path;
    FileInfo info;
    if (sys_->Stat(path, &info) < 0 || info.is_dir) {
      rf.avg_probe_time = kFakeHighTime * 2;  // rank last
      ranked.push_back(rf);
      continue;
    }
    rf.size = info.size;
    const std::uint64_t page = sys_->PageSize();
    if (info.size < page) {
      rf.avg_probe_time = rf.total_probe_time = kFakeHighTime;
      ranked.push_back(rf);
      continue;
    }
    const int fd = sys_->Open(path);
    if (fd < 0) {
      rf.avg_probe_time = kFakeHighTime * 2;
      ranked.push_back(rf);
      continue;
    }
    std::vector<TimedPread> reqs;
    for (std::uint64_t p = 0; p < info.size; p += options_.prediction_unit) {
      reqs.push_back(ProbeRequest(fd, p, std::min(info.size, p + options_.prediction_unit)));
    }
    for (const ProbeSample& s : RunProbes(reqs)) {
      if (options_.hardened && s.rc < 0) {
        continue;
      }
      rf.total_probe_time += s.latency_ns;
      ++rf.probes;
    }
    (void)sys_->Close(fd);
    if (rf.probes > 0) {
      rf.avg_probe_time = rf.total_probe_time / rf.probes;
    } else {
      // Hardened with every probe failed: assume cold rather than rank 0.
      rf.avg_probe_time = options_.hardened ? kFakeHighTime : 0;
    }
    ranked.push_back(rf);
  }
  usage_.Record(Technique::kStatistics);
  std::stable_sort(ranked.begin(), ranked.end(), [](const RankedFile& a, const RankedFile& b) {
    return a.avg_probe_time < b.avg_probe_time;
  });
  return ranked;
}

}  // namespace gray
