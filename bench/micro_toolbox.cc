// Gray-toolbox microbenchmarks (paper §4.1.2 probe costs + §5 toolbox).
//
// Two parts:
//  1. a google-benchmark suite over the statistics routines, which must be
//     cheap enough to run inline with measurements ("it is important for
//     these operations to be performed with low time and space overhead");
//  2. the platform parameter table the microbenchmark suite measures
//     through the gray-box interface (probe hit/miss costs, disk bandwidth,
//     calibrated access unit — the numbers §4.1.2 quotes).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/gray/sim_sys.h"
#include "src/gray/toolbox/microbench.h"
#include "src/gray/toolbox/stats.h"
#include "src/sim/rng.h"

namespace {

std::vector<double> MakeSamples(std::size_t n, bool bimodal) {
  graysim::Rng rng(42);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = bimodal && (i % 3 == 0) ? 8e6 : 1500.0;
    xs.push_back(base * (0.9 + 0.2 * rng.NextDouble()));
  }
  return xs;
}

void BM_RunningStatsAdd(benchmark::State& state) {
  const std::vector<double> xs = MakeSamples(1024, false);
  for (auto _ : state) {
    gray::RunningStats stats;
    for (const double x : xs) {
      stats.Add(x);
    }
    benchmark::DoNotOptimize(stats.stddev());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RunningStatsAdd);

void BM_Median(benchmark::State& state) {
  const std::vector<double> xs = MakeSamples(static_cast<std::size_t>(state.range(0)), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray::Median(xs));
  }
}
BENCHMARK(BM_Median)->Arg(64)->Arg(1024);

void BM_TwoMeansCluster(benchmark::State& state) {
  const std::vector<double> xs = MakeSamples(static_cast<std::size_t>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray::TwoMeans(xs));
  }
}
BENCHMARK(BM_TwoMeansCluster)->Arg(64)->Arg(1024);

void BM_Pearson(benchmark::State& state) {
  const std::vector<double> xs = MakeSamples(1024, false);
  const std::vector<double> ys = MakeSamples(1024, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray::Pearson(xs, ys));
  }
}
BENCHMARK(BM_Pearson);

void BM_SignTest(benchmark::State& state) {
  const std::vector<double> a = MakeSamples(256, false);
  const std::vector<double> b = MakeSamples(256, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray::SignTest(a, b));
  }
}
BENCHMARK(BM_SignTest);

void BM_DiscardOutliers(benchmark::State& state) {
  const std::vector<double> xs = MakeSamples(1024, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray::DiscardOutliers(xs));
  }
}
BENCHMARK(BM_DiscardOutliers);

void PrintPlatformParameters() {
  gbench::PrintHeader(
      "§4.1.2 / §5: platform parameters measured through the gray-box interface");
  graysim::Os os(graysim::PlatformProfile::Linux22());
  gray::SimSys sys(&os, os.default_pid());
  gray::MicrobenchOptions options;
  options.mem_hint_bytes = os.config().phys_mem_bytes;
  gray::Microbench bench(&sys, options);
  gray::ParamRepository repo;
  if (!bench.RunAll(&repo)) {
    std::printf("microbenchmark suite failed to run\n");
    return;
  }
  std::printf("%-32s %14s\n", "parameter", "value");
  for (const auto& [key, value] : repo.values()) {
    std::printf("%-32s %14.1f\n", key.c_str(), value);
  }
  std::printf(
      "\nPaper quotes: in-cache probes 'a few microseconds', on-disk probes 'a\n"
      "few milliseconds', default access unit 20 MB on its platform.\n");
  std::printf("Serialized repository (persisted form):\n%s", repo.Serialize().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  PrintPlatformParameters();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
