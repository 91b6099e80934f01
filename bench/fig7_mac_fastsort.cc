// Figure 7 — Performance of the Sort with MAC.
//
// "We execute the first phase of four competing copies of fastsort; each
// sorts 5 million 100-byte records (477 MB)... each process reads and
// writes from its own disk and the fifth disk is used only for paging. The
// file cache is flushed between each test."
//
// Static pass sizes sweep the x-axis; gb-fastsort sizes each pass with
// MAC's gb_alloc(min=100 MB, max=477 MB, multiple=100). The bench also
// reproduces the §4.3.3 availability check: with x MB held by an active
// competitor, MAC returns ~(available - x).
//
// Expected shape: static performance improves with pass size until ~150 MB,
// then collapses once 4 passes overcommit memory (~200 MB: paging).
// gb-fastsort pages only while its MAC admissions race, far less than the
// overcommitted static runs; its average pass lands near the best static
// size, with overhead split between probing and admission waiting.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gray/mac/mac.h"
#include "src/gray/sim_sys.h"
#include "src/workloads/fastsort.h"
#include "src/workloads/filegen.h"

using graysim::Os;
using graysim::Pid;
using graysim::PlatformProfile;

namespace {

constexpr std::uint64_t kInputBytes = 477ULL * 1024 * 1024;
constexpr int kProcs = 4;

struct ConfigResult {
  gbench::Sample total;
  double read = 0.0;
  double sort = 0.0;
  double write = 0.0;
  double probe = 0.0;
  double wait = 0.0;
  double avg_pass_mb = 0.0;
  std::uint64_t swap_ins = 0;
};

ConfigResult RunConfig(bool use_mac, std::uint64_t pass_mb) {
  Os os(PlatformProfile::Linux22());
  const Pid setup_pid = os.default_pid();
  for (int i = 0; i < kProcs; ++i) {
    const std::string input = "/d" + std::to_string(i) + "/input";
    if (!graywork::MakeFile(os, setup_pid, input, kInputBytes)) {
      std::fprintf(stderr, "input creation failed\n");
      std::exit(1);
    }
  }
  os.FlushFileCache();
  const std::uint64_t swap_before = os.stats().swap_ins;

  std::vector<graywork::FastsortReport> reports(kProcs);
  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < kProcs; ++i) {
    bodies.push_back([&, i](Pid pid) {
      graywork::Fastsort sort(&os, pid);
      graywork::FastsortOptions options;
      options.input = "/d" + std::to_string(i) + "/input";
      options.run_dir = "/d" + std::to_string(i) + "/runs";
      options.record_bytes = 100;
      if (use_mac) {
        options.use_mac = true;
        options.mac_min = 100 * gbench::kMb;
        options.mac_max = kInputBytes;
      } else {
        options.pass_bytes = pass_mb * gbench::kMb;
      }
      reports[i] = sort.Run(options);
    });
  }
  os.RunProcesses(bodies);

  ConfigResult result;
  std::vector<double> totals;
  for (const auto& r : reports) {
    totals.push_back(gbench::ToSec(r.total));
    result.read += gbench::ToSec(r.read) / kProcs;
    result.sort += gbench::ToSec(r.sort) / kProcs;
    result.write += gbench::ToSec(r.write) / kProcs;
    result.probe += gbench::ToSec(r.probe_overhead) / kProcs;
    result.wait += gbench::ToSec(r.wait_overhead) / kProcs;
    result.avg_pass_mb += r.avg_pass_mb / kProcs;
  }
  result.total = gbench::Sample::Of(totals);
  result.swap_ins = os.stats().swap_ins - swap_before;
  return result;
}

// §4.3.3: "if one process allocates x MB of data and accesses it in a
// variety of patterns, then MAC reliably returns (830 - x) MB".
void RunAvailabilityCheck() {
  gbench::PrintHeader("§4.3.3: MAC-discovered memory vs active competitor footprint");
  std::printf("%16s %18s %18s\n", "competitor x(MB)", "MAC returns (MB)", "expected ~(830-x)");
  for (const std::uint64_t x_mb : {0ULL, 100ULL, 200ULL, 400ULL, 600ULL}) {
    Os os(PlatformProfile::Linux22());
    std::uint64_t got = 0;
    bool done = false;
    std::vector<std::function<void(Pid)>> bodies;
    bodies.push_back([&, x_mb](Pid pid) {
      if (x_mb == 0) {
        while (!done) {
          os.Sleep(pid, graysim::Millis(50.0));
        }
        return;
      }
      const std::uint64_t pages = x_mb * gbench::kMb / 4096;
      const graysim::VmAreaId area = os.VmAlloc(pid, x_mb * gbench::kMb);
      while (!done) {
        for (std::uint64_t p = 0; p < pages && !done; ++p) {
          os.VmTouch(pid, area, p, true);
        }
      }
      os.VmFree(pid, area);
    });
    bodies.push_back([&](Pid pid) {
      gray::SimSys sys(&os, pid);
      gray::Mac mac(&sys);
      auto alloc = mac.GbAlloc(16 * gbench::kMb, 830 * gbench::kMb, gbench::kMb);
      got = alloc.has_value() ? alloc->bytes() : 0;
      done = true;
    });
    os.RunProcesses(bodies);
    std::printf("%16llu %18llu %18llu\n", static_cast<unsigned long long>(x_mb),
                static_cast<unsigned long long>(got / gbench::kMb),
                static_cast<unsigned long long>(830 - x_mb));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = gbench::FlagBool(argc, argv, "quick");
  gbench::JsonResults json("fig7_mac_fastsort");

  gbench::PrintHeader(
      "Figure 7: four competing 477 MB fastsorts (per-process averages, seconds)");
  std::printf("%-12s %16s %8s %8s %8s %8s %8s %10s %9s\n", "pass size", "total(s)",
              "read", "sort", "write", "probe", "wait", "avgpass MB", "swap-ins");

  std::vector<std::uint64_t> static_sizes = {50, 100, 150, 190, 200, 238};
  if (quick) {
    static_sizes = {100, 150, 200};
  }
  for (const std::uint64_t mb : static_sizes) {
    const ConfigResult r = RunConfig(/*use_mac=*/false, mb);
    std::printf("%4lluMB static %7.1f +/- %5.1f %8.1f %8.1f %8.1f %8.1f %8.1f %10.0f %9llu\n",
                static_cast<unsigned long long>(mb), r.total.mean, r.total.stddev, r.read,
                r.sort, r.write, r.probe, r.wait, r.avg_pass_mb,
                static_cast<unsigned long long>(r.swap_ins));
    json.Add("static_" + std::to_string(mb) + "mb_total", r.total.mean, "s");
    json.Add("static_" + std::to_string(mb) + "mb_swap_ins",
             static_cast<double>(r.swap_ins));
  }
  const ConfigResult gb = RunConfig(/*use_mac=*/true, 0);
  std::printf("%-12s %7.1f +/- %5.1f %8.1f %8.1f %8.1f %8.1f %8.1f %10.0f %9llu\n",
              "gb-fastsort", gb.total.mean, gb.total.stddev, gb.read, gb.sort, gb.write,
              gb.probe, gb.wait, gb.avg_pass_mb,
              static_cast<unsigned long long>(gb.swap_ins));
  json.Add("gb_fastsort_total", gb.total.mean, "s");
  json.Add("gb_fastsort_probe", gb.probe, "s");
  json.Add("gb_fastsort_wait", gb.wait, "s");
  json.Add("gb_fastsort_avg_pass_mb", gb.avg_pass_mb, "MB");
  json.Add("gb_fastsort_swap_ins", static_cast<double>(gb.swap_ins));
  json.set_virtual_ns(static_cast<graysim::Nanos>(gb.total.mean * 1e9));
  json.Write();

  RunAvailabilityCheck();

  std::printf(
      "\nExpected shape (paper): static improves with pass size until ~150 MB,\n"
      "then paging wrecks 200 MB+ (4 x 200 MB overcommits 830 MB usable memory).\n"
      "gb-fastsort lands near the best static pass size and pays its premium in\n"
      "probe + admission-wait overhead (~54%% in the paper). Here it pages only\n"
      "while its MAC admissions race, far less than the overcommitted static runs.\n");
  return 0;
}
