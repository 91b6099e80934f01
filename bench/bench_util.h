// Shared helpers for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper:
// it prints the same rows/series the paper reports, plus the context needed
// to compare shapes (who wins, by what factor, where crossovers fall).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/gray/toolbox/stats.h"
#include "src/obs/metrics.h"
#include "src/os/os.h"

namespace gbench {

// Parses "--key=value" style flags; returns fallback when absent.
inline int FlagInt(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

inline bool FlagBool(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

// Mean and standard deviation of a set of timing samples (seconds).
struct Sample {
  double mean = 0.0;
  double stddev = 0.0;

  static Sample Of(const std::vector<double>& xs) {
    gray::RunningStats stats;
    for (const double x : xs) {
      stats.Add(x);
    }
    return Sample{stats.mean(), stats.stddev()};
  }
};

inline double ToSec(graysim::Nanos t) { return static_cast<double>(t) / 1e9; }

constexpr std::uint64_t kMb = 1024 * 1024;

// Prints a header line followed by a separator of the same width.
inline void PrintHeader(const char* title) {
  std::printf("\n%s\n", title);
  for (const char* p = title; *p != '\0'; ++p) {
    std::putchar('-');
  }
  std::putchar('\n');
}

// Machine-diffable results: collects named metrics during a bench run and
// writes them as results/BENCH_<name>.json, together with the total virtual
// (simulated) time, host wall time (started at construction), peak RSS, and
// process-lifetime heap-allocation counters (from bench/alloc_hook.cc).
class JsonResults {
 public:
  explicit JsonResults(std::string bench_name)
      : name_(std::move(bench_name)), host_start_(std::chrono::steady_clock::now()) {}

  void Add(std::string metric, double value, std::string unit = "") {
    entries_.push_back(Entry{std::move(metric), value, std::move(unit)});
  }

  void set_virtual_ns(graysim::Nanos t) { virtual_ns_ = t; }

  // Host seconds since construction. Benches that gate their wall time in
  // CI emit this as an explicit metric (unit "host_s") so check_perf can
  // hold it to an absolute ceiling rather than the loose ops/s factor.
  [[nodiscard]] double HostSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start_)
        .count();
  }

  // Writes results/BENCH_<name>.json (creating the directory if needed)
  // relative to the current working directory. Returns false on I/O error.
  bool Write(const char* dir = "results") {
    ::mkdir(dir, 0755);  // best effort; existing directory is fine
    const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    const double host_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start_)
            .count();
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in KB on Linux
    const AllocCounts allocs = AllocSnapshot();
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", Escaped(name_).c_str());
    std::fprintf(f, "  \"virtual_time_s\": %.6f,\n",
                 static_cast<double>(virtual_ns_) / 1e9);
    std::fprintf(f, "  \"host_time_s\": %.6f,\n", host_s);
    // The host shape the times were measured on (online CPUs).
    std::fprintf(f, "  \"nproc\": %ld,\n", ::sysconf(_SC_NPROCESSORS_ONLN));
    std::fprintf(f, "  \"peak_rss_mb\": %.1f,\n",
                 static_cast<double>(usage.ru_maxrss) / 1024.0);
    std::fprintf(f, "  \"heap_allocs\": %llu,\n",
                 static_cast<unsigned long long>(allocs.allocs));
    std::fprintf(f, "  \"heap_alloc_mb\": %.1f,\n",
                 static_cast<double>(allocs.bytes) / (1024.0 * 1024.0));
    std::fprintf(f, "  \"metrics\": [");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"metric\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ",", Escaped(entries_[i].metric).c_str(),
                   entries_[i].value, Escaped(entries_[i].unit).c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string metric;
    double value;
    std::string unit;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::chrono::steady_clock::time_point host_start_;
  graysim::Nanos virtual_ns_ = 0;
  std::vector<Entry> entries_;
};

// Drains every sample of `registry` into `results`, one JSON metric per
// sample. This is how a bench ships the kernel/probe-side story (cache
// hits, disk service-time percentiles, chaos injections) next to its
// timings without hand-picking counters.
inline void AddMetrics(JsonResults* results, const obs::MetricsRegistry& registry) {
  for (const obs::MetricsRegistry::Sample& s : registry.Collect()) {
    results->Add(s.name, s.value, s.unit);
  }
}

}  // namespace gbench

#endif  // BENCH_BENCH_UTIL_H_
