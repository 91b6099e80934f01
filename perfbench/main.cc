// graybench: runs one benchmark workload and prints its metrics.
//
//   graybench --workload load_steady|ckpt_restart --seed N
//             --seconds S --trace 0|1 --out DIR [--commit ID]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": ops, "failed": ops, "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Lines before it show the same numbers as a table, plus
// the host shape and the virtual digest. DIR receives the checkpoint files,
// result-<workload>-<seed>-<trace>.json (everything printed, plus the host
// shape) and, in a traced run, spans-<workload>-<seed>.json (Chrome trace
// format, loadable in Perfetto).
//
// Exit status is 0 only when every check passed: the workload's pinned
// digest, the repetitions of its unit reproducing each other bit for bit,
// and the span nesting.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/graybench.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  const char* clock = "";  // "host", "virtual" or "" for plain counts
};

// The end-to-end metrics BENCHMARK.json lists, in its order.
// Median over the untraced repetitions of a per-repetition value.
double UntracedMedian(const Report& r, const std::vector<double>& per_unit) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < per_unit.size(); ++i) {
    if (!r.unit_traced[i]) {
      xs.push_back(per_unit[i]);
    }
  }
  return Median(xs);
}

std::vector<Metric> EndToEnd(const Report& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double ops = static_cast<double>(r.attempted);
  return {
      {"setup_s", Median(r.setup_s), "s", "host"},
      {"ops_per_host_s", UntracedMedian(r, r.unit_rate), "1/s", "host"},
      {"op_host_ms.p50", UntracedMedian(r, r.unit_p50_ms), "ms", "host"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", "host"},
      {"allocs_per_op", ops > 0 ? static_cast<double>(r.timed_allocs) / ops : 0.0, "count",
       "host"},
      {"virt_ms.p50", r.virt_p50_ms, "ms", "virtual"},
      {"virt_ms.p90", r.virt_p90_ms, "ms", "virtual"},
      {"goodput_per_virt_s", r.virt_s > 0 ? static_cast<double>(r.virt_ok) / r.virt_s : 0.0,
       "1/s", "virtual"},
  };
}

// The layer a span's self time belongs to: its name up to the last dot
// ("image_io.save" -> "image_io"); undotted names are graybench's own.
std::string LayerOf(const char* name) {
  const char* dot = std::strrchr(name, '.');
  return dot == nullptr ? "graybench" : std::string(name, dot);
}

const char* const kTimedCalls[] = {
    "os.machine_new",   "workloads.populate",       "os.snapshot",
    "os.fork",          "image_io.save",            "image_io.load",
    "os.run_processes", "service.run_load_machine", "service.setup_twin",
};
const char* const kLayers[] = {"os", "image_io", "workloads", "service", "gray.mac", "graybench"};

// Per-layer metrics: span aggregates, each layer's share of the traced
// host time, and the counters the workload read. Self-check failures of the
// span tree go to *errors.
std::vector<Metric> PerLayer(const Report& r, const std::vector<Span>& spans,
                             std::vector<std::string>* errors) {
  struct Agg {
    double ns = 0.0;
    double allocs = 0.0;
    double units = 0.0;
    double spans = 0.0;
    std::vector<double> ms;
  };
  std::map<std::string, Agg> by_name;
  std::map<std::string, double> self_ns;
  std::map<std::string, double> self_allocs;
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<double> child_allocs(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      errors->push_back(std::string("span ") + s.name + " lies outside its parent " + p.name);
    }
    child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    child_allocs[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.allocs);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    Agg& a = by_name[s.name];
    a.ns += ns;
    a.allocs += static_cast<double>(s.allocs);
    a.units += static_cast<double>(s.units);
    a.spans += 1.0;
    a.ms.push_back(ns / 1e6);
    if (ns < child_ns[i]) {
      errors->push_back(std::string("span ") + s.name + " is shorter than its children");
    }
    if (s.op > 0) {  // the timed phase
      self_ns[LayerOf(s.name)] += ns - child_ns[i];
      self_allocs[LayerOf(s.name)] += static_cast<double>(s.allocs) - child_allocs[i];
    }
  }
  auto mean = [](double total, double n) { return n > 0.0 ? total / n : 0.0; };

  std::vector<Metric> out;
  for (const char* name : kTimedCalls) {
    const Agg& a = by_name[name];
    out.push_back({std::string(name) + ".calls", a.units, "count"});
    out.push_back({std::string(name) + ".host_ms", mean(a.ns, a.spans) / 1e6, "ms", "host"});
    out.push_back({std::string(name) + ".allocs", mean(a.allocs, a.spans), "count", "host"});
  }
  const double image_mb = r.layer.count("image_io.image_mb") ? r.layer.at("image_io.image_mb") : 0;
  for (const char* name : {"image_io.save", "image_io.load"}) {
    const Agg& a = by_name[name];
    out.push_back({std::string(name) + ".mb_per_host_s",
                   a.ns > 0.0 ? image_mb * a.spans / (a.ns / 1e9) : 0.0, "MB/s", "host"});
  }
  const Agg& alloc = by_name["gray.mac.alloc"];
  out.push_back({"gray.mac.alloc.calls", alloc.units, "count"});
  out.push_back({"gray.mac.alloc.host_ms.p50", Quantile(alloc.ms, 0.50), "ms", "host"});
  out.push_back({"gray.mac.alloc.host_ms.p90", Quantile(alloc.ms, 0.90), "ms", "host"});
  out.push_back({"gray.mac.alloc.allocs", mean(alloc.allocs, alloc.spans), "count", "host"});
  const Agg& touch = by_name["gray.mac.touch"];
  out.push_back({"gray.mac.touch.calls", touch.units, "count"});
  out.push_back({"gray.mac.touch.host_ns_per_page", mean(touch.ns, touch.units), "ns", "host"});

  const double traced_ns = r.timed_host_s * r.threads * 1e9;
  for (const char* layer : kLayers) {
    out.push_back({std::string(layer) + ".share",
                   traced_ns > 0.0 ? self_ns[layer] / traced_ns : 0.0, "share", "host"});
    out.push_back({std::string(layer) + ".allocs_per_op",
                   r.traced_ops > 0 ? self_allocs[layer] / static_cast<double>(r.traced_ops)
                                    : 0.0,
                   "count", "host"});
  }

  struct Counter {
    const char* name;
    const char* unit;
    const char* clock;
  };
  static const Counter kCounters[] = {
      {"service.requests", "count", "virtual"},
      {"service.errors", "count", "virtual"},
      {"service.timeouts", "count", "virtual"},
      {"service.late_starts", "count", "virtual"},
      {"service.setup_ms_per_machine", "ms", "host"},
      {"service.host_us_per_request", "us", "host"},
      {"sim.events", "count", "virtual"},
      {"sim.host_ns_per_event", "ns", "host"},
      {"os.syscalls", "count", "virtual"},
      {"os.host_ns_per_syscall", "ns", "host"},
      {"os.fsyncs", "count", "virtual"},
      {"os.chaos.injected_errors", "count", "virtual"},
      {"os.chaos.stalled_allocs", "count", "virtual"},
      {"os.chaos.degraded_requests", "count", "virtual"},
      {"cache.hits", "count", "virtual"},
      {"cache.misses", "count", "virtual"},
      {"cache.hit_ratio", "ratio", "virtual"},
      {"cache.file_pages", "count", "virtual"},
      {"disk.requests", "count", "virtual"},
      {"disk.queued", "count", "virtual"},
      {"disk.coalesced", "count", "virtual"},
      {"disk.max_depth", "count", "virtual"},
      {"disk.busy_share", "share", "virtual"},
      {"disk.service_ms.p50", "ms", "virtual"},
      {"disk.service_ms.p99", "ms", "virtual"},
      {"gray.probe.probes", "count", "virtual"},
      {"gray.probe.batches", "count", "virtual"},
      {"gray.probe.failed", "count", "virtual"},
      {"gray.probe.retried", "count", "virtual"},
      {"gray.probe.host_ns_per_probe", "ns", "host"},
      {"gray.probe.virt_share", "share", "virtual"},
      {"gray.mac.pages_probed", "count", "virtual"},
      {"gray.mac.slow_touches", "count", "virtual"},
      {"gray.mac.aborted_verifications", "count", "virtual"},
      {"gray.mac.retries", "count", "virtual"},
      {"gray.mac.recalibrations", "count", "virtual"},
      {"gray.mac.admit_ratio", "ratio", "virtual"},
      {"mem.evictions", "count", "virtual"},
      {"vm.swap_ins", "count", "virtual"},
      {"vm.swap_outs", "count", "virtual"},
      {"image_io.image_mb", "MB", ""},
  };
  for (const Counter& c : kCounters) {
    const auto it = r.layer.find(c.name);
    out.push_back({c.name, it != r.layer.end() ? it->second : 0.0, c.unit, c.clock});
  }

  std::vector<double> traced;
  std::vector<double> untraced;
  for (std::size_t i = 0; i < r.unit_rate.size(); ++i) {
    (r.unit_traced[i] ? traced : untraced).push_back(r.unit_rate[i]);
  }
  out.push_back({"trace.overhead_share",
                 traced.empty() || untraced.empty() ? 0.0
                                                    : Median(untraced) / Median(traced) - 1.0,
                 "share", "host"});
  out.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  return out;
}

std::string Json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %-8s %18.6g %s\n", m.name.c_str(), m.clock, m.value, m.unit.c_str());
  }
}

// Chrome trace-event JSON of every span, one track per host thread.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%d,\"allocs\":%llu,"
                 "\"units\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.units));
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

const char* Arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

int Main(int argc, char** argv) {
  Options options;
  options.workload = Arg(argc, argv, "--workload", "");
  options.seed = std::strtoull(Arg(argc, argv, "--seed", "0"), nullptr, 0);
  options.seconds = std::atof(Arg(argc, argv, "--seconds", "10"));
  options.trace = std::atoi(Arg(argc, argv, "--trace", "0")) != 0;
  options.out_dir = Arg(argc, argv, "--out", ".");
  const std::string commit = Arg(argc, argv, "--commit", "unknown");
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Seed 0 is the committed examples/load_steady.scn seed; every other seed
  // names another, equally reproducible, set of inputs.
  options.root_seed = 0x10AD ^ (options.seed * 0x9E3779B97F4A7C15ULL);

  Report (*run)(const Options&) = nullptr;
  if (options.workload == "load_steady") {
    run = RunLoadSteady;
    // One host thread: with two or more, one thread slowed by a neighbour on
    // the shared host makes its share of the machines slow, and op_host_ms
    // and set-up time turned bimodal from run to run.
    options.threads = 1;
  } else if (options.workload == "ckpt_restart") {
    run = RunCkptRestart;
  } else {
    std::fprintf(stderr, "graybench: unknown --workload '%s'\n", options.workload.c_str());
    return 2;
  }

  std::printf("graybench %s seed=%llu trace=%d seconds=%g\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              options.seconds);
  char host[512];
  std::snprintf(host, sizeof(host),
                "{\"nproc\": %d, \"threads\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"seed\": %llu, \"root_seed\": \"%#llx\", \"commit\": \"%s\"}",
                nproc, options.threads, GRAYBENCH_BUILD_TYPE, GRAYBENCH_COMPILER,
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(options.root_seed), commit.c_str());
  std::printf("host: %s\n", host);
  std::fflush(stdout);

  Report report = run(options);
  const std::vector<Span> spans = CollectSpans();
  const std::vector<Metric> e2e = EndToEnd(report);
  const std::vector<Metric> layers = PerLayer(report, spans, &report.errors);
  // Printed, not gated: on ckpt_restart it follows the host's fsync tail.
  const double op_p90_ms = UntracedMedian(report, report.unit_p90_ms);
  const double failed_share =
      report.virt_samples > 0
          ? 1.0 - static_cast<double>(report.virt_ok) / static_cast<double>(report.virt_samples)
          : 1.0;

  PrintTable(options.trace ? "end-to-end (from the untraced repetitions of this traced run):"
                           : "end-to-end:",
             e2e);
  std::printf("  %-36s %-8s %18.6g %s\n", "op_host_ms.p90", "host", op_p90_ms, "ms");
  std::printf("  %-36s %-8s %18.6g %s\n", "failed_share", "virtual",
              report.errors.empty() ? failed_share : 1.0, "share");
  if (report.virt_samples >= 1000) {
    std::printf("  %-36s %-8s %18.6g %s\n", "virt_ms.p99", "virtual", report.virt_p99_ms, "ms");
  } else {
    std::printf("  %-36s %-8s %18s (%llu virtual samples, fewer than 1000)\n", "virt_ms.p99",
                "virtual", "n/a", static_cast<unsigned long long>(report.virt_samples));
  }
  std::printf("  samples: %zu ops timed on the host, %llu virtual samples\n",
              report.op_host_ms.size(), static_cast<unsigned long long>(report.virt_samples));
  std::printf("  ops_per_host_s of each repetition:");
  for (std::size_t i = 0; i < report.unit_rate.size(); ++i) {
    std::printf(" %.4g%s", report.unit_rate[i], report.unit_traced[i] ? "(traced)" : "");
  }
  std::printf("\n  op_host_ms.p90 of each repetition:");
  for (std::size_t i = 0; i < report.unit_p90_ms.size(); ++i) {
    std::printf(" %.4g%s", report.unit_p90_ms[i], report.unit_traced[i] ? "(traced)" : "");
  }
  std::printf("\n  setup_s of each repetition:");
  for (const double s : report.setup_s) {
    std::printf(" %.4g", s);
  }
  std::printf("\n");
  if (options.trace) {
    PrintTable("per-layer:", layers);
  }
  std::printf("virtual digest: %#llx\n", static_cast<unsigned long long>(report.virtual_digest));
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  const bool correct = report.errors.empty();
  const std::string metrics = Json(options.trace ? layers : e2e);
  const std::string tag = options.workload + "-" + std::to_string(options.seed) + "-" +
                          (options.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((options.out_dir + "/result-" + tag + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"host\": %s, \"correct\": %s, "
                 "\"virtual_digest\": \"%#llx\", \"op_host_ms.p90\": %.17g, "
                 "\"failed_share\": %.17g, \"virt_ms.p99\": %.17g, \"virt_samples\": %llu,\n"
                 " \"end_to_end\": %s,\n \"per_layer\": %s}\n",
                 options.workload.c_str(), host, correct ? "true" : "false",
                 static_cast<unsigned long long>(report.virtual_digest), op_p90_ms, failed_share,
                 report.virt_p99_ms, static_cast<unsigned long long>(report.virt_samples),
                 Json(e2e).c_str(), Json(layers).c_str());
    std::fclose(f);
  }
  if (options.trace) {
    WriteSpans(options.out_dir + "/spans-" + options.workload + "-" +
                   std::to_string(options.seed) + ".json",
               spans);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(correct ? report.failed : report.attempted),
              metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
