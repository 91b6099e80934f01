// Table 1 — Gray-box techniques in prior systems, demonstrated live.
//
// The paper surveys three existing systems that were gray-box before the
// term existed: TCP congestion control, implicit coscheduling, and MS
// Manners. This bench runs all three rebuilt as kernel citizens — real
// processes on a simulated Machine, exchanging real datagrams through a
// simulated link (src/gray/classic/) — and prints (a) the technique matrix
// from the paper and (b) measured evidence that each system's gray-box
// inference actually works, plus the TCP-over-wireless cautionary tale
// (§3: misidentified gray-box knowledge fails in new environments).
//
// Writes results/BENCH_table1_prior_systems.json; the goodput/fairness/
// utilization ratios come from the deterministic simulator, so CI gates
// them additively against results/baselines/ (see scripts/check_perf.py).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/gray/classic/scenario.h"

namespace {

graysim::Nanos g_virtual_total = 0;

void PrintMatrix() {
  gbench::PrintHeader("Table 1: gray-box techniques used in existing systems");
  std::printf("%-13s %-30s %-32s %-30s\n", "", "TCP", "Implicit Coscheduling",
              "MS Manners");
  std::printf("%-13s %-30s %-32s %-30s\n", "Knowledge", "msg dropped if congestion",
              "dest. scheduled to send msg", "symmetric performance impact");
  std::printf("%-13s %-30s %-32s %-30s\n", "Outputs", "time before ACK arrives",
              "arrival of requests/responses", "reported progress of process");
  std::printf("%-13s %-30s %-32s %-30s\n", "Statistics", "mean and variance", "none",
              "EWMA + paired-sample sign test");
  std::printf("%-13s %-30s %-32s %-30s\n", "Benchmarks", "none", "round-trip time",
              "none");
  std::printf("%-13s %-30s %-32s %-30s\n", "Probes", "none", "none", "none");
  std::printf("%-13s %-30s %-32s %-30s\n", "Known state", "none",
              "required for benchmarks", "none (slow convergence)");
  std::printf("%-13s %-30s %-32s %-30s\n", "Feedback", "routers drop msgs as signal",
              "all react to same observations", "none");
}

void RunTcp(gbench::JsonResults* json) {
  gbench::PrintHeader("TCP congestion control (kernel-backed reproduction)");
  std::printf("%-28s %10s %10s %10s %10s %10s\n", "network", "goodput", "cdrops",
              "losses", "timeouts", "fairness");
  const auto row = [&](const char* name, const grayclassic::TcpScenarioResult& r) {
    std::printf("%-28s %10.3f %10llu %10llu %10llu %10.3f\n", name, r.goodput,
                static_cast<unsigned long long>(r.congestion_drops),
                static_cast<unsigned long long>(r.random_losses),
                static_cast<unsigned long long>(r.timeouts), r.fairness);
    g_virtual_total += r.virtual_time;
  };

  grayclassic::TcpScenarioOptions wired;
  wired.num_senders = 1;
  wired.net.queue_capacity = 64;
  const grayclassic::TcpScenarioResult w = RunTcpScenario(wired);
  row("wired (loss==congestion OK)", w);

  grayclassic::TcpScenarioOptions wireless = wired;
  wireless.net.drop_prob = 0.02;
  const grayclassic::TcpScenarioResult l = RunTcpScenario(wireless);
  row("wireless 2% (assumption broken)", l);

  grayclassic::TcpScenarioOptions shared;
  shared.num_senders = 4;
  shared.net.queue_capacity = 64;
  const grayclassic::TcpScenarioResult s = RunTcpScenario(shared);
  row("shared bottleneck, 4 senders", s);

  grayclassic::TcpScenarioOptions red = shared;
  red.net.queue_capacity = 16;
  red.net.red = true;
  const grayclassic::TcpScenarioResult rr = RunTcpScenario(red);
  row("RED router, q=16", rr);

  grayclassic::TcpScenarioOptions tail = shared;
  tail.net.queue_capacity = 16;
  const grayclassic::TcpScenarioResult tr = RunTcpScenario(tail);
  row("tail-drop router, q=16", tr);

  std::uint64_t wireless_collapses = l.timeouts;
  for (const grayclassic::TcpIclResult& sr : l.senders) {
    wireless_collapses += sr.fast_retransmits;
  }
  std::printf("-> random loss is misread as congestion: goodput drops %.1fx and\n"
              "   all %llu wireless window collapses happened with zero queue drops\n",
              l.goodput > 0.0 ? w.goodput / l.goodput : 0.0,
              static_cast<unsigned long long>(wireless_collapses));
  std::printf("-> feedback works: 4 AIMD senders converge to fairness %.3f; RED\n"
              "   holds the queue at %.1f vs %.1f under tail drop\n",
              s.fairness, rr.avg_queue, tr.avg_queue);

  json->Add("tcp_wired_goodput", w.goodput, "ratio");
  json->Add("tcp_wireless_goodput", l.goodput, "ratio");
  json->Add("tcp_shared_fairness", s.fairness, "ratio");
  json->Add("tcp_shared_goodput", s.goodput, "ratio");
  json->Add("tcp_red_avg_queue", rr.avg_queue, "pkts");
  json->Add("tcp_taildrop_avg_queue", tr.avg_queue, "pkts");
}

void RunCosched(gbench::JsonResults* json) {
  gbench::PrintHeader("Implicit coscheduling (kernel-backed reproduction)");
  std::printf("%-18s %10s %12s %10s %12s %12s\n", "wait policy", "job ms",
              "spin ms", "blocks", "fast waits", "local share");
  for (const auto& [name, key, policy] :
       {std::tuple{"block-immediate", "block",
                   grayclassic::WaitPolicy::kBlockImmediate},
        std::tuple{"spin-forever", "spin", grayclassic::WaitPolicy::kSpinForever},
        std::tuple{"two-phase", "two_phase", grayclassic::WaitPolicy::kTwoPhase}}) {
    grayclassic::CoschedScenarioOptions options;
    options.policy = policy;
    const grayclassic::CoschedScenarioResult r = RunCoschedScenario(options);
    g_virtual_total += r.virtual_time;
    std::printf("%-18s %10.1f %12.1f %10llu %12llu %12.3f\n", name,
                static_cast<double>(r.job_time) / 1e6,
                static_cast<double>(r.spin_time) / 1e6,
                static_cast<unsigned long long>(r.blocks),
                static_cast<unsigned long long>(r.fast_waits), r.local_cpu_share);
    json->Add(std::string("cosched_local_share_") + key, r.local_cpu_share, "ratio");
    json->Add(std::string("cosched_job_ms_") + key,
              static_cast<double>(r.job_time) / 1e6, "ms");
  }
  std::printf("-> the ring reads remote scheduling state from response timing:\n"
              "   spinning catches coordinated responses but burns shared CPU that\n"
              "   blocking hands to local jobs; two-phase bounds the burn per wait.\n");
}

void RunManners(gbench::JsonResults* json) {
  gbench::PrintHeader("MS Manners (kernel-backed reproduction)");
  const auto mid_fg = [](graysim::Nanos t) {
    return t >= 1'300'000'000 && t < 2'700'000'000;
  };
  grayclassic::MannersScenarioOptions governed;
  governed.fg_active = mid_fg;
  grayclassic::MannersScenarioOptions greedy = governed;
  greedy.governed = false;
  const grayclassic::MannersScenarioResult manners = RunMannersScenario(governed);
  const grayclassic::MannersScenarioResult raw = RunMannersScenario(greedy);
  g_virtual_total += manners.virtual_time + raw.virtual_time;
  std::printf("%-24s %14s %14s %12s\n", "background policy", "fg slowdown",
              "idle util", "suspensions");
  std::printf("%-24s %14.2f %14.2f %12s\n", "greedy (no regulation)",
              raw.fg_slowdown, raw.idle_utilization, "-");
  std::printf("%-24s %14.2f %14.2f %12llu\n", "MS Manners", manners.fg_slowdown,
              manners.idle_utilization,
              static_cast<unsigned long long>(manners.bg.suspensions));
  std::printf("-> progress-based self-regulation removes nearly all foreground\n"
              "   impact while still consuming most idle capacity.\n");
  json->Add("manners_idle_utilization", manners.idle_utilization, "ratio");
  json->Add("manners_fg_slowdown", manners.fg_slowdown, "x");
  json->Add("greedy_fg_slowdown", raw.fg_slowdown, "x");
}

}  // namespace

int main() {
  gbench::JsonResults json("table1_prior_systems");
  PrintMatrix();
  RunTcp(&json);
  RunCosched(&json);
  RunManners(&json);
  json.set_virtual_ns(g_virtual_total);
  json.Write();
  return 0;
}
