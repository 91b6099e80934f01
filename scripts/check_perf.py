#!/usr/bin/env python3
"""Perf smoke gate: compare fresh bench JSON against committed baselines.

Usage: check_perf.py <fresh_results_dir> <baseline_dir> [--factor=5]
                     [--retained-slack=0.15] [--efficiency-slack=0.25]
                     [--ratio-slack=0.10] [--host-slack=0.75]
                     [--overhead-slack=0.15] [--recovery-slack=0.008]
                     [--latency-slack=0.10] [--goodput-slack=0.10]
                     [--only=bench1,bench2]

For every BENCH_*.json present in BOTH directories, every metric with unit
"ops/s" must be no more than `factor` times slower than the committed
baseline value. Host wall times are compared with the same factor, but only
when the baseline run took at least 0.2 s (sub-100ms timings are noise on a
shared CI runner). The gate is deliberately loose — 5x — because CI
machines vary wildly; it exists to catch gross regressions (an accidental
O(n^2)), not small ones. Tight tracking happens through the committed
results/ JSONs reviewed in PRs.

Metrics with unit "allocs" (heap allocation counts, such as
micro_datastructures' machine_new_allocs and fsync_allocs_per_op) are
ceiling-gated multiplicatively: fresh must be at most
baseline * (1 + ALLOC_SLACK). A count is exact and does not depend on the
machine, so this is what catches a reintroduced per-op allocation storm;
the slack absorbs a standard library that sizes its containers
differently. A baseline of 0 allows none.

Metrics with unit "retained" (the robustness matrix's interference-
retention ratios) are gated additively instead: fresh must be at least
baseline - retained_slack. These come from a deterministic simulation, so
they are bit-stable across hosts; the slack only absorbs deliberate
re-tunings of the interference preset, not machine noise. A PR that erodes
how much of its win a hardened ICL keeps under interference fails here.

Metrics with unit "ratio" (the Table 1 goodput/fairness/utilization
fractions from bench/table1_prior_systems) are likewise additive: the
classic scenarios run on the deterministic simulator, so a fresh value more
than ratio_slack below the committed baseline means the ICL itself got
worse — a regressed congestion response, a spin policy that starves local
jobs — not a noisy machine.

Metrics with unit "efficiency" (scale_fleet's parallel-scaling fraction:
achieved machines/sec over threads x single-thread machines/sec) are also
gated additively, with a wider slack: scaling on a shared CI runner is
noisy, but a reintroduced cross-machine global (a contended atomic, a lock
in the hot path) collapses efficiency far below any plausible noise floor,
which is exactly the regression this gate exists to catch.

Metrics with unit "overhead" (scale_fleet's checkpoint-overhead fraction:
host seconds spent in Snapshot+Save over the supervised run's total) and
unit "recovery_s" (host seconds to restore a crashed machine from its
durable image) are ceiling-gated additively: fresh must be at most
baseline + slack. The overhead slack is generous: most of a checkpoint is
the host fsync, which the runner's disk sets. The recovery slack is sized
to fail a loader that decodes checkpoints a bit at a time: Load+Fork of one
--quick image takes about 2 ms, and took about 22 ms before the word-wise
decoder, so a 2 ms baseline plus 8 ms leaves 5x headroom for runner noise
and still fails the old code by 2x.

Metrics with unit "host_s" (an explicit absolute wall-time metric a bench
opts into, e.g. the robustness matrix's sweep_host_s) are ceiling-gated:
fresh must be at most baseline * (1 + host_slack). This is much tighter
than the 5x host_time_s factor on purpose — the sweep takes tens of
seconds, so runner noise is a small fraction, and the regression this
catches (a reintroduced per-cell machine warm instead of a snapshot fork)
multiplies the time rather than nudging it.

Metrics with unit "latency_ns" (graysimd's fleet-merged request-latency
percentiles from bench/load_replay) are ceiling-gated multiplicatively:
fresh must be at most baseline * (1 + latency_slack). Latency comes from
the deterministic simulator's virtual clock, so it is bit-stable across
hosts — the slack absorbs deliberate re-tunings of the builtin scenario,
not noise. Unit "goodput" (requests that finished clean and under the
scenario timeout, per virtual second) is the matching multiplicative
floor: fresh must be at least baseline * (1 - goodput_slack).

A baseline whose fresh BENCH_*.json is MISSING is a hard failure: a bench
that crashed (or was dropped from the build) before writing its JSON must
not pass the gate by silence. Use --only=name1,name2 to restrict the
comparison to specific benches (nightly gates only the benches it runs);
baselines outside the list are ignored entirely, and a missing fresh file
is still a failure for benches inside it.

Exit status: 0 when every common metric passes, 1 otherwise.
"""

import argparse
import json
import pathlib
import sys

# Slack of the "allocs" ceiling (see the module docstring).
ALLOC_SLACK = 0.10


def load(path: pathlib.Path) -> dict:
    with open(path) as f:
        return json.load(f)


def ops_metrics(doc: dict) -> dict:
    return {
        m["metric"]: m["value"]
        for m in doc.get("metrics", [])
        if m.get("unit") == "ops/s" and m.get("value", 0) > 0
    }


def unit_metrics(doc: dict, unit: str) -> dict:
    return {
        m["metric"]: m["value"]
        for m in doc.get("metrics", [])
        if m.get("unit") == unit
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", type=pathlib.Path)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("--factor", type=float, default=5.0)
    parser.add_argument("--retained-slack", type=float, default=0.15)
    parser.add_argument("--efficiency-slack", type=float, default=0.25)
    parser.add_argument("--ratio-slack", type=float, default=0.10)
    parser.add_argument("--host-slack", type=float, default=0.75)
    parser.add_argument("--overhead-slack", type=float, default=0.15)
    parser.add_argument("--recovery-slack", type=float, default=0.008)
    parser.add_argument("--latency-slack", type=float, default=0.10)
    parser.add_argument("--goodput-slack", type=float, default=0.10)
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated bench names; gate just these")
    args = parser.parse_args(argv)
    only = {name.strip() for name in args.only.split(",") if name.strip()}

    failures = []
    compared = 0
    for base_path in sorted(args.baseline.glob("BENCH_*.json")):
        bench_name = base_path.name[len("BENCH_"):-len(".json")]
        if only and bench_name not in only:
            continue
        fresh_path = args.fresh / base_path.name
        if not fresh_path.exists():
            # A bench that crashed before writing its JSON must not pass the
            # gate by silence.
            print(f"FAIL {base_path.name}: baseline exists but no fresh result "
                  f"was produced (bench crashed or was not run?)")
            failures.append(f"{base_path.name}:missing-fresh")
            continue
        base, fresh = load(base_path), load(fresh_path)

        base_ops, fresh_ops = ops_metrics(base), ops_metrics(fresh)
        for name in sorted(base_ops.keys() & fresh_ops.keys()):
            compared += 1
            floor = base_ops[name] / args.factor
            status = "ok" if fresh_ops[name] >= floor else "FAIL"
            print(f"{status:4} {base_path.name}:{name}: "
                  f"{fresh_ops[name]:.3g} ops/s vs baseline {base_ops[name]:.3g} "
                  f"(floor {floor:.3g})")
            if fresh_ops[name] < floor:
                failures.append(f"{base_path.name}:{name}")

        for unit, slack in (("retained", args.retained_slack),
                            ("efficiency", args.efficiency_slack),
                            ("ratio", args.ratio_slack)):
            base_add = unit_metrics(base, unit)
            fresh_add = unit_metrics(fresh, unit)
            for name in sorted(base_add.keys() & fresh_add.keys()):
                compared += 1
                floor = base_add[name] - slack
                status = "ok" if fresh_add[name] >= floor else "FAIL"
                print(f"{status:4} {base_path.name}:{name}: "
                      f"{fresh_add[name]:.3f} {unit} vs baseline "
                      f"{base_add[name]:.3f} (floor {floor:.3f})")
                if fresh_add[name] < floor:
                    failures.append(f"{base_path.name}:{name}")

        for unit, slack in (("overhead", args.overhead_slack),
                            ("recovery_s", args.recovery_slack)):
            base_ceil = unit_metrics(base, unit)
            fresh_ceil = unit_metrics(fresh, unit)
            for name in sorted(base_ceil.keys() & fresh_ceil.keys()):
                compared += 1
                ceiling = base_ceil[name] + slack
                status = "ok" if fresh_ceil[name] <= ceiling else "FAIL"
                print(f"{status:4} {base_path.name}:{name}: "
                      f"{fresh_ceil[name]:.3f} {unit} vs baseline "
                      f"{base_ceil[name]:.3f} (ceiling {ceiling:.3f})")
                if fresh_ceil[name] > ceiling:
                    failures.append(f"{base_path.name}:{name}")

        base_abs = unit_metrics(base, "host_s")
        fresh_abs = unit_metrics(fresh, "host_s")
        for name in sorted(base_abs.keys() & fresh_abs.keys()):
            compared += 1
            ceiling = base_abs[name] * (1.0 + args.host_slack)
            status = "ok" if fresh_abs[name] <= ceiling else "FAIL"
            print(f"{status:4} {base_path.name}:{name}: "
                  f"{fresh_abs[name]:.3g}s vs baseline {base_abs[name]:.3g}s "
                  f"(ceiling {ceiling:.3g}s)")
            if fresh_abs[name] > ceiling:
                failures.append(f"{base_path.name}:{name}")

        for unit, slack in (("latency_ns", args.latency_slack),
                            ("allocs", ALLOC_SLACK)):
            base_mul = unit_metrics(base, unit)
            fresh_mul = unit_metrics(fresh, unit)
            for name in sorted(base_mul.keys() & fresh_mul.keys()):
                compared += 1
                ceiling = base_mul[name] * (1.0 + slack)
                status = "ok" if fresh_mul[name] <= ceiling else "FAIL"
                print(f"{status:4} {base_path.name}:{name}: "
                      f"{fresh_mul[name]:.6g} {unit} vs baseline "
                      f"{base_mul[name]:.6g} (ceiling {ceiling:.6g})")
                if fresh_mul[name] > ceiling:
                    failures.append(f"{base_path.name}:{name}")

        base_good = unit_metrics(base, "goodput")
        fresh_good = unit_metrics(fresh, "goodput")
        for name in sorted(base_good.keys() & fresh_good.keys()):
            compared += 1
            floor = base_good[name] * (1.0 - args.goodput_slack)
            status = "ok" if fresh_good[name] >= floor else "FAIL"
            print(f"{status:4} {base_path.name}:{name}: "
                  f"{fresh_good[name]:.4g} req/s vs baseline {base_good[name]:.4g} "
                  f"(floor {floor:.4g})")
            if fresh_good[name] < floor:
                failures.append(f"{base_path.name}:{name}")

        base_host = base.get("host_time_s", 0.0)
        fresh_host = fresh.get("host_time_s", 0.0)
        if base_host >= 0.2:
            compared += 1
            ceiling = base_host * args.factor
            status = "ok" if fresh_host <= ceiling else "FAIL"
            print(f"{status:4} {base_path.name}:host_time_s: "
                  f"{fresh_host:.3g}s vs baseline {base_host:.3g}s "
                  f"(ceiling {ceiling:.3g}s)")
            if fresh_host > ceiling:
                failures.append(f"{base_path.name}:host_time_s")

    if failures:
        print(f"\nperf smoke FAILED ({len(failures)}): " + ", ".join(failures),
              file=sys.stderr)
        return 1
    if compared == 0:
        print("error: no common metrics to compare", file=sys.stderr)
        return 1
    print(f"\nperf smoke passed: {compared} metrics within bounds "
          f"(factor {args.factor}x, retained slack {args.retained_slack}, "
          f"efficiency slack {args.efficiency_slack}, "
          f"ratio slack {args.ratio_slack}, host slack {args.host_slack})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
