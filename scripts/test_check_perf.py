"""Unit tests for scripts/check_perf.py (the perf smoke gate).

Runs under pytest (CI lint job) and plain unittest
(`python3 -m unittest scripts.test_check_perf` or
`python3 -m unittest discover scripts`) for hosts without pytest.

The cases pin the gate's load-bearing behaviors: a baseline whose fresh
JSON is missing must FAIL (not silently skip), the additive floors/ceilings
bind on the correct side, the multiplicative latency/goodput/allocation
gates bind on the correct side, --only restricts which baselines are
compared, and top-level keys other than host_time_s (such as nproc) are
not gated.
"""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_perf  # noqa: E402


def bench_doc(metrics, host_time_s=0.05):
    return {
        "bench": "x",
        "virtual_time_s": 1.0,
        "host_time_s": host_time_s,
        "metrics": [
            {"metric": name, "value": value, "unit": unit}
            for name, value, unit in metrics
        ],
    }


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.fresh = root / "fresh"
        self.baseline = root / "baseline"
        self.fresh.mkdir()
        self.baseline.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, bench, doc):
        path = directory / f"BENCH_{bench}.json"
        path.write_text(json.dumps(doc))
        return path

    def run_gate(self, *extra_args):
        return check_perf.main([str(self.fresh), str(self.baseline), *extra_args])

    # ---- missing-fresh hard failure (the bugfix this suite exists for) ----

    def test_missing_fresh_result_fails(self):
        self.write(self.baseline, "alpha",
                   bench_doc([("throughput", 100.0, "ops/s")]))
        # No fresh/BENCH_alpha.json at all: the old behavior skipped with a
        # note and PASSED; a crashed bench must fail the gate.
        self.assertEqual(self.run_gate(), 1)

    def test_missing_fresh_fails_even_when_other_benches_pass(self):
        doc = bench_doc([("throughput", 100.0, "ops/s")])
        self.write(self.baseline, "alpha", doc)
        self.write(self.baseline, "beta", doc)
        self.write(self.fresh, "alpha", doc)
        self.assertEqual(self.run_gate(), 1)

    def test_extra_fresh_results_are_not_required_by_baseline(self):
        doc = bench_doc([("throughput", 100.0, "ops/s")])
        self.write(self.baseline, "alpha", doc)
        self.write(self.fresh, "alpha", doc)
        self.write(self.fresh, "newbench", doc)  # no baseline yet: fine
        self.assertEqual(self.run_gate(), 0)

    # ---- ops/s factor gate ----

    def test_ops_within_factor_passes(self):
        self.write(self.baseline, "alpha", bench_doc([("t", 100.0, "ops/s")]))
        self.write(self.fresh, "alpha", bench_doc([("t", 21.0, "ops/s")]))
        self.assertEqual(self.run_gate("--factor=5"), 0)

    def test_ops_below_factor_floor_fails(self):
        self.write(self.baseline, "alpha", bench_doc([("t", 100.0, "ops/s")]))
        self.write(self.fresh, "alpha", bench_doc([("t", 19.0, "ops/s")]))
        self.assertEqual(self.run_gate("--factor=5"), 1)

    # ---- additive floor (retained/efficiency/ratio) edge cases ----

    def test_additive_floor_binds_exactly(self):
        self.write(self.baseline, "alpha", bench_doc([("kept", 0.90, "retained")]))
        self.write(self.fresh, "alpha", bench_doc([("kept", 0.75, "retained")]))
        # floor = 0.90 - 0.15 = 0.75; at the floor passes...
        self.assertEqual(self.run_gate("--retained-slack=0.15"), 0)
        self.write(self.fresh, "alpha", bench_doc([("kept", 0.7499, "retained")]))
        # ...just under it fails.
        self.assertEqual(self.run_gate("--retained-slack=0.15"), 1)

    def test_additive_ceiling_binds_exactly(self):
        self.write(self.baseline, "alpha", bench_doc([("ovh", 0.10, "overhead")]))
        self.write(self.fresh, "alpha", bench_doc([("ovh", 0.25, "overhead")]))
        # ceiling = 0.10 + 0.15 = 0.25; at the ceiling passes...
        self.assertEqual(self.run_gate("--overhead-slack=0.15"), 0)
        self.write(self.fresh, "alpha", bench_doc([("ovh", 0.2501, "overhead")]))
        # ...just over it fails.
        self.assertEqual(self.run_gate("--overhead-slack=0.15"), 1)

    def test_recovery_ceiling_fails_a_bitwise_loader(self):
        # The committed baseline: Load+Fork of one scale_fleet --quick image
        # with the word-wise decoder. The default slack must pass it with
        # room for runner noise and fail the bit-at-a-time loader before it.
        self.write(self.baseline, "fleet",
                   bench_doc([("recovery", 0.002, "recovery_s")]))
        self.write(self.fresh, "fleet",
                   bench_doc([("recovery", 3 * 0.002, "recovery_s")]))
        self.assertEqual(self.run_gate(), 0)
        self.write(self.fresh, "fleet",
                   bench_doc([("recovery", 0.021, "recovery_s")]))
        self.assertEqual(self.run_gate(), 1)

    # ---- multiplicative latency ceiling / goodput floor ----

    def test_latency_regression_fails(self):
        self.write(self.baseline, "load",
                   bench_doc([("latency.p99_ns", 1000.0, "latency_ns")]))
        self.write(self.fresh, "load",
                   bench_doc([("latency.p99_ns", 1100.0, "latency_ns")]))
        self.assertEqual(self.run_gate("--latency-slack=0.10"), 0)  # at ceiling
        self.write(self.fresh, "load",
                   bench_doc([("latency.p99_ns", 1101.0, "latency_ns")]))
        self.assertEqual(self.run_gate("--latency-slack=0.10"), 1)

    def test_latency_improvement_passes(self):
        self.write(self.baseline, "load",
                   bench_doc([("latency.p99_ns", 1000.0, "latency_ns")]))
        self.write(self.fresh, "load",
                   bench_doc([("latency.p99_ns", 10.0, "latency_ns")]))
        self.assertEqual(self.run_gate(), 0)

    def test_goodput_regression_fails(self):
        self.write(self.baseline, "load", bench_doc([("goodput_rps", 500.0, "goodput")]))
        self.write(self.fresh, "load", bench_doc([("goodput_rps", 450.0, "goodput")]))
        self.assertEqual(self.run_gate("--goodput-slack=0.10"), 0)  # at floor
        self.write(self.fresh, "load", bench_doc([("goodput_rps", 449.0, "goodput")]))
        self.assertEqual(self.run_gate("--goodput-slack=0.10"), 1)

    # ---- multiplicative allocation ceiling ----

    def test_alloc_count_within_slack_passes(self):
        self.write(self.baseline, "micro",
                   bench_doc([("machine_new_allocs", 100.0, "allocs")]))
        self.write(self.fresh, "micro",
                   bench_doc([("machine_new_allocs", 110.0, "allocs")]))
        self.assertEqual(self.run_gate(), 0)  # at ceiling
        self.write(self.fresh, "micro",
                   bench_doc([("machine_new_allocs", 40.0, "allocs")]))
        self.assertEqual(self.run_gate(), 0)  # fewer is always fine

    def test_alloc_count_past_slack_fails(self):
        self.write(self.baseline, "micro",
                   bench_doc([("machine_new_allocs", 100.0, "allocs")]))
        self.write(self.fresh, "micro",
                   bench_doc([("machine_new_allocs", 111.0, "allocs")]))
        self.assertEqual(self.run_gate(), 1)

    def test_alloc_free_baseline_allows_no_allocation(self):
        self.write(self.baseline, "micro",
                   bench_doc([("fsync_allocs_per_op", 0.0, "allocs")]))
        self.write(self.fresh, "micro",
                   bench_doc([("fsync_allocs_per_op", 0.0, "allocs")]))
        self.assertEqual(self.run_gate(), 0)
        self.write(self.fresh, "micro",
                   bench_doc([("fsync_allocs_per_op", 0.01, "allocs")]))
        self.assertEqual(self.run_gate(), 1)

    # ---- top-level keys ----

    def test_nproc_is_not_gated(self):
        base = bench_doc([("t", 100.0, "ops/s")])
        base["nproc"] = 64
        fresh = bench_doc([("t", 100.0, "ops/s")])
        fresh["nproc"] = 1
        self.write(self.baseline, "alpha", base)
        self.write(self.fresh, "alpha", fresh)
        self.assertEqual(self.run_gate(), 0)
        del fresh["nproc"]  # a baseline key the fresh run lacks is ignored too
        self.write(self.fresh, "alpha", fresh)
        self.assertEqual(self.run_gate(), 0)

    # ---- host_time_s factor gate ----

    def test_small_baseline_host_time_is_not_gated(self):
        self.write(self.baseline, "alpha",
                   bench_doc([("t", 1.0, "ops/s")], host_time_s=0.1))
        self.write(self.fresh, "alpha",
                   bench_doc([("t", 1.0, "ops/s")], host_time_s=99.0))
        self.assertEqual(self.run_gate(), 0)

    def test_large_baseline_host_time_is_gated(self):
        self.write(self.baseline, "alpha",
                   bench_doc([("t", 1.0, "ops/s")], host_time_s=1.0))
        self.write(self.fresh, "alpha",
                   bench_doc([("t", 1.0, "ops/s")], host_time_s=5.1))
        self.assertEqual(self.run_gate("--factor=5"), 1)

    # ---- --only filter ----

    def test_only_restricts_comparison(self):
        good = bench_doc([("t", 100.0, "ops/s")])
        bad = bench_doc([("t", 1.0, "ops/s")])
        self.write(self.baseline, "alpha", good)
        self.write(self.baseline, "beta", good)
        self.write(self.fresh, "alpha", good)
        self.write(self.fresh, "beta", bad)
        self.assertEqual(self.run_gate("--only=alpha"), 0)
        self.assertEqual(self.run_gate("--only=alpha,beta"), 1)

    def test_only_still_fails_on_missing_fresh_inside_the_list(self):
        self.write(self.baseline, "alpha", bench_doc([("t", 100.0, "ops/s")]))
        self.write(self.baseline, "beta", bench_doc([("t", 100.0, "ops/s")]))
        self.write(self.fresh, "beta", bench_doc([("t", 100.0, "ops/s")]))
        self.assertEqual(self.run_gate("--only=beta"), 0)   # alpha ignored
        self.assertEqual(self.run_gate("--only=alpha"), 1)  # alpha required

    # ---- degenerate inputs ----

    def test_no_common_metrics_is_an_error(self):
        self.write(self.baseline, "alpha", bench_doc([]))
        self.write(self.fresh, "alpha", bench_doc([]))
        self.assertEqual(self.run_gate(), 1)


if __name__ == "__main__":
    unittest.main()
