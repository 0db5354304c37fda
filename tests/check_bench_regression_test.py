#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py — the CI bench gate is
itself gated (registered with ctest as check_bench_regression_py).

Runs the tool as a subprocess against synthetic baseline/result trees in a
temp dir, covering: pass/fail tolerance edges, same-run ratio
normalization, the min_baseline signal floor, missing baselines/results/
metrics/rows, --only filtering, and malformed JSON.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "check_bench_regression.py")


def run_tool(*args):
    proc = subprocess.run(
        [sys.executable, TOOL, *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def throughput_rows(serial_dense, others):
    """throughput_parallel-shaped rows: one normalization row + extras."""
    rows = [{"config": "serial, dense sweep", "threads": 1,
             "samples_per_sec": serial_dense}]
    for config, rate in others.items():
        rows.append({"config": config, "threads": 2,
                     "samples_per_sec": rate})
    return rows


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baselines = os.path.join(self.tmp.name, "baselines")
        self.results = os.path.join(self.tmp.name, "results")
        os.makedirs(self.baselines)
        os.makedirs(self.results)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, where, name, rows):
        with open(os.path.join(where, name + ".json"), "w",
                  encoding="utf-8") as f:
            json.dump(rows, f)

    def run_gate(self, *extra):
        return run_tool("--baselines", self.baselines,
                        "--results", self.results, *extra)

    # ---- normalization + tolerance edges ------------------------------------

    def test_ratio_normalization_ignores_absolute_machine_speed(self):
        # Baseline machine: 100 -> 200 (2x). Current machine 10x slower
        # overall but with the same ratio: must pass.
        self.write(self.baselines, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        self.write(self.results, "throughput_parallel",
                   throughput_rows(10.0, {"parallel": 20.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_ratio_regression_fails(self):
        # Ratio drops 2.0 -> 1.0 (50% > 20% tolerance) even though the raw
        # current rate is higher than baseline.
        self.write(self.baselines, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        self.write(self.results, "throughput_parallel",
                   throughput_rows(300.0, {"parallel": 300.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("regressed", out)

    def test_exactly_at_tolerance_floor_passes(self):
        # floor = 2.0 * (1 - 0.25) = 1.5; current ratio exactly 1.5.
        self.write(self.baselines, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        self.write(self.results, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 150.0}))
        code, out = self.run_gate("--tolerance", "0.25")
        self.assertEqual(code, 0, out)

    def test_just_below_tolerance_floor_fails(self):
        self.write(self.baselines, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        self.write(self.results, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 149.0}))
        code, out = self.run_gate("--tolerance", "0.25")
        self.assertEqual(code, 1, out)

    def test_zero_tolerance_requires_no_drop_at_all(self):
        self.write(self.baselines, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        self.write(self.results, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 199.9}))
        code, _ = self.run_gate("--tolerance", "0.0")
        self.assertEqual(code, 1)
        self.write(self.results, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        code, _ = self.run_gate("--tolerance", "0.0")
        self.assertEqual(code, 0)

    def test_missing_normalization_row_is_an_error(self):
        self.write(self.baselines, "throughput_parallel",
                   throughput_rows(100.0, {"parallel": 200.0}))
        self.write(self.results, "throughput_parallel",
                   [{"config": "parallel", "samples_per_sec": 200.0}])
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("normalization row", out)

    def test_serving_load_rule_normalizes_by_single_worker(self):
        base = [
            {"config": "closed, workers=1, batch=1", "throughput_rps": 100.0},
            {"config": "closed, workers=4, batch=1", "throughput_rps": 300.0},
        ]
        cur_ok = [
            {"config": "closed, workers=1, batch=1", "throughput_rps": 50.0},
            {"config": "closed, workers=4, batch=1", "throughput_rps": 150.0},
        ]
        self.write(self.baselines, "serving_load", base)
        self.write(self.results, "serving_load", cur_ok)
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        # Scale-out collapse (3x -> 1x) must fail.
        cur_bad = [
            {"config": "closed, workers=1, batch=1", "throughput_rps": 100.0},
            {"config": "closed, workers=4, batch=1", "throughput_rps": 100.0},
        ]
        self.write(self.results, "serving_load", cur_bad)
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)

    # ---- multi-model fan-out tax (serving_multimodel) ------------------------

    @staticmethod
    def multimodel_rows(single, others):
        rows = [{"config": "multimodel, models=1", "models": 1,
                 "throughput_rps": single}]
        for m, rate in others.items():
            rows.append({"config": f"multimodel, models={m}", "models": m,
                         "throughput_rps": rate})
        return rows

    def test_multimodel_fanout_ratio_transfers_across_machines(self):
        # Baseline: models=4 holds 90% of the single-tenant rate. Current
        # machine is 10x slower with the same fan-out tax: must pass.
        self.write(self.baselines, "serving_multimodel",
                   self.multimodel_rows(1000.0, {2: 950.0, 4: 900.0}))
        self.write(self.results, "serving_multimodel",
                   self.multimodel_rows(100.0, {2: 95.0, 4: 90.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_multimodel_fanout_collapse_fails(self):
        # Fan-out ratio 0.9 -> 0.5 (44% > 20% tolerance): routing across
        # four pools suddenly costs half the throughput — gate must fail
        # even though the raw current rate beats the baseline's.
        self.write(self.baselines, "serving_multimodel",
                   self.multimodel_rows(1000.0, {2: 950.0, 4: 900.0}))
        self.write(self.results, "serving_multimodel",
                   self.multimodel_rows(2000.0, {2: 1900.0, 4: 1000.0}))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("models=4", out)
        self.assertIn("throughput_rps regressed", out)

    def test_multimodel_missing_reference_row_is_an_error(self):
        self.write(self.baselines, "serving_multimodel",
                   self.multimodel_rows(1000.0, {4: 900.0}))
        self.write(self.results, "serving_multimodel",
                   [{"config": "multimodel, models=4", "models": 4,
                     "throughput_rps": 900.0}])
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("normalization row", out)

    # ---- lower-is-better metrics (serving_overload max_metrics) --------------

    @staticmethod
    def overload_rows(shed_goodput, shed_p99, codel_goodput, codel_p99):
        return [
            {"config": "overload, shed-only",
             "goodput_rps": shed_goodput, "p99_us": shed_p99},
            {"config": "overload, codel",
             "goodput_rps": codel_goodput, "p99_us": codel_p99},
        ]

    def test_overload_p99_within_ceiling_passes(self):
        # Baseline: codel p99 at 0.6x of blunt shedding. Current run is a
        # 10x slower machine with the same ratios: must pass.
        self.write(self.baselines, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 950.0, 60000.0))
        self.write(self.results, "serving_overload",
                   self.overload_rows(100.0, 1000000.0, 95.0, 600000.0))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_overload_p99_blowup_fails_even_with_goodput_held(self):
        # p99 ratio 0.6 -> 0.9 (+50% > 20% tolerance): the tail is no
        # longer bounded relative to blunt shedding, so the gate fails even
        # though goodput is fine and ABSOLUTE p99 improved.
        self.write(self.baselines, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 950.0, 60000.0))
        self.write(self.results, "serving_overload",
                   self.overload_rows(1000.0, 50000.0, 950.0, 45000.0))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("p99_us regressed", out)

    def test_overload_p99_exactly_at_ceiling_passes(self):
        # ceiling = 0.5 * (1 + 0.20) = 0.6; current ratio exactly 0.6.
        self.write(self.baselines, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 1000.0, 50000.0))
        self.write(self.results, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 1000.0, 60000.0))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_overload_goodput_collapse_fails(self):
        # The tail is great because admission drops nearly everything:
        # goodput ratio 0.95 -> 0.5 must fail despite the excellent p99.
        self.write(self.baselines, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 950.0, 60000.0))
        self.write(self.results, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 500.0, 5000.0))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("goodput_rps regressed", out)

    def test_overload_extra_result_rows_are_not_gated(self):
        # The results file carries a closed-ref context row; the committed
        # baseline deliberately omits it, so it must not be compared.
        self.write(self.baselines, "serving_overload",
                   self.overload_rows(1000.0, 100000.0, 950.0, 60000.0))
        cur = self.overload_rows(1000.0, 100000.0, 950.0, 60000.0)
        cur.append({"config": "closed-ref",
                    "goodput_rps": 123.0, "p99_us": 9999999.0})
        self.write(self.results, "serving_overload", cur)
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertNotIn("closed-ref", out)

    # ---- kernel phase ratios (micro_chip max_metrics) ------------------------

    @staticmethod
    def micro_chip_rows(scalar_sweep, scalar_accum, simd_sweep, simd_accum):
        return [
            {"config": "dense, scalar",
             "sweep_ns_per_compartment": scalar_sweep,
             "accum_ns_per_event": scalar_accum,
             "spikes_delivered": 2048, "synaptic_events": 524288},
            {"config": "dense, simd",
             "sweep_ns_per_compartment": simd_sweep,
             "accum_ns_per_event": simd_accum,
             "spikes_delivered": 2048, "synaptic_events": 524288},
        ]

    def test_micro_chip_simd_ratio_transfers_across_machines(self):
        # Baseline: simd sweeps at 0.1x of scalar cost. Current machine is
        # 5x slower in absolute ns but holds the same ratio: must pass.
        self.write(self.baselines, "micro_chip",
                   self.micro_chip_rows(10.0, 2.0, 1.0, 0.4))
        self.write(self.results, "micro_chip",
                   self.micro_chip_rows(50.0, 10.0, 5.0, 2.0))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_micro_chip_sweep_ratio_collapse_fails(self):
        # The simd/scalar sweep ratio decays 0.1 -> 0.5 (the lane kernels
        # stopped engaging): must fail even though absolute ns improved.
        self.write(self.baselines, "micro_chip",
                   self.micro_chip_rows(10.0, 2.0, 1.0, 0.4))
        self.write(self.results, "micro_chip",
                   self.micro_chip_rows(8.0, 2.0, 4.0, 0.32))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("sweep_ns_per_compartment regressed", out)

    def test_micro_chip_accum_ratio_collapse_fails(self):
        self.write(self.baselines, "micro_chip",
                   self.micro_chip_rows(10.0, 2.0, 1.0, 0.4))
        self.write(self.results, "micro_chip",
                   self.micro_chip_rows(10.0, 2.0, 1.0, 1.8))
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("accum_ns_per_event regressed", out)

    def test_micro_chip_sparse_context_row_is_not_gated(self):
        # A results row that the committed baseline omits (here the
        # "sparse, simd" row micro_chip used to emit) must not gate, even
        # at absurd values.
        self.write(self.baselines, "micro_chip",
                   self.micro_chip_rows(10.0, 2.0, 1.0, 0.4))
        cur = self.micro_chip_rows(10.0, 2.0, 1.0, 0.4)
        cur.append({"config": "sparse, simd",
                    "sweep_ns_per_compartment": 99999.0,
                    "accum_ns_per_event": 99999.0,
                    "spikes_delivered": 2048, "synaptic_events": 524288})
        self.write(self.results, "micro_chip", cur)
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertNotIn("sparse", out)

    # ---- tracing tax (serving_trace per-rule tolerance) ----------------------

    @staticmethod
    def trace_rows(off_rps, on_rps):
        return [
            {"config": "trace-off", "mode": "trace", "throughput_rps": off_rps},
            {"config": "trace-on", "mode": "trace", "throughput_rps": on_rps},
        ]

    def test_trace_overhead_within_five_percent_passes(self):
        # Baseline ratio 1.0, current 0.96 on a 10x slower machine: the 5%
        # per-rule tolerance admits it regardless of the CLI-wide default.
        self.write(self.baselines, "serving_trace",
                   self.trace_rows(1000.0, 1000.0))
        self.write(self.results, "serving_trace",
                   self.trace_rows(100.0, 96.0))
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    def test_trace_overhead_uses_rule_tolerance_not_cli_tolerance(self):
        # Ratio 1.0 -> 0.90: inside the CLI-wide 20% but outside the rule's
        # 5% — the per-rule override must win.
        self.write(self.baselines, "serving_trace",
                   self.trace_rows(1000.0, 1000.0))
        self.write(self.results, "serving_trace",
                   self.trace_rows(1000.0, 900.0))
        code, out = self.run_gate("--tolerance", "0.20")
        self.assertEqual(code, 1, out)
        self.assertIn("trace-on", out)
        self.assertIn("tolerance 5%", out)

    def test_trace_rule_tolerance_does_not_leak_to_other_benches(self):
        # A 10% serving_load drop is fine under the CLI-wide 20% even when
        # the serving_trace rule (5%) is checked in the same invocation.
        self.write(self.baselines, "serving_trace",
                   self.trace_rows(1000.0, 1000.0))
        self.write(self.results, "serving_trace",
                   self.trace_rows(1000.0, 990.0))
        self.write(self.baselines, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0},
                    {"config": "closed, workers=4, batch=1",
                     "throughput_rps": 300.0}])
        self.write(self.results, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0},
                    {"config": "closed, workers=4, batch=1",
                     "throughput_rps": 270.0}])
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)

    # ---- accuracy rules ------------------------------------------------------

    def test_min_baseline_skips_chance_level_rows(self):
        self.write(self.baselines, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.10, "dfa_chip": 0.80}])
        # fa_chip collapses but its baseline (0.10) is under the 0.25
        # signal floor, so only dfa_chip is gated.
        self.write(self.results, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.01, "dfa_chip": 0.78}])
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertIn("signal floor", out)

    def test_lost_metric_fails(self):
        self.write(self.baselines, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.80, "dfa_chip": 0.80}])
        self.write(self.results, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.80}])
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("lost metric", out)

    def test_missing_row_fails(self):
        self.write(self.baselines, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.80, "dfa_chip": 0.80}])
        self.write(self.results, "table1_accuracy",
                   [{"dataset": "fashion", "fa_chip": 0.80, "dfa_chip": 0.8}])
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("missing from results", out)

    # ---- missing files / malformed input ------------------------------------

    def test_missing_baselines_dir_fails(self):
        code, out = run_tool("--baselines",
                             os.path.join(self.tmp.name, "nope"),
                             "--results", self.results)
        self.assertEqual(code, 1)
        self.assertIn("no baselines directory", out)

    def test_empty_baselines_dir_fails(self):
        code, out = self.run_gate()
        self.assertEqual(code, 1)
        self.assertIn("nothing checked", out)

    def test_missing_results_file_fails(self):
        self.write(self.baselines, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0}])
        code, out = self.run_gate()
        self.assertEqual(code, 1)
        self.assertIn("did the bench run", out)

    def test_non_array_results_json_fails(self):
        self.write(self.baselines, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.8, "dfa_chip": 0.8}])
        self.write(self.results, "table1_accuracy", {"dataset": "mnist"})
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        self.assertIn("expected a JSON array", out)

    def test_unknown_bench_is_reported_but_skipped(self):
        self.write(self.baselines, "mystery_bench", [{"x": 1}])
        self.write(self.results, "mystery_bench", [{"x": 1}])
        self.write(self.baselines, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.8, "dfa_chip": 0.8}])
        self.write(self.results, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.8, "dfa_chip": 0.8}])
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertIn("no gating rule", out)

    # ---- --only filtering ----------------------------------------------------

    def test_only_skips_other_baselines_instead_of_requiring_them(self):
        self.write(self.baselines, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0},
                    {"config": "closed, workers=2, batch=1",
                     "throughput_rps": 150.0}])
        self.write(self.results, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0},
                    {"config": "closed, workers=2, batch=1",
                     "throughput_rps": 150.0}])
        # A baseline with no matching results would normally fail the run…
        self.write(self.baselines, "table1_accuracy",
                   [{"dataset": "mnist", "fa_chip": 0.8, "dfa_chip": 0.8}])
        code, out = self.run_gate()
        self.assertEqual(code, 1, out)
        # …but --only scopes the gate to the bench this job actually ran.
        code, out = self.run_gate("--only", "serving_load")
        self.assertEqual(code, 0, out)
        self.assertNotIn("table1", out)

    def test_only_with_unknown_name_fails(self):
        self.write(self.baselines, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0}])
        self.write(self.results, "serving_load",
                   [{"config": "closed, workers=1, batch=1",
                     "throughput_rps": 100.0}])
        code, out = self.run_gate("--only", "serving_load",
                                  "--only", "typo_bench")
        self.assertEqual(code, 1, out)
        self.assertIn("typo_bench", out)


if __name__ == "__main__":
    unittest.main()
