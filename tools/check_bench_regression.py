#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares the JSON emitted by the bench binaries (bench_results/*.json)
against committed baselines (bench/baselines/*.json) and fails when a
tracked metric regresses by more than the tolerance.

Raw throughput is machine-dependent, so for throughput benches each row's
rate is first normalized by a reference row measured in the *same run*
("serial, dense sweep") — the gate then tracks relative speedups
(parallel vs serial, serving scale-out), which transfer across machines.
Accuracy benches compare absolutely: the simulator is integer and seeded,
so accuracies are reproducible.

Usage:
  tools/check_bench_regression.py [--results bench_results]
      [--baselines bench/baselines] [--tolerance 0.20]

Exit status 0 when every metric is within tolerance, 1 otherwise.
"""

import argparse
import json
import os
import sys

# Per-bench gating rules. `metrics` are higher-is-better numeric columns;
# `max_metrics` are lower-is-better columns (latency-style: the gate fails
# when current exceeds baseline * (1 + tolerance)); `normalize_by` names
# the reference row whose metric value divides every row's (same-run
# normalization); `min_baseline` skips rows whose baseline value carries
# no signal (e.g. chance-level accuracy at smoke scale); `tolerance`
# overrides the CLI-wide --tolerance for that one bench (tight gates like
# the tracing-overhead rule want 5% where throughput gates need 20%).
#
# table1 gates only the chip columns: the chip simulator is pure integer
# with seeded RNG, so those accuracies are reproducible across machines.
# The float-reference columns ride along in the uploaded artifact but are
# not gated (at smoke scale they sit within a couple of samples of the
# compiler's floating-point mood).
RULES = {
    "throughput_parallel": {
        "key": "config",
        "metrics": ["samples_per_sec"],
        "normalize_by": "serial, dense sweep",
    },
    "table1_accuracy": {
        "key": "dataset",
        "metrics": ["fa_chip", "dfa_chip"],
        "min_baseline": 0.25,
    },
    # Chip kernel phases: per-phase costs are normalized by the same-run
    # scalar-reference row, so the gate tracks the simd/scalar ratio of the
    # membrane sweep and the synaptic accumulation (lower is better) — a
    # machine-independent measure of whether the SoA lane kernels still
    # engage. A results row absent from the committed baseline (none today)
    # would ride along ungated.
    "micro_chip": {
        "key": "config",
        "max_metrics": ["sweep_ns_per_compartment", "accum_ns_per_event"],
        "normalize_by": "dense, scalar",
    },
    # Serving scale-out: each config's request rate is normalized by the
    # same-run single-worker unbatched rate, so the gate tracks the
    # worker-scaling and batching ratios rather than machine speed.
    "serving_load": {
        "key": "config",
        "metrics": ["throughput_rps"],
        "normalize_by": "closed, workers=1, batch=1",
    },
    # Tail latency under overload: every row is normalized by the same-run
    # blunt-shedding row ("overload, shed-only"), so the gate tracks what
    # admission control buys over tail-dropping on the same machine under
    # the same Poisson storm: goodput must hold (higher is better) while
    # p99 of accepted requests stays bounded (lower is better). The
    # closed-ref row in the results file is context only — it is absent
    # from the committed baseline, so it is not gated (its ratio to the
    # overload rows is too machine-dependent).
    "serving_overload": {
        "key": "config",
        "metrics": ["goodput_rps"],
        "max_metrics": ["p99_us"],
        "normalize_by": "overload, shed-only",
    },
    # Wire tax: the socket-closed row is normalized by the same-run
    # in-process row at identical workers/batch/queue, so the gate tracks
    # how much throughput neurod's framing + socket hops cost relative to
    # calling the server directly — a ratio that transfers across machines.
    # The socket-open row rides along in the results but is absent from the
    # committed baseline (Poisson timing over a real socket is too
    # machine-dependent to gate).
    "serving_socket": {
        "key": "config",
        "metrics": ["throughput_rps"],
        "normalize_by": "inproc",
    },
    # Multi-tenant fan-out tax: every row is normalized by the same-run
    # models=1 row (a single fleet entry behind the identical ModelRouter
    # machinery), so the gate tracks how much throughput routing across M
    # session pools costs relative to one — a ratio that transfers across
    # machines, independent of how fast the runner executes inference.
    "serving_multimodel": {
        "key": "config",
        "metrics": ["throughput_rps"],
        "normalize_by": "multimodel, models=1",
    },
    # Tracing tax: the trace-on row is normalized by the same-run trace-off
    # row (identical closed-loop workload, spans off vs on), so the gate
    # tracks the relative cost of per-request span stamping — a ratio that
    # transfers across machines. The tight per-rule tolerance enforces the
    # observability contract: tracing may cost at most ~5% throughput.
    "serving_trace": {
        "key": "config",
        "metrics": ["throughput_rps"],
        "normalize_by": "trace-off",
        "tolerance": 0.05,
    },
    # Learning-while-serving: the feedback order and the integer simulator
    # make the end-of-stream accuracy reproducible across machines, so it
    # compares absolutely (like table1). The serve-only control row sits at
    # chance and is skipped by the signal floor; latency columns are
    # machine-dependent and deliberately not gated.
    "online_serving": {
        "key": "config",
        "metrics": ["final_accuracy"],
        "min_baseline": 0.2,
    },
}


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of row objects")
    return rows


def index_rows(rows, key):
    out = {}
    for row in rows:
        out[str(row[key])] = row
    return out


def all_metrics(rule):
    return list(rule.get("metrics", [])) + list(rule.get("max_metrics", []))


def normalized(rows_by_key, rule):
    ref_key = rule.get("normalize_by")
    out = {}
    for key, row in rows_by_key.items():
        out[key] = {}
        for metric in all_metrics(rule):
            value = row.get(metric)
            if not isinstance(value, (int, float)):
                continue
            if ref_key is not None:
                ref = rows_by_key.get(ref_key, {}).get(metric)
                if not isinstance(ref, (int, float)) or ref == 0:
                    raise ValueError(
                        f"normalization row '{ref_key}' missing metric {metric}")
                value = value / ref
            out[key][metric] = value
    return out


def check_bench(name, baseline_path, results_path, tolerance):
    rule = RULES.get(name)
    if rule is None:
        print(f"  [skip] {name}: no gating rule")
        return []
    tolerance = rule.get("tolerance", tolerance)
    base = normalized(index_rows(load_rows(baseline_path), rule["key"]), rule)
    cur_rows = index_rows(load_rows(results_path), rule["key"])
    cur = normalized(cur_rows, rule)

    failures = []
    for key, metrics in sorted(base.items()):
        if key == rule.get("normalize_by"):
            continue  # the reference row is 1.0 by construction
        if key not in cur:
            failures.append(f"{name}: row '{key}' missing from results")
            continue
        lower_is_better = set(rule.get("max_metrics", []))
        for metric, base_value in metrics.items():
            is_max = metric in lower_is_better
            if not is_max and base_value < rule.get("min_baseline", 0.0):
                print(f"  [      skip] {name} / {key} / {metric}: baseline "
                      f"{base_value:.4g} below signal floor")
                continue
            cur_value = cur[key].get(metric)
            if cur_value is None:
                failures.append(f"{name}: '{key}' lost metric {metric}")
                continue
            if is_max:
                ceiling = base_value * (1.0 + tolerance)
                bad = cur_value > ceiling
                status = "REGRESSION" if bad else "ok"
                print(f"  [{status:>10}] {name} / {key} / {metric}: "
                      f"baseline {base_value:.4g}, current {cur_value:.4g} "
                      f"(ceiling {ceiling:.4g})")
                if bad:
                    failures.append(
                        f"{name}: '{key}' {metric} regressed "
                        f"{(cur_value / base_value - 1) * 100.0:.1f}% "
                        f"(baseline {base_value:.4g} -> {cur_value:.4g}, "
                        f"tolerance {tolerance * 100.0:.0f}%)")
                continue
            floor = base_value * (1.0 - tolerance)
            status = "ok" if cur_value >= floor else "REGRESSION"
            print(f"  [{status:>10}] {name} / {key} / {metric}: "
                  f"baseline {base_value:.4g}, current {cur_value:.4g} "
                  f"(floor {floor:.4g})")
            if cur_value < floor:
                failures.append(
                    f"{name}: '{key}' {metric} regressed "
                    f"{(1 - cur_value / base_value) * 100.0:.1f}% "
                    f"(baseline {base_value:.4g} -> {cur_value:.4g}, "
                    f"tolerance {tolerance * 100.0:.0f}%)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="bench_results")
    parser.add_argument("--baselines", default="bench/baselines")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop per metric (default 0.20)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="BENCH",
                        help="gate only this bench (repeatable); other "
                             "baselines are skipped rather than required")
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"no baselines directory at {args.baselines}", file=sys.stderr)
        return 1

    failures = []
    checked = 0
    seen = set()
    for entry in sorted(os.listdir(args.baselines)):
        if not entry.endswith(".json"):
            continue
        name = entry[:-len(".json")]
        seen.add(name)
        if args.only is not None and name not in args.only:
            continue
        baseline_path = os.path.join(args.baselines, entry)
        results_path = os.path.join(args.results, entry)
        print(f"checking {name}:")
        if not os.path.exists(results_path):
            failures.append(f"{name}: no results file at {results_path} "
                            "(did the bench run?)")
            continue
        try:
            failures.extend(
                check_bench(name, baseline_path, results_path, args.tolerance))
        except (ValueError, KeyError, json.JSONDecodeError) as err:
            failures.append(f"{name}: {err}")
        checked += 1

    for name in args.only or []:
        if name not in seen:
            failures.append(f"--only {name}: no baseline file "
                            f"{os.path.join(args.baselines, name + '.json')}")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if checked == 0:
        print("no baselines found — nothing checked", file=sys.stderr)
        return 1
    print(f"\nbench regression gate passed ({checked} bench(es) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
