#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
repository's library and the perfbench binary into .bench_build (or
$CARGO_TARGET_DIR); later calls rebuild only what changed. The binary's
last stdout line is checked against BENCHMARK.json and printed as this
script's last line. Each run's full output is also kept under
<build dir>/records/. Exit status: 0 for a correct run, nonzero otherwise
(and then no result line is printed unless the binary reported one).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("the repository sources are missing next to perfbench/")
    if not (ROOT / out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, timeout=300)
    jobs = str(max(1, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(out), "--target", "perfbench",
                 "perfbench_selftest", "-j", jobs], timeout=850)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {r["name"]: r["unit"] for r in rows}


def check_result(line, trace):
    """The result line must carry exactly the declared metrics of its mode."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if res["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = declared_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metric set differs from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            raise ValueError(f"metric {name} is malformed or has the wrong unit")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"metric {name} is not a finite number")
    return res


def run_binary(out, args):
    # A relative scratch directory keeps Unix socket paths short (108 bytes).
    scratch = os.path.relpath(ROOT / out / "run", ROOT)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    return proc.returncode, stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["train_paper", "serve_wire", "serve_learn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's helpers")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    try:
        t0 = time.monotonic()
        build(out)
        log(f"build ready in {time.monotonic() - t0:.1f} s")
        if args.selftest:
            return subprocess.run([str(out / "perfbench_selftest")], cwd=ROOT).returncode
        code, stdout = run_binary(out, args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"failed: {e}")
        return 1

    lines = stdout.rstrip("\n").split("\n") if stdout.strip() else []
    records = ROOT / out / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    (records / name).write_text(stdout)
    for line in lines[:-1]:
        print(line)
    if not lines:
        log(f"perfbench exited {code} without output")
        return 1
    try:
        res = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        log(f"perfbench exited {code}; bad result line: {e}")
        return 1
    print(lines[-1], flush=True)
    if code != 0 or not res["correct"]:
        log(f"perfbench exited {code}; correct={res['correct']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
