#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

    python3 perfbench/run.py --workload nary_answer --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/ (a Release build of the library and the driver) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. The driver's report is passed through; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the driver's: 0 iff every output check passed.

Steadiness mode: --repeat N runs the workload N times, with seeds
seed..seed+N-1, and prints each metric's median, quartiles and spread
(interquartile range over median) next to its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    source = root / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    binary = build_dir / "perfbench_driver"
    return binary if binary.exists() else None


def commit_of(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_once(root, binary, out_dir, args, seed, echo=True):
    """Runs the driver once; returns (exit code, parsed last line or None)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_of(root), "--out", str(out_dir)]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.rstrip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        print(done.stdout, end="", flush=True)
    return done.returncode, result


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steadiness(root, binary, out_dir, args):
    spec = {}
    spec_path = root / "BENCHMARK.json"
    if spec_path.exists():
        bench = json.loads(spec_path.read_text())
        for m in bench.get("end_to_end", []) + bench.get("per_layer", []):
            spec[m["name"]] = m
    series = {}
    code = 0
    for k in range(args.repeat):
        seed = args.seed + k
        rc, result = run_once(root, binary, out_dir, args, seed, echo=False)
        if rc != 0 or result is None or not result.get("correct"):
            log(f"perfbench: seed {seed} failed (exit {rc})")
            code = 1
            continue
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
    summary = {}
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec.get(name, {}).get("bound")
        if bound is None:
            verdict = "-"
        elif name == "setup_s":
            verdict = "exempt"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "n": len(values)}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many seeds in a row")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir() or not (root / "perfbench").is_dir():
        log(f"perfbench: {root} is not a source checkout (no src/)")
        return 2
    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(root, out_dir / "build")
    if binary is None:
        return 2
    if args.repeat > 0:
        return steadiness(root, binary, out_dir, args)
    rc, result = run_once(root, binary, out_dir, args, args.seed)
    if result is None:
        log("perfbench: the driver printed no result")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
