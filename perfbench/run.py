#!/usr/bin/env python3
"""The DRAMS end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary from source
(into $CARGO_TARGET_DIR, default perfbench/target), then:

* `--trace 0` runs the workload back to back for `--seconds`, each
  repetition in a fresh process, and reports the end-to-end metrics:
  `sim_rps` from the fastest repetition of each slice of the run,
  medians over repetitions for the other wall-clock numbers, the
  (deterministic) virtual latencies of the seed.
* `--trace 1` repeats, for `--seconds`, an untraced run followed by the
  traced run in one fresh process, and reports the per-layer metrics
  (medians over repetitions).

Every repetition is checked for correctness and all repetitions must
share one deterministic fingerprint. The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; a failed check prints `"correct": false` with no metrics and
exits 1. See perfbench/README.md for every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MANIFEST = Path("perfbench/Cargo.toml")
WORKLOADS = ("flash_crowd", "figure1_attack", "tcp_steady")
# The load comes from one single-threaded process: the DES runs at one
# worker whatever the host's core count.
CHILD_ENV = {**os.environ, "DRAMS_WORKERS": "1"}
# Every invocation ends well inside the three minutes it is allowed.
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("sim_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("e2e_p50_ms", "ms"),
    ("e2e_p99_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
)
# Virtual (simulated-time) numbers: identical on every repetition of a seed.
VIRTUAL = (
    "e2e_p50_ms",
    "e2e_p99_ms",
    "e2e_samples",
    "commit_p50_ms",
    "commit_p99_ms",
    "commit_samples",
    "detect_p50_ms",
    "detect_p99_ms",
    "detect_samples",
)


def fail(reason, attempted=1, failed=0):
    """Reports a run that failed its correctness check, and stops."""
    print(f"perfbench: {reason}", file=sys.stderr)
    result = {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}
    print(json.dumps(result))
    sys.exit(1)


def die(reason):
    """Stops without a result: the benchmark could not run at all."""
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def build():
    if not MANIFEST.is_file() or not Path("crates/core/Cargo.toml").is_file():
        die("run from the repository root: the DRAMS sources are missing")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        built = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die(f"cannot run cargo: {e}")
    if built.returncode != 0:
        die(f"build failed: {' '.join(command)}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", "perfbench/target"))
    return target / "release" / "perfbench"


def child(binary, args, deadline):
    """Runs one repetition in a fresh process; returns its parsed result."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [str(binary), *args],
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=timeout,
            env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        fail(f"repetition {' '.join(args)} ran past the time limit")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"repetition {' '.join(args)} exited {done.returncode} without a result")
    result["lines"] = lines[:-1]
    return result


def metric_values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def repeat(binary, args, mode, deadline, first=()):
    """Runs repetitions, each in a fresh process, until `--seconds` is spent.

    A repetition starts only if one more as long as the last still fits.
    Every repetition must pass its checks and share one fingerprint.
    """
    common = ["--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    clock = time.monotonic()
    results = []
    while True:
        started = time.monotonic()
        result = child(binary, [*common, *(() if results else first)], deadline)
        if not result["correct"]:
            attempted = sum(r["issued"] for r in [*results, result])
            fail(f"repetition {len(results) + 1}: {result['reason']}", attempted, result["failed"])
        results.append(result)
        spent = time.monotonic() - started
        if time.monotonic() - clock + spent > args.seconds:
            break
    if len({r["fingerprint"] for r in results}) != 1:
        fail("two repetitions of one seed diverged", sum(r["issued"] for r in results), results[-1]["issued"])
    for line in results[0]["lines"]:
        print(line)
    return results


def undisturbed_wall_s(runs):
    """The wall time of one run with each slice at its fastest.

    Slice i holds the same events in every repetition of a seed (the DES
    is deterministic), so its fastest repetition is the one the host
    disturbed least. Host interference comes in bursts of a few seconds,
    which hit different slices in different repetitions.
    """
    slices = [r["slices_s"] for r in runs]
    if len({len(s) for s in slices}) != 1:
        fail("two repetitions of one seed were cut into different slices", sum(r["issued"] for r in runs))
    return sum(min(column) for column in zip(*slices))


def untraced(binary, args, deadline):
    # The first repetition of a TCP workload also checks it against DES.
    runs = repeat(binary, args, "run", deadline, first=["--conformance"])
    values = [metric_values(r) for r in runs]
    wall_s = undisturbed_wall_s(runs)
    print(f"repetitions {len(runs)} wall_s {[round(r['wall_s'], 4) for r in runs]}")
    print(
        f"slices {len(runs[0]['slices_s'])} undisturbed_wall_s {wall_s:.4f} "
        f"median_repetition_rps {statistics.median(v['sim_rps'] for v in values):.1f}"
    )
    print("virtual " + " ".join(f"{k}={values[0][k]}" for k in VIRTUAL))
    metrics = {
        "sim_rps": runs[0]["completed"] / wall_s,
        "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(v["peak_rss_mb"] for v in values),
    }
    for name in ("e2e_p50_ms", "e2e_p99_ms", "commit_p50_ms", "commit_p99_ms"):
        metrics[name] = values[0][name]
    attempted = sum(r["issued"] for r in runs)
    return attempted, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced(binary, args, deadline):
    pairs = repeat(binary, args, "trace", deadline)
    print(f"repetitions {len(pairs)} (per-layer values are medians over them)")
    values = [metric_values(p) for p in pairs]
    metrics = {
        name: {"value": statistics.median(v[name] for v in values), "unit": m["unit"]}
        for name, m in pairs[0]["metrics"].items()
    }
    return sum(p["issued"] for p in pairs), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    run = traced if args.trace else untraced
    attempted, metrics = run(binary, args, deadline)
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
