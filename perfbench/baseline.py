"""Measure the baseline and write it to ``perfbench/baseline.json``.

    python3 perfbench/baseline.py [--seconds 20] [--sets 101-110 201-210]

Runs every workload once per seed of each set, each run a fresh
``run.py --trace 0`` process, then one ``--trace 1`` run per workload on
seed 0.  For each set and metric it records the median, the quartiles
and the spread, (q3 - q1) / median, and for each metric the ratio of the
second set's median to the first's.  Exits 1 if any run fails or reads
a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "dirichlet", "bounds-table")
KNOWN = "known failing point, not an op: "


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        sys.exit(1)
    return result, proc.stdout


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def _machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"{len(os.sched_getaffinity(0))} CPUs, {cpu}"


def _measure_set(seeds, seconds):
    out = {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            result, stdout = _run(name, seed, seconds, 0)
            runs.append((result, stdout))
            print(name, seed, {k: round(m["value"], 6) for k, m in result["metrics"].items()},
                  flush=True)
        metrics = {k: {"unit": m["unit"],
                       **_summary([r["metrics"][k]["value"] for r, _ in runs])}
                   for k, m in runs[0][0]["metrics"].items()}
        rss = [float(re.search(r"peak_rss_mb = (\S+)", s).group(1)) for _, s in runs]
        out[name] = {
            "end_to_end": metrics,
            "peak_rss_mb": _summary(rss),
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "failure_contexts": sorted({line[len("failed: "):]
                                        for line in runs[0][1].splitlines()
                                        if line.startswith("failed: ")}),
            "known_failing_points": [line[len(KNOWN):]
                                     for line in runs[0][1].splitlines()
                                     if line.startswith(KNOWN)],
        }
    return out


def _seed_range(text):
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--sets", nargs=2, default=["101-110", "201-210"])
    args = parser.parse_args(argv)
    import numpy

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    sets = [{"seeds": text, "workloads": _measure_set(_seed_range(text), args.seconds)}
            for text in args.sets]
    ratios = {name: {k: sets[1]["workloads"][name]["end_to_end"][k]["median"]
                     / v["median"]
                     for k, v in sets[0]["workloads"][name]["end_to_end"].items()}
              for name in WORKLOADS}
    traced = {}
    for name in WORKLOADS:
        result, _ = _run(name, 0, 1, 1)
        traced[name] = {"attempted": result["attempted"], "failed": result["failed"],
                        "per_layer": {k: m["value"] for k, m in result["metrics"].items()}}
    baseline = {
        "commit": commit,
        "machine": f"{_machine()}, Python {platform.python_version()}, "
                   f"numpy {numpy.__version__}",
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "sets": sets,
        "second_over_first_median": ratios,
        "traced_seed0": traced,
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    for name in WORKLOADS:
        for k, r in ratios[name].items():
            spreads = [s["workloads"][name]["end_to_end"][k]["spread"] for s in sets]
            print(f"{name} {k}: spreads {spreads[0]:.4f} {spreads[1]:.4f}, "
                  f"second/first median {r:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
