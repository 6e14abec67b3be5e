"""Benchmark for alphaharmonic: one workload per process.

    python3 perfbench/run.py --workload certify|dirichlet|bounds-table \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in a fresh process

Run from the root of a source checkout; the library is imported from
``src/`` there, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics: whole passes over the op list run in a closed loop
(one op at a time, the next after the previous returns) for
``--seconds`` seconds.  Between ops a fixed host probe times the
machine's current speed, and every time is scaled to the speed the
probe had on the reference machine, so that the host's drift cancels
(see `_host_probe`).  ``--trace 1`` runs every op once untraced and
once traced, so its counters repeat exactly, and prints the per-layer
metrics.  Outputs are checked
outside the timed region.  The last line of standard output is one JSON
object; the exit code is 1 when an output is wrong, 2 when the library
is missing.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 9
# Times on the reference machine (2 vCPUs of a shared host, Intel Xeon at
# 2.1 GHz nominal, Python 3.11, numpy 2.4) of one `_host_probe` call and
# of one reference interpreter, `_REF_CODE`.
PROBE_REF_S = 7.0e-3
REF_INTERPRETER_S = 0.13
PROBE_EVERY_S = 0.05  # op time between two host probes
WORKLOAD_NAMES = ("certify", "dirichlet", "bounds-table")

# A fresh interpreter that imports the library and builds a workload's
# inputs.  It prints the build time, the mean of three host probes made
# after it (past a first, cold one) and the time those took.
_SETUP_CODE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
t0 = time.perf_counter()
workloads.WORKLOADS[{name!r}]({seed})
build = time.perf_counter() - t0
import run
probes = [run._host_probe() for _ in range(4)][1:]
print(build, sum(probes) / 3, time.perf_counter() - t0 - build)
"""
# A fresh interpreter that only starts Python and imports numpy: its time
# tracks the host's speed at starting interpreters.
_REF_CODE = "import numpy"


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _load_library():
    sys.path[:0] = [str(SRC), str(BENCH)]
    import alphaharmonic
    if Path(alphaharmonic.__file__).resolve().parent != SRC / "alphaharmonic":
        _fail(f"imported alphaharmonic from {alphaharmonic.__file__}, not {SRC}")
    import workloads
    return workloads


def _host_probe() -> float:
    """Time one fixed job like the library's own mix of work: interpreter
    loops, scalar complex math, and numpy ufuncs on 16 to 4096 points.

    On a shared host the speed of the same code drifts by up to a quarter
    over tens of seconds, in wall and in CPU time alike.  This probe's time
    drifts with it, so a time divided by the probe's (and multiplied by
    `PROBE_REF_S`) is the time the reference machine would have taken.
    The probe calls no library code.
    """
    import numpy  # after main() has capped the thread variables

    t0 = time.perf_counter()
    s = 0
    for i in range(12000):
        s += i * i % 7
    table = {}
    for i in range(3000):
        table[i] = float(i) ** 0.5
    t = 0.0
    for n in (16, 64, 256, 1024, 4096):
        x = numpy.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        for _ in range(6):
            v = numpy.exp(1j * x) * 0.5
            t += float(numpy.sum(numpy.abs(1.0 - v) ** -1.5))
    for i in range(3000):
        t += math.sqrt(i) * cmath.exp(0.001j * i).real
    z = numpy.exp(2j * math.pi * numpy.arange(2048) / 2048) * 0.9
    for _ in range(40):
        z = numpy.abs(z) ** 0.5 * numpy.exp(1j * numpy.angle(z)) + 0.01
    return time.perf_counter() - t0


def _setup_seconds(name: str, seed: int):
    """Median over fresh interpreters doing the set-up, after one
    unmeasured run that fills the bytecode cache.

    Each set-up time is split in two and each part scaled to the
    reference machine by its own yardstick: the input build by the host
    probes made in the same interpreter, and the rest (starting Python,
    imports, exit) by the mean time of the reference interpreters run
    just before and after it.  Returns the scaled median, the unscaled
    median and the median reference interpreter time.
    """
    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)

    def child(source):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", source], check=True, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True).stdout
        return time.perf_counter() - t0, out

    child(code)
    refs = [child(_REF_CODE)[0]]
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        wall, out = child(code)
        build, probe, probing = (float(x) for x in out.split())
        refs.append(child(_REF_CODE)[0])
        rest = wall - build - probing
        raw.append(rest + build)
        scaled.append(rest * 2 * REF_INTERPRETER_S / (refs[-2] + refs[-1])
                      + build * PROBE_REF_S / probe)
    return statistics.median(scaled), statistics.median(raw), statistics.median(refs)


def _run_ops(workload, indices, tracer=None):
    """Run the given ops once each; returns ({index: output}, wall seconds)."""
    outputs = {}
    t0 = time.perf_counter()
    for i in indices:
        if tracer is None:
            outputs[i] = workload.run(workload.ops[i])
        else:
            with tracer.op(i):
                outputs[i] = workload.run(workload.ops[i])
    return outputs, time.perf_counter() - t0


def _timed(workload, seconds: float):
    """Whole passes over the op list until `seconds` have passed (at least
    two), with a host probe after every `PROBE_EVERY_S` of op time.
    Returns the first output of each op, the number of passes, each op's
    latencies scaled by their pass's mean probe, the raw op time and the
    mean probe time."""
    workload.run(workload.ops[0])  # warm-up, not measured
    _host_probe()
    outputs = {}
    scaled = [[] for _ in workload.ops]
    raw_total = 0.0
    probes = []
    passes = 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        pass_probes = [_host_probe()]
        latencies = []
        since_probe = 0.0
        for k, op in enumerate(workload.ops):
            t0 = time.perf_counter()
            out = workload.run(op)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            outputs.setdefault(k, out)
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                pass_probes.append(_host_probe())
                since_probe = 0.0
        scale = PROBE_REF_S / statistics.mean(pass_probes)
        for k, dt in enumerate(latencies):
            scaled[k].append(dt * scale)
        raw_total += sum(latencies)
        probes.extend(pass_probes)
        passes += 1
    return outputs, passes, scaled, raw_total, statistics.mean(probes)


def _tail(latencies):
    """Highest order statistic with at least 10 samples beyond it, its
    percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1  # too few samples: the maximum
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = _load_library()
    import mpmath
    import numpy

    cls = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    print(f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"mpmath={mpmath.__version__} nproc={NPROC} "
          f"threads={os.environ['OMP_NUM_THREADS']}")
    if not trace:
        setup_s, setup_raw, ref_s = _setup_seconds(name, seed)
        print(f"setup: {SETUP_RUNS} interpreters, unscaled median {setup_raw:.4f} s; reference "
              f"interpreter {ref_s:.4f} s against {REF_INTERPRETER_S} s on the reference machine")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = cls(seed)
        workload.out_dir = Path(tmp)
        if trace:
            metrics, outputs, counts, wrong = _traced(workload, name, seed, Path(tmp))
        else:
            outputs, passes, scaled, raw_total, probe_mean = _timed(workload, seconds)
            counts = dict.fromkeys(outputs, passes)
            wrong = {}
            if hasattr(workload, "collect"):
                workload.collect(outputs)
        for i, lines in workload.check(outputs, numpy.random.default_rng(seed)).items():
            wrong.setdefault(i, []).extend(lines)
        attempted, failed, failures = workload.tally(outputs, counts, wrong)
        known, known_wrong = (workload.known_failures()
                              if hasattr(workload, "known_failures") else ([], []))

    for line in failures:
        print(f"failed: {line}")
    for line in known:
        print(f"known failing point, not an op: {line}")
    for i in sorted(wrong):
        for line in wrong[i]:
            print(f"WRONG: {line}")
    for line in known_wrong:
        print(f"WRONG: {line}")
    if not trace:
        n = len(scaled)
        op_latency = [statistics.median(v) for v in scaled]  # each op's, over the passes
        tail, pct, beyond = _tail(op_latency)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": _metric(n * passes / sum(map(sum, scaled)), "1/s"),
            "op_ms_p50": _metric(1e3 * statistics.median(op_latency), "ms"),
            "op_ms_tail": _metric(1e3 * tail, "ms"),
            "setup_s": _metric(setup_s, "s"),
        }
        print(f"ops={n * passes} passes={passes} of {n} ops; an op's latency is its median "
              f"over the passes; tail=p{pct:.2f} ({beyond} of {n} ops beyond); "
              f"unscaled ops_per_s={n * passes / raw_total:.6g}; host probe "
              f"{1e3 * probe_mean:.4f} ms against {1e3 * PROBE_REF_S} ms on the reference machine")
        # Printed but not in the result line: on certify the peak is set by
        # rare trials whose quadrature reaches 2^18-2^19 nodes, so it spreads
        # across seeds by more than any allowed bound.
        print(f"peak_rss_mb = {rss_mb} MB")
    print(f"failed_frac = {failed / max(attempted, 1)!r} ratio ({failed} of {attempted} attempted)")
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    correct = not wrong and not known_wrong
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _traced(workload, name, seed, tmp: Path):
    """Untraced then traced pass over the same fixed ops; outputs must agree."""
    from tracer import Tracer

    indices = range(len(workload.ops))
    workload.run(workload.ops[0])  # warm-up, not measured
    workload.out_dir = tmp / "untraced"
    workload.out_dir.mkdir()
    plain, plain_wall = _run_ops(workload, indices)
    tracer = Tracer()
    workload.out_dir = tmp / "traced"
    workload.out_dir.mkdir()
    with tracer.installed():
        traced, traced_wall = _run_ops(workload, indices, tracer)
    tracer.write_spans(OUT / f"spans-{name}-{seed}.csv")
    if hasattr(workload, "collect"):
        workload.collect(plain)
        workload.collect(traced)
    wrong = {i: [f"op {i}: traced output differs from untraced output"]
             for i in indices if repr(plain[i]) != repr(traced[i])}
    overhead = traced_wall / plain_wall - 1.0
    print(f"ops={len(indices)} untraced_s={plain_wall:.3f} traced_s={traced_wall:.3f} "
          f"spans={len(tracer.spans)}")
    counts = {i: 1 for i in indices}
    return tracer.metrics(overhead), traced, counts, wrong


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alphaharmonic" / "__init__.py").is_file():
        _fail(f"no library source under {SRC}; run from the root of a checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
