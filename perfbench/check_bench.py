"""Checks of the benchmark itself (not collected by the library's test run).

    python3 -m pytest perfbench/check_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from alphaharmonic import bounds, cli, quadrature, specfun, verify  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _traced_counts(name, seed):
    proc = _run("--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name):
    # A traced run also requires its outputs to equal the untraced ones bit
    # for bit (``correct`` is false otherwise).
    first = _traced_counts(name, 3)
    assert first == _traced_counts(name, 3)
    assert any(k.endswith(".calls") and v > 0 for k, v in first.items())


def test_rebinding_is_undone():
    originals = (specfun.hyp2f1, bounds.hyp2f1, verify.solve_dirichlet,
                 cli.evaluate_bound, quadrature.integrate_periodic, specfun._series_sum)
    with Tracer().installed():
        assert bounds.hyp2f1 is specfun.hyp2f1 is not originals[0]
        assert cli.evaluate_bound is bounds.evaluate_bound
    assert (specfun.hyp2f1, bounds.hyp2f1, verify.solve_dirichlet, cli.evaluate_bound,
            quadrature.integrate_periodic, specfun._series_sum) == originals


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "dirichlet", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
