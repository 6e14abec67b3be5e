"""The one-entry memos behind the solver and the F bounds: what they
return, what they save, and that threads sharing them get their own
results."""

import cmath
import struct
import sys
import threading
import time

import numpy as np
import pytest

import alphaharmonic.bounds as bounds_module
import alphaharmonic.kernel as kernel_module
import alphaharmonic.verify as verify_module
from alphaharmonic import (BoundaryData, ConvergenceError, TrialSpec,
                           derivative_pair, evaluate_bound, hyp2f1,
                           l1_mean_kernel, random_boundary, schwarz_bound,
                           schwarz_pick_bound, solve_dirichlet)
from alphaharmonic._memo import LastCall
from alphaharmonic.kernel import _spectral
from alphaharmonic.specfun import _hyp


def bits(*values) -> bytes:
    """The exact bits of complex values, so -0.0 differs from 0.0."""
    parts = [p for v in values for p in (complex(v).real, complex(v).imag)]
    return struct.pack(f"{len(parts)}d", *parts)


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


class TestSpectralMemo:
    def test_interleaved_calls_return_the_direct_sum(self):
        fstar = random_boundary(21, 5, 0.8)
        twin = BoundaryData(fstar.coefficients)  # equal coefficients, another object
        p, q = 0.3 - 0.4j, -0.6 + 0.1j
        calls = [
            ("value", 1.5, fstar, p), ("pair", 1.5, fstar, q), ("pair", 1.5, fstar, p),
            ("value", 1.5, twin, p), ("pair", 1.5, twin, p), ("value", 1.5, fstar, p),
            ("value", 0.0, fstar, p), ("pair", -0.0, fstar, p), ("value", -0.0, fstar, p),
            ("pair", 0.0, fstar, p),
            ("value", 0.7, fstar, 0j), ("pair", 0.7, fstar, complex(-0.0, 0.0)),
            ("pair", 0.7, fstar, complex(0.0, -0.0)), ("pair", 0.7, fstar, 0j),
            ("value", 0.7, fstar, complex(-0.0, -0.0)),
        ]
        for kind, alpha, data, z in calls:
            want = _spectral(alpha, data, z)
            if kind == "value":
                assert bits(solve_dirichlet(alpha, data, z)) == bits(want[0]), (kind, alpha, z)
            else:
                pair = derivative_pair(alpha, data, z)
                assert bits(pair.d_z, pair.d_zbar) == bits(*want[1:]), (kind, alpha, z)

    def test_value_then_pair_sums_the_seed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernel_module, "_mode_seed",
                            counting(kernel_module._mode_seed, calls))
        monkeypatch.setattr(kernel_module, "_LAST_SPECTRAL", LastCall())
        fstar = random_boundary(22, 4, 1.0)
        z = 0.5 + 0.2j
        solve_dirichlet(2.5, fstar, z)
        derivative_pair(2.5, fstar, z)
        assert len(calls) == 1
        derivative_pair(2.5, fstar, z.conjugate())
        assert len(calls) == 2

    def test_an_error_is_not_kept(self, monkeypatch):
        # the mode sum overflows; every call sums again and raises
        calls = []
        monkeypatch.setattr(kernel_module, "_spectral", counting(_spectral, calls))
        fstar = BoundaryData(np.full(17, 5e306))
        for n in (1, 2):
            with pytest.raises(ConvergenceError, match="overflows"):
                solve_dirichlet(3.0, fstar, 0.5)
            assert len(calls) == n


class TestFMemo:
    def test_three_f_bounds_sum_f_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds_module, "_hyp", counting(_hyp, calls))
        monkeypatch.setattr(bounds_module, "_LAST_F", LastCall())
        r, alpha = 0.7, 1.5
        values = {bid: evaluate_bound(bid, r, alpha).value
                  for bid in ("SCHWARZ_2F1", "SP_2F1", "SP_LIMIT", "L1_MEAN")}
        assert len(calls) == 1
        f = _hyp(-alpha / 2.0, -alpha / 2.0, 1.0, r * r, (1.0 - r) * (1.0 + r)).value
        assert values["SCHWARZ_2F1"] == values["L1_MEAN"] == f
        assert values["SP_2F1"] == 2.0 * (1.0 + alpha) / ((1.0 - r) * (1.0 + r)) * f
        schwarz_bound(r, -0.5)
        assert len(calls) == 2

    def test_signed_zeros_are_different_keys(self):
        for r, alpha in ((0.0, 0.5), (-0.0, 0.5), (0.3, 0.0), (0.3, -0.0)):
            want = hyp2f1((-alpha / 2.0, -alpha / 2.0, 1.0), r * r)
            assert bits(schwarz_bound(r, alpha)) == bits(want)
            assert bits(l1_mean_kernel(alpha, r)) == bits(want)


def test_threads_get_their_own_results():
    """Four threads (more than the cores) share both memos at once, with
    a short switch interval; a memo that let one thread see another's
    value under its own key would fail the bit-for-bit comparison."""
    n_threads, rounds, repeats = 4, 20, 5
    work = []
    for t in range(n_threads):
        # sums of very different lengths, so that one thread's sum can start
        # after another's and end before it
        points = [(0.5 * t - 0.4 + 0.3 * i, random_boundary(100 + 3 * t + i, degree, 1.0),
                   r * cmath.exp(1j * (t + i))) for i, (degree, r) in
                  enumerate(((1, 0.2), (12, 0.6), (40, 0.97)))]
        # references: one call per point, each after a call elsewhere
        refs = []
        for alpha, fstar, z in points:
            solve_dirichlet(0.25, fstar, 0.1j)
            value = solve_dirichlet(alpha, fstar, z)
            solve_dirichlet(0.25, fstar, 0.1j)
            pair = derivative_pair(alpha, fstar, z)
            schwarz_bound(0.9, 0.25)
            refs.append((bits(value), bits(pair.d_z, pair.d_zbar),
                         bits(schwarz_pick_bound(abs(z), alpha))))
        work.append(list(zip(points, refs)))

    failures, done = [], []

    def run(items):
        # each point is asked for several times in a row, and every call
        # yields the interpreter after it: a wrong entry left under another
        # thread's key is otherwise replaced by its writer's next call before
        # that thread ever reads it
        for _ in range(rounds):
            for (alpha, fstar, z), (value, pair_bits, bound) in items:
                for _ in range(repeats):
                    if bits(solve_dirichlet(alpha, fstar, z)) != value:
                        failures.append(("value", alpha, z))
                    time.sleep(0)
                    pair = derivative_pair(alpha, fstar, z)
                    if bits(pair.d_z, pair.d_zbar) != pair_bits:
                        failures.append(("pair", alpha, z))
                    time.sleep(0)
                    if bits(schwarz_pick_bound(abs(z), alpha)) != bound:
                        failures.append(("bound", alpha, z))
                    time.sleep(0)
        done.append(True)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(items,)) for items in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert failures == []
    assert len(done) == n_threads


class TestTrialMemo:
    def test_schwarz_suites_draw_their_trials_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify_module, "_draw_trials",
                            counting(verify_module._draw_trials, calls))
        monkeypatch.setattr(verify_module, "_LAST_TRIALS", LastCall())
        spec = TrialSpec(seed=5, n_trials=3)
        verify_module.check_schwarz(spec)
        verify_module.check_schwarz_pick(spec)
        assert len(calls) == 1
        verify_module.check_schwarz_pick(TrialSpec(seed=5, n_trials=3, radius_set=(0.1, 0.3)))
        assert len(calls) == 2

    def test_reports_match_fresh_draws(self, monkeypatch):
        spec = TrialSpec(seed=9, n_trials=6)
        after_schwarz = (verify_module.check_schwarz(spec), verify_module.check_schwarz_pick(spec))
        monkeypatch.setattr(verify_module, "_LAST_TRIALS", LastCall())
        fresh_pick = verify_module.check_schwarz_pick(spec)
        monkeypatch.setattr(verify_module, "_LAST_TRIALS", LastCall())
        assert (verify_module.check_schwarz(spec), fresh_pick) == after_schwarz
