"""The three benchmark workloads: inputs, operations and correctness checks.

Each workload builds a seeded list of ops in its constructor (the set-up
that ``setup_s`` times), runs one op per `run` call, and judges outputs
in `check` (wrong outputs, by op index) and `tally` (counted failures).
An op that raises ConvergenceError or DomainError returns a `Failed`
record: it is a counted failure, not a wrong output.  A wrong output is
a counted failure too, and it also makes the run exit non-zero.  The library is reached through its
module attributes at call time, so the tracer's rebinding applies.
"""

from __future__ import annotations

import cmath
import csv
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from alphaharmonic import bounds, cli, errors, kernel, verify

Failed = namedtuple("Failed", "error detail")

_FAILURES = (errors.ConvergenceError, errors.DomainError)


def _failed(exc) -> Failed:
    detail = str(exc)
    if getattr(exc, "iterations", None) is not None:
        detail = f"{exc.iterations} iterations"
    return Failed(type(exc).__name__, detail)


class Certify:
    """Seeded ``run_suite("all", ...)``: the job of ``alphaharm verify --suite all``.

    specfun does nearly all the work (GAUSS_SUMMATION sums up to ~2.2M
    series terms per hyp2f1 call at x = 1 - 1e-5); quadrature and kernel
    little.  Failures count at the trial level: violations plus
    inconclusive trials, over the trial-level checks of every
    non-informational report.
    """

    name = "certify"
    trials = 4         # trials per suite per op, so trials/s = ops_per_s * 4
    n_ops = 128        # a pass over them takes about 10 s

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ops = [int(s) for s in rng.integers(0, 2**31, size=self.n_ops)]

    def run(self, suite_seed):
        try:
            return verify.run_suite("all", verify.TrialSpec(seed=suite_seed,
                                                            n_trials=self.trials))
        except _FAILURES as exc:
            return _failed(exc)

    def tally(self, outputs, counts, wrong):
        """Trial-level counts; a wrong op's violations are already among them."""
        attempted = failed = 0
        failures = []
        for i, out in outputs.items():
            if isinstance(out, Failed):
                attempted += counts[i]
                failed += counts[i]
                failures.append(f"suite seed {self.ops[i]}: {out.error} ({out.detail})")
                continue
            for rep in out:
                if rep.informational:
                    continue
                attempted += counts[i] * (rep.n_checked + rep.n_inconclusive)
                failed += counts[i] * (rep.n_violations + rep.n_inconclusive)
                if rep.n_inconclusive:
                    failures.append(f"suite seed {self.ops[i]}: {rep.theorem_id} "
                                    f"{rep.n_inconclusive} inconclusive")
        return attempted, failed, failures

    def check(self, outputs, rng):
        """Criterion 5's rule: no violation in any non-informational report."""
        wrong = {}
        for i, out in outputs.items():
            if isinstance(out, Failed):
                continue
            if verify.total_violations(out) > 0:
                wrong[i] = [f"suite seed {self.ops[i]}: {rep.theorem_id} "
                            f"margin {d.margin:.3e} ({d.context})"
                            for rep in out if not rep.informational for d in rep.details]
        return wrong


def _closed_form_solution(alpha, coefficients, z):
    """Value and Wirtinger derivatives of the extension, by mpmath.

    The extension of e^{ik theta} is z^k, that of e^{-ik theta} is
    ((alpha+1)_k / k!) F(-alpha, k; k+1; |z|^2) zbar^k; the data is a
    linear combination of these monomials.
    """
    import mpmath as mp

    d = len(coefficients) // 2
    z = complex(z)
    zb = z.conjugate()
    x = abs(z) ** 2
    f = fz = fzb = 0j
    for k in range(d + 1):
        c = complex(coefficients[d + k])
        f += c * z**k
        if k:
            fz += c * k * z ** (k - 1)
    for k in range(1, d + 1):
        c = complex(coefficients[d - k])
        scale = mp.rf(alpha + 1, k) / mp.factorial(k)
        hyp = complex(scale * mp.hyp2f1(-alpha, k, k + 1, x))
        dhyp = complex(scale * mp.mpf(-alpha) * k / (k + 1)
                       * mp.hyp2f1(1 - alpha, k + 1, k + 2, x))
        f += c * hyp * zb**k
        fz += c * dhyp * zb ** (k + 1)
        fzb += c * (dhyp * z * zb**k + k * hyp * zb ** (k - 1))
    return f, fz, fzb


class Dirichlet:
    """``solve_dirichlet`` + ``derivative_pair`` on ``random_boundary`` data.

    kernel and quadrature do nearly all the work, specfun almost none:
    near the boundary node doubling reaches 8192 nodes, the kernel is
    rebuilt per integrand and ``BoundaryData.evaluate`` runs at every
    level.  One op is one solve: the value plus both derivatives.
    """

    name = "dirichlet"
    radius_bands = 16
    alpha_bands = 8  # 16 * 8 * 17 = 2176 ops
    n_checked = 48
    # The quadrature targets rel_tol 1e-11 with an absolute roundoff floor
    # of 32 eps times the integrand's sup bound (below 3e-9 on these
    # inputs); 1e-8 sits above both.
    tolerance = 1e-8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # Stratified, so that the mix of easy and hard ops, and above all
        # the few slowest ones near the boundary, is alike from seed to
        # seed.  |z| and alpha each take one value in each of 2176 equal
        # strata of [0, 0.99) and (-1, 5].  The radii fall in 16 bands of
        # 136, and each band pairs once, in a fixed order, with every cell
        # of 8 alpha bands and the degrees 0-16.  The seed picks the points
        # inside the strata, the boundary data, the argument of z and the
        # op order.
        cells = self.alpha_bands * 17
        n = self.radius_bands * cells
        self.ops = []
        for band in range(self.radius_bands):
            for m in range(cells):
                j, degree = divmod((53 * m + 29 * band) % cells, 17)
                r = 0.99 * (band * cells + m + float(rng.random())) / n
                stratum = (j * self.radius_bands + band) * 17 + degree
                alpha = 5.0 - 6.0 * (stratum + float(rng.random())) / n
                z = r * cmath.exp(2j * math.pi * float(rng.random()))
                fstar = verify.random_boundary(int(rng.integers(0, 2**62)), degree,
                                               float(rng.uniform(0.2, 1.0)))
                self.ops.append((alpha, fstar, z))
        self.ops = [self.ops[k] for k in rng.permutation(n)]

    def run(self, op):
        alpha, fstar, z = op
        try:
            value = kernel.solve_dirichlet(alpha, fstar, z)
            pair = kernel.derivative_pair(alpha, fstar, z)
        except _FAILURES as exc:
            return _failed(exc)
        return value, pair.d_z, pair.d_zbar

    def _context(self, i):
        alpha, fstar, z = self.ops[i]
        return f"alpha={alpha:.6g} |z|={abs(z):.6g} degree={fstar.degree}"

    def tally(self, outputs, counts, wrong):
        raised = [i for i, out in outputs.items() if isinstance(out, Failed)]
        return (sum(counts.values()), sum(counts[i] for i in set(raised) | set(wrong)),
                [f"{self._context(i)}: {outputs[i].error} ({outputs[i].detail})"
                 for i in raised])

    def check(self, outputs, rng):
        done = sorted(i for i, out in outputs.items() if not isinstance(out, Failed))
        sample = rng.choice(done, size=min(self.n_checked, len(done)), replace=False)
        wrong = {}
        for i in sorted(int(j) for j in sample):
            alpha, fstar, z = self.ops[i]
            want = _closed_form_solution(alpha, fstar.coefficients, z)
            for label, got, ref in zip(("f", "f_z", "f_zbar"), outputs[i], want):
                if not abs(got - ref) <= self.tolerance * (1.0 + abs(ref)):
                    wrong.setdefault(i, []).append(
                        f"{self._context(i)}: {label}={got!r}, closed form {ref!r}")
        return wrong


def _reference_bound(bound_id, r, alpha):
    """SCHWARZ_2F1, SP_2F1 and M evaluated by mpmath from their formulas."""
    import mpmath as mp

    r = mp.mpf(r)
    a = mp.mpf(alpha)
    if bound_id in ("SCHWARZ_2F1", "SP_2F1"):
        f = mp.hyp2f1(-a / 2, -a / 2, 1, r * r)
        if bound_id == "SCHWARZ_2F1":
            return f
        lead = 2 * (1 + a) if a >= 0 else mp.mpf(2)
        return lead / (1 - r * r) * f
    s = 1 + r * r
    first = (1 - r * r) ** (a + 1) * abs((1 - r) ** (-a) - 1) / s
    f = mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2 - a / 2, mp.mpf(3) / 2, 4 * r * r / s**2)
    if a >= 0:
        second = 2 ** (2 + a / 2) * r * s ** (a / 2 - 1) / mp.pi * f
    else:
        second = 4 * r / mp.pi * s ** (a / 2 - 1) * f
    return first + second


class BoundsTable:
    """Every id in BOUND_IDS over an (r, alpha) grid reaching r = 0.999,
    plus in-process ``figure1`` and ``bounds --id all`` CLI calls.

    The opposite use of specfun to certify: thousands of short hyp2f1
    calls, so per-call set-up in hyp2f1 shows here.  Seeds choose M1's c,
    48 extra interior points and the CLI calls.  Ops run alpha-major, so
    the slow r = 0.999 points are spread evenly through a pass.

    At r = 0.999, M's series uses up term_cap for the grid alphas in
    [-0.95, 1.9] other than 1.0 (at alpha = 1 it ends at its first term).
    Those 19 points are not ops, so that no timed op fails: they are
    `known`, run once per run outside the measurement by `known_failures`,
    which lists each outcome.  The set is fixed by the grid, not by what
    the library does, so the timed ops stay the same when it changes.
    """

    name = "bounds-table"
    radii = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.97,
             0.99, 0.995, 0.999)
    alphas = tuple((15 * k - 95) / 100.0 for k in range(40))  # -0.95, -0.80, ..., 4.90
    n_extra = 48
    n_cli_bounds = 8
    n_checked = 40  # per checked id
    checked_ids = ("SCHWARZ_2F1", "SP_2F1", "M")
    # hyp2f1 stops at a tail below rel_tol 1e-13; 1e-10 leaves room for the
    # roundoff of sums of up to ~1e6 terms.
    tolerance = 1e-10

    def __init__(self, seed: int):
        self.out_dir: Path | None = None  # where CLI calls write; set by the runner
        rng = np.random.default_rng(seed)
        points = [(r, a) for a in self.alphas for r in self.radii]
        extra = [(float(rng.uniform(0.0, 0.99)), float(rng.uniform(-0.95, 5.0)))
                 for _ in range(self.n_extra)]
        points += extra
        cli_every = len(points) // (self.n_cli_bounds + 1)
        cli_points = [extra[int(i)] for i in
                      rng.choice(self.n_extra, size=self.n_cli_bounds, replace=False)]
        self.ops = []
        self.known = []
        for n, (r, a) in enumerate(points):
            for bid in bounds.BOUND_IDS:
                if bid == "M_PRIME" and a < 0.0:
                    continue  # stated for alpha >= 0 only
                c = float(rng.uniform(0.05, 1.0)) if bid == "M1" else None
                op = ("bound", bid, r, a, c)
                if bid == "M" and r == 0.999 and a < 2.0 and a != 1.0:
                    self.known.append(op)
                else:
                    self.ops.append(op)
            if n % cli_every == cli_every - 1 and cli_points:
                r, a = cli_points.pop()
                argv = ["bounds", "--id", "all", "--r", repr(r), "--alpha", repr(a),
                        "--c", repr(float(rng.uniform(0.05, 1.0)))]
                self.ops.append(("cli", f"bounds-{n}", argv))
        self.ops.append(("cli", "figure1", ["figure1"]))

    def run(self, op):
        if op[0] == "cli":
            _, name, argv = op
            path = self.out_dir / f"{name}.csv"
            return cli.main(argv + ["--out", str(path)]), path
        _, bid, r, a, c = op
        try:
            return bounds.evaluate_bound(bid, r, a, c=c).value
        except _FAILURES as exc:
            return _failed(exc)

    def collect(self, outputs):
        """Replace each CLI result (code, path) by (code, file text)."""
        for i, out in outputs.items():
            if isinstance(out, tuple) and not isinstance(out, Failed):
                code, path = out
                outputs[i] = (code, path.read_text() if path.exists() else None)

    @staticmethod
    def _describe(op):
        if op[0] == "cli":
            return "cli " + " ".join(op[2])
        return f"{op[1]} r={op[2]!r} alpha={op[3]!r}"

    def _context(self, i):
        return self._describe(self.ops[i])

    def known_failures(self):
        """Run each known failing point once; returns a line per point and
        the wrong outputs among those that now converge."""
        lines, wrong = [], []
        for op in self.known:
            out = self.run(op)
            if isinstance(out, Failed):
                lines.append(f"{self._describe(op)}: {out.error} ({out.detail})")
                continue
            lines.append(f"{self._describe(op)}: converges, {out!r}")
            ref = float(_reference_bound(op[1], op[2], op[3]))
            if not abs(out - ref) <= self.tolerance * abs(ref):
                wrong.append(f"{self._describe(op)}: {out!r}, mpmath {ref!r}")
        return lines, wrong

    def tally(self, outputs, counts, wrong):
        bad = [i for i, out in outputs.items()
               if isinstance(out, Failed) or (isinstance(out, tuple) and out[0] != 0)]
        failures = []
        for i in bad:
            out = outputs[i]
            why = (f"{out.error} ({out.detail})" if isinstance(out, Failed)
                   else f"exit code {out[0]}")
            failures.append(f"{self._context(i)}: {why}")
        return (sum(counts.values()), sum(counts[i] for i in set(bad) | set(wrong)),
                failures)

    def check(self, outputs, rng):
        wrong = {}
        for bid in self.checked_ids:
            done = [i for i, out in outputs.items()
                    if self.ops[i][0] == "bound" and self.ops[i][1] == bid
                    and isinstance(out, float)]
            for i in rng.choice(done, size=min(self.n_checked, len(done)), replace=False):
                _, _, r, a, _ = self.ops[int(i)]
                ref = float(_reference_bound(bid, r, a))
                got = outputs[int(i)]
                if not abs(got - ref) <= self.tolerance * abs(ref):
                    wrong[int(i)] = [f"{self._context(int(i))}: {got!r}, mpmath {ref!r}"]
        for i, out in outputs.items():
            if self.ops[i][0] == "cli" and out[0] == 0:
                problem = self._check_cli(self.ops[i], out[1])
                if problem:
                    wrong[i] = [problem]
        return wrong

    def _check_cli(self, op, text):
        """CLI rows must equal direct library calls bit for bit; returns
        what is wrong, or None."""
        if text is None:
            return f"cli {' '.join(op[2])}: no output file"
        rows = list(csv.DictReader(text.splitlines()))
        argv = op[2]
        if argv[0] == "figure1":
            want = [(a, bounds.m_bound(0.99, a), bounds.m2_bound(0.99, a))
                    for a in verify.default_figure_alphas()]
            got = [(float(row["alpha"]), float(row["M"]), float(row["M2"])) for row in rows]
        else:
            r, a, c = (float(argv[argv.index(k) + 1]) for k in ("--r", "--alpha", "--c"))
            want = [(bid, bounds.evaluate_bound(bid, r, a, c=c if bid == "M1" else None).value)
                    for bid in bounds.BOUND_IDS if not (bid == "M_PRIME" and a < 0.0)]
            got = [(row["bound_id"], float(row["value"])) for row in rows]
        if got != want:
            return f"cli {' '.join(argv)}: rows differ from direct library calls"
        return None


WORKLOADS = {w.name: w for w in (Certify, Dirichlet, BoundsTable)}
