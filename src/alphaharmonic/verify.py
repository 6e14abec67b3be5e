"""Empirical certification harness for the inequality and identity suites.

Every suite draws seeded random boundary data, evaluates the relevant
quantity and its published bound through two independent routes where
possible, and records the worst margin (bound minus quantity).  A
violation is a margin below the negative slack; since the inequalities
are proven, violations indicate implementation bugs.  Trials whose
quadrature or series fails to converge are reported as inconclusive
rather than as violations.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .errors import ConvergenceError, DomainError, IntegrandError
from .kernel import (BoundaryData, _kernel_pass, derivative_pair,
                     solve_dirichlet)
from .quadrature import (QuadratureConfig, _node_level, cos_power_integral,
                         integrate_periodic, modulus_power_integral,
                         ratio_integral_series)
from .specfun import (euler_transform_eval, gamma, hyp2f1, hyp2f1_at_one,
                      quadratic_transform_eval)

__all__ = [
    "TrialSpec",
    "TrialReport",
    "ViolationDetail",
    "SUITE_NAMES",
    "random_boundary",
    "thm_a_constant",
    "check_schwarz",
    "check_schwarz_pick",
    "check_proof_machinery",
    "check_identities",
    "figure1_data",
    "default_figure_alphas",
    "run_suite",
    "total_violations",
    "inconclusive_rate",
]

# Suite name -> name of its check function.  run_suite looks the function
# up at call time, so a rebound module attribute is the one called
# (perfbench/tracer.py times each suite that way).
_SUITES = {
    "schwarz": "check_schwarz",
    "schwarz-pick": "check_schwarz_pick",
    "identities": "check_identities",
    "machinery": "check_proof_machinery",
}
SUITE_NAMES = tuple(_SUITES)

_DEFAULT_ALPHAS = (-0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0)
_DEFAULT_RADII = (0.1, 0.3, 0.5, 0.7, 0.85)

# DIRICHLET_SPECTRAL's kernel integrals are analytic, so the trapezoid error
# falls geometrically and two levels agree only once both are resolved;
# starting at 64 nodes lets the small radii stop at 128 or 256 nodes.
_KERNEL_QUADRATURE = QuadratureConfig(n_initial=64)


@dataclass(frozen=True)
class TrialSpec:
    seed: int = 0
    n_trials: int = 100
    max_degree: int = 8
    alpha_set: tuple = _DEFAULT_ALPHAS
    radius_set: tuple = _DEFAULT_RADII
    slack: float = 1e-9

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed!r}")
        if self.n_trials < 1 or self.max_degree < 0:
            raise DomainError("n_trials must be >= 1 and max_degree >= 0")
        if not all(a > -1.0 for a in self.alpha_set):
            raise DomainError("all alphas must exceed -1")
        if not all(0.0 <= r < 1.0 for r in self.radius_set):
            raise DomainError("all radii must lie in [0, 1)")
        if self.slack < 0.0:
            raise DomainError("slack must be non-negative")


@dataclass(frozen=True)
class ViolationDetail:
    trial: int
    margin: float
    context: str


@dataclass
class TrialReport:
    theorem_id: str
    n_checked: int
    n_violations: int
    n_inconclusive: int
    worst_margin: float
    details: list = field(default_factory=list)
    informational: bool = False


class _Tracker:
    """Accumulates margins for one named inequality."""

    _DETAIL_CAP = 20

    def __init__(self, theorem_id: str, slack: float, informational: bool = False,
                 require_positive: bool = False):
        self.theorem_id = theorem_id
        self.slack = slack
        self.informational = informational
        self.require_positive = require_positive
        self.n_checked = 0
        self.n_violations = 0
        self.n_inconclusive = 0
        self.worst = math.inf
        self.details: list[ViolationDetail] = []

    def add(self, margin: float, trial: int, context: str) -> None:
        self.n_checked += 1
        if margin < self.worst:
            self.worst = margin
        violated = margin <= 0.0 if self.require_positive else margin < -self.slack
        if violated:
            self.n_violations += 1
            if len(self.details) < self._DETAIL_CAP:
                self.details.append(ViolationDetail(trial, margin, context))

    def add_inconclusive(self) -> None:
        self.n_inconclusive += 1

    def report(self) -> TrialReport:
        return TrialReport(self.theorem_id, self.n_checked, self.n_violations,
                           self.n_inconclusive, self.worst, self.details,
                           self.informational)


def random_boundary(seed: int, degree: int, target_sup_norm: float = 1.0) -> BoundaryData:
    """Seeded trig polynomial rescaled to the requested grid sup-norm.

    Coefficients are complex Gaussian; the same seed always yields the
    same data.  The polynomial is sampled once: the rescaled data scales
    the raw data's samples.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree!r}")
    if not (0.0 < target_sup_norm <= 1.0):
        raise DomainError(f"target sup-norm must lie in (0, 1], got {target_sup_norm!r}")
    rng = np.random.default_rng(seed)
    n = 2 * degree + 1
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    raw = BoundaryData(coeffs)
    return raw.scaled(target_sup_norm / raw.sup_norm)


def thm_a_constant(fstar: BoundaryData) -> float:
    """Ratio of the boundary modulus mean to the sup-norm, in (0, 1].

    The mean of |fstar| is a trapezoid quadrature whose levels sample
    fstar by one inverse FFT each.  |fstar| has kinks where fstar nears
    zero, so there the rule converges only algebraically and can run to
    its 2^20-node cap.  The true ratio never exceeds 1; for
    constant-modulus data the computed quotient can land epsilon above it,
    so the result is capped at 1.
    """
    if fstar.sup_norm == 0.0:
        raise DomainError("boundary data is identically zero")

    def integrand(theta):
        return np.abs(fstar._on_grid(*_node_level(theta)))

    mean = integrate_periodic(integrand).unwrap("boundary-mean quadrature")
    return min(float(mean) / fstar.sup_norm, 1.0)


def _draw_boundary_trial(rng: np.random.Generator, spec: TrialSpec):
    degree = int(rng.integers(0, spec.max_degree + 1))
    target = float(rng.uniform(0.2, 1.0))
    sub_seed = int(rng.integers(0, 2**62))
    fstar = random_boundary(sub_seed, degree, target)
    alpha = float(rng.choice(np.asarray(spec.alpha_set, dtype=float)))
    r = float(rng.choice(np.asarray(spec.radius_set, dtype=float)))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    z = r * cmath.exp(1j * phi)
    return fstar, alpha, r, z


def check_schwarz(spec: TrialSpec) -> list[TrialReport]:
    """Center-value and sup Schwarz inequalities on random boundary data."""
    rng = np.random.default_rng(spec.seed)
    t_m = _Tracker("CENTER_M", spec.slack)
    t_m2 = _Tracker("CENTER_M2", spec.slack)
    t_mp = _Tracker("CENTER_M_PRIME", spec.slack)
    t_sup = _Tracker("SUP_2F1", spec.slack)
    t_m1 = _Tracker("CENTER_M1", spec.slack, informational=True)
    trackers = [t_m, t_m2, t_mp, t_sup, t_m1]
    for trial in range(spec.n_trials):
        fstar, alpha, r, z = _draw_boundary_trial(rng, spec)
        sup = fstar.sup_norm
        ctx = f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={sup:.3g}"
        try:
            f0 = solve_dirichlet(alpha, fstar, 0.0)
            fz = solve_dirichlet(alpha, fstar, z)
            lhs = abs(fz - (1.0 - r * r) ** (alpha + 1.0) / (1.0 + r * r) * f0)
            t_m.add(bnd.m_bound(r, alpha) - lhs, trial, ctx)
            t_m2.add(bnd.m2_bound(r, alpha) - lhs, trial, ctx)
            if alpha >= 0.0:
                t_mp.add(bnd.m_prime_bound(r, alpha) - lhs, trial, ctx)
            t_sup.add(bnd.schwarz_bound(r, alpha) * sup - abs(fz), trial, ctx)
        except ConvergenceError:
            for t in trackers:
                t.add_inconclusive()
            continue
        # |f*| has kinks where f* nears zero, so its boundary-mean quadrature
        # can fail; that leaves only the informational M1 check open
        try:
            c = thm_a_constant(fstar)
        except ConvergenceError:
            t_m1.add_inconclusive()
            continue
        t_m1.add(bnd.m1_bound(r, alpha, c) * sup - abs(fz), trial, ctx)
    return [t.report() for t in trackers]


def check_schwarz_pick(spec: TrialSpec) -> list[TrialReport]:
    """Derivative-norm inequalities on random boundary data."""
    rng = np.random.default_rng(spec.seed)
    t_sp = _Tracker("DERIV_SP_2F1", spec.slack)
    t_lim = _Tracker("DERIV_SP_LIMIT", spec.slack)
    t_lc = _Tracker("DERIV_LC", spec.slack)
    t_col = _Tracker("DERIV_COLONNA", spec.slack)
    trackers = [t_sp, t_lim, t_lc, t_col]
    for trial in range(spec.n_trials):
        fstar, alpha, r, z = _draw_boundary_trial(rng, spec)
        sup = fstar.sup_norm
        ctx = f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={sup:.3g}"
        try:
            nd = derivative_pair(alpha, fstar, z).norm
            t_sp.add(bnd.schwarz_pick_bound(r, alpha) * sup - nd, trial, ctx)
            t_lim.add(bnd.schwarz_pick_limit_bound(r, alpha) * sup - nd, trial, ctx)
            t_lc.add(bnd.lc_schwarz_pick_bound(r, alpha) * sup - nd, trial, ctx)
            if alpha == 0.0:
                t_col.add(bnd.colonna_bound(r) * sup - nd, trial, ctx)
        except ConvergenceError:
            for t in trackers:
                t.add_inconclusive()
    return [t.report() for t in trackers]


def _pochhammer_ratio_sequence(alpha: float, n: np.ndarray,
                               half_n: np.ndarray) -> np.ndarray:
    """q_0 = 1 and the running products of the ratios
    (1/2 + alpha/4 + n)(1 + alpha/4 + n) / ((1/2 + n)(1 + alpha/2 + n)),
    with the alpha-free n and 1/2 + n passed in."""
    ratios = ((0.5 + alpha / 4.0 + n) * (1.0 + alpha / 4.0 + n)
              / (half_n * (1.0 + alpha / 2.0 + n)))
    return np.concatenate(([1.0], np.cumprod(ratios)))


def _rate_function(alpha: float, r: float) -> float:
    num = 2.0 * r * (1.0 + alpha) * (1.0 + alpha * r * r)
    den = (1.0 + alpha * r * r) ** 2 + (1.0 + alpha) ** 2 * r * r
    return num / den


def check_proof_machinery(spec: TrialSpec) -> list[TrialReport]:
    """Sequence and pointwise facts used inside the derivative estimates.

    MOEBIUS_CONTRACTION bounds max over theta of
    |(1+alpha)(r^2 - xi) + 1 - r^2| / |1 - xi|, xi = r e^{-i theta}, on a
    4096-point grid.  With b = 1 + alpha, c = 1 - r^2 and w = r^2 - xi its
    square is (b^2 |w|^2 + 2bc Re w + c^2) / |1 - xi|^2, so e^{-i theta}
    is formed once per call, the three alpha-free grids once per radius,
    and one matrix product per radius gives every negative alpha's values.
    """
    t_q = _Tracker("POCHHAMMER_RATIO_SEQUENCE", spec.slack)
    t_r = _Tracker("RATE_FUNCTION", spec.slack)
    t_mob = _Tracker("MOEBIUS_CONTRACTION", spec.slack, require_positive=True)

    n_steps = 10_000
    n = np.arange(n_steps, dtype=float)
    half_n = 0.5 + n
    for i, alpha in enumerate(spec.alpha_set):
        q = _pochhammer_ratio_sequence(alpha, n, half_n)
        diffs = np.diff(q)
        mono = float(np.min(diffs)) if alpha >= 0.0 else float(np.min(-diffs))
        limit = 2.0 ** (alpha / 2.0)
        rel_gap = abs(q[-1] - limit) / limit
        ctx = f"alpha={alpha:.3g} n={n_steps}"
        t_q.add(min(mono, 1e-2 - rel_gap), i, ctx)

    i = 0
    for alpha in spec.alpha_set:
        if alpha < 0.0:
            continue
        for r in spec.radius_set:
            if r == 0.0:
                continue
            ctx = f"alpha={alpha:.3g} r={r:.3g}"
            t_r.add(_rate_function(alpha, r) - _rate_function(0.0, r), i, ctx)
            i += 1
    for r in spec.radius_set:
        if r == 0.0:
            continue
        t_r.add(1e-12 - abs(_rate_function(1.0 / r, r) - 1.0), i, f"alpha=1/r r={r:.3g}")
        i += 1

    negative = [alpha for alpha in spec.alpha_set if alpha < 0.0]
    sups = []  # per radius: the max over theta for every negative alpha
    if negative:
        b = 1.0 + np.array(negative)
        emith = np.exp(-1j * (2.0 * math.pi * np.arange(4096) / 4096.0))
        for r in spec.radius_set:
            xi = r * emith
            w, one_minus_xi = r * r - xi, 1.0 - xi
            inv = 1.0 / (one_minus_xi.real ** 2 + one_minus_xi.imag ** 2)
            grid = np.stack([(w.real ** 2 + w.imag ** 2) * inv, w.real * inv, inv])
            c = 1.0 - r * r
            coef = np.stack([b * b, 2.0 * c * b, np.full_like(b, c * c)], axis=1)
            sups.append(np.sqrt(np.max(coef @ grid, axis=1)))
    i = 0
    for k, alpha in enumerate(negative):
        for r, sup in zip(spec.radius_set, sups):
            t_mob.add((1.0 - alpha) - float(sup[k]), i, f"alpha={alpha:.3g} r={r:.3g}")
            i += 1

    return [t_q.report(), t_r.report(), t_mob.report()]


@functools.cache
def _gauss_legendre_quarter() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights on [0, pi/2], read-only.

    Built once per process: the eigenvalue solve behind them takes about
    1 ms, several percent of a four-trial run of every suite.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half_pi = math.pi / 2.0
    theta = 0.5 * (nodes + 1.0) * half_pi
    w = 0.5 * half_pi * weights
    theta.flags.writeable = False
    w.flags.writeable = False
    return theta, w


def check_identities(spec: TrialSpec) -> list[TrialReport]:
    """Quadrature-versus-closed-form and transform identity suites.

    DIRICHLET_SPECTRAL compares the solver (`solve_dirichlet`,
    `derivative_pair`) with the quadrature route on data drawn as in the
    Schwarz suites: one kernel pass integrates the value and both
    Wirtinger derivatives together (the rows of `dirichlet_quadrature` and
    `derivative_quadrature`).  A pass that does not converge or meets a
    non-finite integrand (alpha in the hundreds) leaves its trial
    inconclusive.
    """
    rng = np.random.default_rng(spec.seed)
    t_cos = _Tracker("COSINE_MEAN_SERIES", spec.slack)
    t_mod = _Tracker("MODULUS_POWER_MEAN", spec.slack)
    t_wal = _Tracker("COSINE_POWER_WALLIS", spec.slack)
    t_eul = _Tracker("EULER_TRANSFORM", spec.slack)
    t_qud = _Tracker("QUADRATIC_TRANSFORM", spec.slack)
    t_gau = _Tracker("GAUSS_SUMMATION", spec.slack)
    t_dup = _Tracker("DUPLICATION", spec.slack)
    t_dsp = _Tracker("DIRICHLET_SPECTRAL", spec.slack)

    for trial in range(spec.n_trials):
        a = float(rng.uniform(-0.95, 0.95))
        b = float(rng.uniform(-0.95, 0.95))
        al = float(rng.uniform(0.0, 4.0))
        be = float(rng.uniform(0.0, 4.0))
        ctx = f"a={a:.3g} b={b:.3g} alpha={al:.3g} beta={be:.3g}"
        try:
            series = ratio_integral_series(a, b, al, be)

            def integrand(theta, a=a, b=b, al=al, be=be):
                return ((1.0 - a * np.cos(theta)) ** al
                        / (1.0 - b * np.cos(theta)) ** be)

            quad = integrate_periodic(integrand).unwrap("mean quadrature")
            rel = abs(series - quad) / max(abs(quad), 1e-12)
            t_cos.add(1e-8 - rel, trial, ctx)
        except ConvergenceError:
            t_cos.add_inconclusive()

    for trial in range(spec.n_trials):
        r = float(rng.uniform(0.0, 0.9))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        be = float(rng.uniform(0.0, 3.0))
        z = r * cmath.exp(1j * phi)
        ctx = f"r={r:.3g} beta={be:.3g}"
        try:
            closed = modulus_power_integral(z, be)

            def integrand(theta, z=z, be=be):
                return np.abs(1.0 - z * np.exp(1j * theta)) ** (-2.0 * be)

            quad = integrate_periodic(integrand).unwrap("mean quadrature")
            rel = abs(closed - quad) / max(abs(quad), 1e-12)
            t_mod.add(1e-9 - rel, trial, ctx)
        except ConvergenceError:
            t_mod.add_inconclusive()

    theta, w = _gauss_legendre_quarter()
    for n in range(41):
        oracle = float(np.sum(w * np.cos(theta) ** n))
        diff = abs(cos_power_integral(n) - oracle)
        t_wal.add(1e-12 - diff, n, f"n={n}")

    for trial in range(spec.n_trials):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(0.3, 3.0))
        x = float(rng.uniform(0.0, 0.95))
        ctx = f"a={a:.3g} b={b:.3g} c={c:.3g} x={x:.3g}"
        lhs = hyp2f1((a, b, c), x)
        rhs = euler_transform_eval((a, b, c), x)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        t_eul.add(1e-10 - rel, trial, ctx)

    for trial in range(spec.n_trials):
        a = float(rng.uniform(-1.5, 1.5))
        c = float(rng.uniform(0.4, 3.0))
        x = float(rng.uniform(0.0, 0.95))
        ctx = f"a={a:.3g} c={c:.3g} x={x:.3g}"
        lhs = hyp2f1((a, a + 0.5, c), x)
        rhs = quadratic_transform_eval(a, c, x)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        t_qud.add(1e-10 - rel, trial, ctx)

    deltas = (1e-2, 1e-3, 1e-4, 1e-5)
    for trial in range(spec.n_trials):
        while True:
            a = float(rng.uniform(-1.0, 1.5))
            b = float(rng.uniform(-1.0, 1.5))
            c = a + b + float(rng.uniform(0.25, 2.0))
            if c - a > 0.05 and c - b > 0.05 and c > 0.3:
                break
        ctx = f"a={a:.3g} b={b:.3g} c={c:.3g}"
        limit = hyp2f1_at_one((a, b, c))
        gaps = [abs(hyp2f1((a, b, c), 1.0 - d) - limit) for d in deltas]
        decrease = min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1))
        t_gau.add(decrease, trial, ctx)

    for trial in range(spec.n_trials):
        x = float(rng.uniform(0.1, 20.0))
        lhs = gamma(2.0 * x)
        rhs = 2.0 ** (2.0 * x - 1.0) / math.sqrt(math.pi) * gamma(x) * gamma(x + 0.5)
        rel = abs(lhs - rhs) / abs(lhs)
        t_dup.add(1e-12 - rel, trial, f"x={x:.3g}")

    # the solver's mode sums against the kernel integrals by quadrature
    for trial in range(spec.n_trials):
        fstar, alpha, r, z = _draw_boundary_trial(rng, spec)
        ctx = f"alpha={alpha:.3g} r={r:.3g} degree={fstar.degree} sup={fstar.sup_norm:.3g}"
        try:
            pair = derivative_pair(alpha, fstar, z)
            spectral = (solve_dirichlet(alpha, fstar, z), pair.d_z, pair.d_zbar)
            q_f, q_dz, q_dzbar = _kernel_pass(alpha, fstar, z, (0, 1, 2), _KERNEL_QUADRATURE)
            quad = (q_f.unwrap("Dirichlet quadrature"),
                    q_dz.unwrap("d/dz quadrature"), q_dzbar.unwrap("d/dzbar quadrature"))
        except (ConvergenceError, IntegrandError):
            t_dsp.add_inconclusive()
            continue
        err = max(abs(s - q) / (1.0 + abs(q)) for s, q in zip(spectral, quad))
        t_dsp.add(1e-9 - err, trial, ctx)

    return [t.report() for t in (t_cos, t_mod, t_wal, t_eul, t_qud, t_gau, t_dup, t_dsp)]


def default_figure_alphas() -> list[float]:
    """Grid -0.95, -0.90, ..., 3.00 built from integers to keep 0.0 exact."""
    return [(5 * i - 95) / 100.0 for i in range(80)]


def figure1_data(r: float = 0.99, alphas=None) -> list[tuple[float, float, float]]:
    """Rows (alpha, hypergeometric bound, arctan bound) at fixed radius."""
    if alphas is None:
        alphas = default_figure_alphas()
    return [(float(a), bnd.m_bound(r, a), bnd.m2_bound(r, a)) for a in alphas]


def run_suite(name: str, spec: TrialSpec) -> list[TrialReport]:
    """Run one named suite (or all of them) and return its reports."""
    if name != "all" and name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    reports = []
    for key in SUITE_NAMES if name == "all" else (name,):
        reports.extend(globals()[_SUITES[key]](spec))
    return reports


def total_violations(reports: list[TrialReport]) -> int:
    """Violations across reports, ignoring informational ones."""
    return sum(r.n_violations for r in reports if not r.informational)


def inconclusive_rate(reports: list[TrialReport]) -> float:
    checked = sum(r.n_checked for r in reports)
    inconclusive = sum(r.n_inconclusive for r in reports)
    total = checked + inconclusive
    return inconclusive / total if total else 0.0
