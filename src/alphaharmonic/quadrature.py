"""Periodic trapezoidal quadrature and closed-form trigonometric integrals.

The engine computes circle means (1/2pi) * integral over [0, 2pi) by the
composite trapezoidal rule on equispaced nodes, doubling the node count
until two successive levels agree.  For the analytic periodic integrands
used throughout this package the rule is spectrally accurate.  The
first integrand call samples the first level and its midpoints as one
grid of twice the nodes, and each later call one level's midpoints.
Every call's nodes are equispaced, theta_j = theta_0 + 2pi j / n, so an
integrand can sample a trig polynomial there by one inverse FFT from
its node count and first node alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, IntegrandError
from .specfun import _count, _hyp, _one_minus_abs2, _positive_real, _real, disk_point_value

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_periodic",
    "cos_power_integral",
    "ratio_integral_series",
    "modulus_power_integral",
]


@dataclass(frozen=True)
class QuadratureConfig:
    n_initial: int = 256
    n_max: int = 2**20
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14

    def __post_init__(self):
        for name in ("n_initial", "n_max"):
            n = _count(name, getattr(self, name), 1)
            if n & (n - 1):
                raise DomainError(f"{name} must be a power of two, got {n!r}")
        if self.n_initial > self.n_max:
            raise DomainError("n_initial must not exceed n_max")
        _positive_real("rel_tol", self.rel_tol)
        _positive_real("abs_tol", self.abs_tol)


DEFAULT_CONFIG = QuadratureConfig()

# `ratio_integral_series` sizes its outer truncation for a tail of
# _RATIO_TAIL, at least _RATIO_LEAST_OUTER terms, and drops binomial terms
# below _TINY_TERM, whose products with the other series' terms could be
# subnormal (about 100 times slower to multiply) and are far below an ulp
# of the sum.
_RATIO_TAIL = 2.0 ** -60
_RATIO_LEAST_OUTER = 4
_TINY_TERM = 1e-150


class QuadratureResult(NamedTuple):
    """A circle mean, or a tuple of row means for a stacked integrand, with
    its error estimate, node count and whether it converged: an immutable
    named tuple, as every per-call result is."""

    value: complex | float | tuple
    error_estimate: float | tuple
    nodes_used: int
    converged: bool

    def unwrap(self, what: str):
        """The value if converged, else ConvergenceError naming ``what``
        (a stacked result's message gives its largest row error)."""
        if not self.converged:
            raise ConvergenceError(
                f"{what} did not converge "
                f"(nodes={self.nodes_used}, err={np.max(self.error_estimate):.3e})",
                partial=self.value,
                error_estimate=self.error_estimate,
                iterations=self.nodes_used,
            )
        return self.value


def _nodes(n: int, offset: float) -> np.ndarray:
    """The level's nodes theta_j = 2pi (j + offset) / n, j = 0..n-1."""
    return 2.0 * math.pi * (np.arange(n) + offset) / n


def _sample(f: Callable, theta: np.ndarray) -> np.ndarray:
    """f at theta, a scalar broadcast to theta's length (a constant
    integrand); DomainError naming f for any shape but (n,) or (m, n)."""
    vals = np.asarray(f(theta))
    if vals.ndim == 0:
        return np.broadcast_to(vals, theta.shape)
    if vals.shape[-1:] != theta.shape or vals.ndim > 2:
        raise DomainError(f"f must return a scalar or values of shape ({theta.size},) "
                          f"or (m, {theta.size}), got shape {vals.shape}")
    return vals


def _checked_sum(vals: np.ndarray, theta: np.ndarray):
    """Row sums of vals, or IntegrandError at the first theta where a value
    is not finite; a finite sum has finite terms, so only a non-finite sum
    makes the values be scanned."""
    total = vals.sum(axis=-1)
    if not np.isfinite(total).all():
        finite = np.isfinite(vals)  # for complex values, both parts
        if not finite.all():
            bad = float(theta[np.argmin(finite.reshape(-1, theta.size).all(axis=0))])
            raise IntegrandError(f"integrand is non-finite at theta={bad!r}", theta=bad)
    return total


def integrate_periodic(f: Callable, config: QuadratureConfig | None = None) -> QuadratureResult:
    """Circle mean of f over [0, 2pi) by node-doubling trapezoidal sums.

    ``f`` must accept a float ndarray of n angles and return values of the
    same shape, or of shape (m, n) for m integrands stacked as rows.  A
    stacked integrand's ``value`` and ``error_estimate`` are tuples of m
    row means and row errors, and the doubling stops only when every row
    meets max(rel_tol |mean_i|, abs_tol); a caller that needs its own
    absolute tolerance for a row scales that row.  Node sums reuse
    previous levels (new nodes are the midpoints), and summation order is
    fixed, so results are reproducible.

    The first call samples the first two levels together, 2 n_initial
    nodes at offset 0 (n_initial alone when it is n_max): its even-indexed
    values are the first level's nodes and its odd-indexed ones the
    midpoints, bit for bit, and each level is summed on its own, so a
    quadrature that converges there makes one integrand call.
    """
    cfg = config or DEFAULT_CONFIG
    n = cfg.n_initial
    if n < cfg.n_max:
        theta = _nodes(2 * n, 0.0)
        vals = _sample(f, theta)
        total = _checked_sum(vals[..., 0::2], theta[0::2])
        mid = _checked_sum(vals[..., 1::2], theta[1::2])
    else:
        theta = _nodes(n, 0.0)
        total = _checked_sum(_sample(f, theta), theta)
        mid = None
    prev_mean = total / n
    err = np.full(np.shape(prev_mean), np.inf)
    while n < cfg.n_max:
        if mid is None:
            theta = _nodes(n, 0.5)
            mid = _checked_sum(_sample(f, theta), theta)
        total = total + mid
        mid = None
        n *= 2
        mean = total / n
        err = np.abs(mean - prev_mean)
        if (err <= np.maximum(cfg.rel_tol * np.abs(mean), cfg.abs_tol)).all():
            return _result(mean, err, n, True)
        prev_mean = mean
    return _result(prev_mean, err, n, False)


def _result(mean, err, n: int, converged: bool) -> QuadratureResult:
    if np.ndim(mean) == 0:
        return QuadratureResult(_as_scalar(mean), float(err), n, converged)
    return QuadratureResult(tuple(map(_as_scalar, mean)), tuple(map(float, err)),
                            n, converged)


def _as_scalar(v):
    v = complex(v)
    return v if v.imag != 0.0 else v.real


def cos_power_integral(n: int) -> float:
    """Integral of cos^n over [0, pi/2] via the double-factorial formula."""
    k, odd = divmod(_count("n", n, 0), 2)
    out = 1.0
    for j in range(1, k + 1):  # (2j)/(2j+1) for odd n, (2j-1)/(2j) for even
        out *= (2.0 * j - 1.0 + odd) / (2.0 * j + odd)
    return out if odd else out * math.pi / 2.0


def _binom_times_power(alpha: float, t: float, m_max: int) -> np.ndarray:
    """Array of (alpha choose m) * t^m for m = 0..m_max, by cumulative
    product, cut after its last term of modulus at least _TINY_TERM."""
    m = np.arange(m_max, dtype=float)
    factors = t * (alpha - m) / (m + 1.0)
    terms = np.concatenate(([1.0], np.cumprod(factors)))
    if abs(terms[-1]) < _TINY_TERM:  # the terms fall off past their peak
        terms = terms[:np.flatnonzero(np.abs(terms) >= _TINY_TERM)[-1] + 1]
    return terms


def _ratio_outer_terms(a: float, b: float, alpha: float, beta: float,
                       n_outer: int) -> np.ndarray:
    """Outer terms 0..n_outer of the double series."""
    m_max = 2 * n_outer
    u = _binom_times_power(alpha, a, m_max)
    v = _binom_times_power(-beta, b, m_max)
    conv = np.convolve(u, v)[: m_max + 1]
    if conv.size <= m_max:  # both series cut short
        conv = np.concatenate((conv, np.zeros(m_max + 1 - conv.size)))
    even = conv[0::2]
    n = np.arange(1, n_outer + 1, dtype=float)
    weights = np.concatenate(([1.0], np.cumprod((2.0 * n - 1.0) / (2.0 * n))))
    return even * weights


def _ratio_outer_count(rho: float, power: float) -> int:
    """Outer terms that bring the tail of the double series below
    _RATIO_TAIL: its terms fall like rho^(2n) n^power and its tail is
    about 1/(1 - rho^2) times the last one, so n solves
    2n ln rho + power ln n - ln(1 - rho^2) = ln _RATIO_TAIL (three fixed-point
    steps from power = 0)."""
    if rho == 0.0:
        return _RATIO_LEAST_OUTER
    log_rho2 = 2.0 * math.log(rho)
    aim = math.log(_RATIO_TAIL) + math.log1p(-rho * rho)
    n = aim / log_rho2
    for _ in range(3):
        n = (aim - power * math.log(max(n, 1.0))) / log_rho2
    return max(math.ceil(n), _RATIO_LEAST_OUTER)


def ratio_integral_series(a: float, b: float, alpha: float, beta: float) -> float:
    """Double-series value of the circle mean of (1-a cos)^alpha / (1-b cos)^beta.

    The inner sum over m is the degree-2n power-series coefficient of
    (1-a x)^alpha (1-b x)^(-beta), computed by convolving the two binomial
    series (each cut where its terms fall below 1e-150, so that no product
    is subnormal); the outer weight (2n)!/(4^n (n!)^2) is the central
    binomial coefficient over 4^n.  The outer truncation is sized once from
    rho = max(|a|, |b|) (`_ratio_outer_count`); it doubles (outer cap
    50000) until the last outer terms fall below 1e-14 of the running sum.
    """
    a, b, alpha, beta = _real("a", a), _real("b", b), _real("alpha", alpha), _real("beta", beta)
    for name, v in (("a", a), ("b", b)):
        if not abs(v) < 1.0:
            raise DomainError(f"{name} must lie in (-1, 1), got {v!r}")
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= v < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {v!r}")

    cap = 50_000
    rho = max(abs(a), abs(b))
    n_outer = min(_ratio_outer_count(rho, max(alpha, beta)), cap)
    while True:
        outer_terms = _ratio_outer_terms(a, b, alpha, beta, n_outer)
        total = float(np.sum(outer_terms))
        last = float(np.max(np.abs(outer_terms[-3:])))
        if last <= 1e-14 * max(abs(total), 1e-12):
            return total
        if n_outer >= cap:
            raise ConvergenceError(
                f"double series did not settle within outer cap {cap}",
                partial=total,
                error_estimate=last * rho * rho / max(1.0 - rho * rho, 1e-300),
                iterations=n_outer,
            )
        n_outer = min(2 * n_outer, cap)


def modulus_power_integral(z: complex, beta: float) -> float:
    """Closed form of the circle mean of |1 - z e^{i theta}|^(-2 beta).

    Equals (1-|z|^2)^(1-2 beta) * F(1-beta, 1-beta; 1; |z|^2), with F
    taken in the correctly rounded 1 - |z|^2.  A value beyond the float
    range raises ConvergenceError.
    """
    zc = disk_point_value(z)
    if type(beta) is not float:
        beta = _real("beta", beta)
    if not 0.0 <= beta < math.inf:
        raise DomainError(f"beta must be finite and >= 0, got {beta!r}")
    y = _one_minus_abs2(zc)
    f = _hyp(1.0 - beta, 1.0 - beta, 1.0, zc.real * zc.real + zc.imag * zc.imag, y).value
    try:
        value = y ** (1.0 - 2.0 * beta) * f
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConvergenceError(f"modulus_power_integral({z!r}, {beta!r}) leaves the float range")
    return value
