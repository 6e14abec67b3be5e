"""Periodic trapezoidal quadrature and closed-form trigonometric integrals.

The engine computes circle means (1/2pi) * integral over [0, 2pi) by the
composite trapezoidal rule on equispaced nodes, doubling the node count
until two successive levels agree.  For the analytic periodic integrands
used throughout this package the rule is spectrally accurate.  Every
level's nodes are equispaced, theta_j = theta_0 + 2pi j / n, so an
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


def _eval_checked(f: Callable, theta: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(theta))
    if vals.shape[-1:] != theta.shape:
        vals = np.broadcast_to(vals, theta.shape)
    finite = np.isfinite(vals)  # for complex values, both parts
    if not finite.all():
        bad = float(theta[np.argmin(finite.reshape(-1, theta.size).all(axis=0))])
        raise IntegrandError(f"integrand is non-finite at theta={bad!r}", theta=bad)
    return vals


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
    """
    cfg = config or DEFAULT_CONFIG
    n = cfg.n_initial
    total = _eval_checked(f, _nodes(n, 0.0)).sum(axis=-1)
    prev_mean = total / n
    err = np.full(np.shape(prev_mean), np.inf)
    while n < cfg.n_max:
        total = total + _eval_checked(f, _nodes(n, 0.5)).sum(axis=-1)
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
    """Array of (alpha choose m) * t^m for m = 0..m_max, by cumulative product."""
    m = np.arange(m_max, dtype=float)
    factors = t * (alpha - m) / (m + 1.0)
    return np.concatenate(([1.0], np.cumprod(factors)))


def _ratio_outer_terms(a: float, b: float, alpha: float, beta: float,
                       n_outer: int) -> np.ndarray:
    """Outer terms 0..n_outer of the double series."""
    m_max = 2 * n_outer
    u = _binom_times_power(alpha, a, m_max)
    v = _binom_times_power(-beta, b, m_max)
    conv = np.convolve(u, v)[: m_max + 1]
    even = conv[0::2]
    n = np.arange(1, n_outer + 1, dtype=float)
    weights = np.concatenate(([1.0], np.cumprod((2.0 * n - 1.0) / (2.0 * n))))
    return even * weights


def ratio_integral_series(a: float, b: float, alpha: float, beta: float) -> float:
    """Double-series value of the circle mean of (1-a cos)^alpha / (1-b cos)^beta.

    The inner sum over m is the degree-2n power-series coefficient of
    (1-a x)^alpha (1-b x)^(-beta), computed by convolving the two binomial
    series; the outer weight (2n)!/(4^n (n!)^2) is the central binomial
    coefficient over 4^n.  The truncation grows until the last outer terms
    fall below 1e-14 of the running sum (outer cap 50000).
    """
    a, b, alpha, beta = _real("a", a), _real("b", b), _real("alpha", alpha), _real("beta", beta)
    for name, v in (("a", a), ("b", b)):
        if not abs(v) < 1.0:
            raise DomainError(f"{name} must lie in (-1, 1), got {v!r}")
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= v < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {v!r}")

    cap = 50_000
    n_outer = 64
    while True:
        outer_terms = _ratio_outer_terms(a, b, alpha, beta, n_outer)
        total = float(np.sum(outer_terms))
        last = float(np.max(np.abs(outer_terms[-3:])))
        if last <= 1e-14 * max(abs(total), 1e-12):
            return total
        if n_outer >= cap:
            rho = max(abs(a), abs(b))
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
    taken in the correctly rounded 1 - |z|^2.
    """
    zc = disk_point_value(z)
    if type(beta) is not float:
        beta = _real("beta", beta)
    if not 0.0 <= beta < math.inf:
        raise DomainError(f"beta must be finite and >= 0, got {beta!r}")
    y = _one_minus_abs2(zc)
    f = _hyp(1.0 - beta, 1.0 - beta, 1.0, zc.real * zc.real + zc.imag * zc.imag, y).value
    return y ** (1.0 - 2.0 * beta) * f
