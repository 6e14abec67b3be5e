"""Periodic trapezoidal quadrature and closed-form trigonometric integrals.

The engine computes circle means (1/2pi) * integral over [0, 2pi) by the
composite trapezoidal rule on equispaced nodes, doubling the node count
until two successive levels agree.  For the analytic periodic integrands
used throughout this package the rule is spectrally accurate.  Every
level's nodes are theta_j = 2pi (j + offset) / n with offset 0 or 1/2,
and `_node_level` recovers (n, offset) from them, so an integrand can
sample a trig polynomial there by one inverse FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, IntegrandError
from . import specfun

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_periodic",
    "cos_power_integral",
    "ratio_integral_series",
    "modulus_power_integral",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class QuadratureConfig:
    n_initial: int = 256
    n_max: int = 2**20
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (_is_pow2(self.n_initial) and _is_pow2(self.n_max)):
            raise DomainError("n_initial and n_max must be powers of two")
        if self.n_initial > self.n_max:
            raise DomainError("n_initial must not exceed n_max")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """A circle mean, or a tuple of row means for a stacked integrand."""

    value: complex | float | tuple
    error_estimate: float | tuple
    nodes_used: int
    converged: bool

    def unwrap(self, what: str):
        """The value if converged, else ConvergenceError naming ``what``."""
        if not self.converged:
            raise ConvergenceError(
                f"{what} did not converge "
                f"(nodes={self.nodes_used}, err={self.error_estimate:.3e})",
                partial=self.value,
                error_estimate=self.error_estimate,
                iterations=self.nodes_used,
            )
        return self.value


def _nodes(n: int, offset: float) -> np.ndarray:
    """The level's nodes theta_j = 2pi (j + offset) / n, j = 0..n-1."""
    return 2.0 * math.pi * (np.arange(n) + offset) / n


def _node_level(theta: np.ndarray) -> tuple[int, float]:
    """(n, offset) of a node array built by `_nodes`, the inverse of its
    formula for the arrays `integrate_periodic` passes its integrand."""
    n = theta.size
    offset = 0.0 if theta[0] == 0.0 else 0.5
    if theta[0] != 2.0 * math.pi * offset / n:
        raise DomainError("angles are not the nodes of a quadrature level")
    return n, offset


def _eval_checked(f: Callable, theta: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(theta))
    if vals.shape[-1:] != theta.shape:
        vals = np.broadcast_to(vals, theta.shape)
    finite = np.isfinite(vals) if not np.iscomplexobj(vals) else (
        np.isfinite(vals.real) & np.isfinite(vals.imag)
    )
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
    if n < 0:
        raise DomainError(f"power must be non-negative, got {n!r}")
    k, odd = divmod(n, 2)
    out = 1.0
    if odd:
        for j in range(1, k + 1):
            out *= (2.0 * j) / (2.0 * j + 1.0)
        return out
    for j in range(1, k + 1):
        out *= (2.0 * j - 1.0) / (2.0 * j)
    return out * math.pi / 2.0


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
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise DomainError(f"require |a| < 1 and |b| < 1, got a={a!r}, b={b!r}")
    if alpha < 0 or beta < 0:
        raise DomainError(f"require alpha, beta >= 0, got {alpha!r}, {beta!r}")

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

    Equals (1-|z|^2)^(1-2 beta) * F(1-beta, 1-beta; 1; |z|^2).
    """
    zc = complex(z)
    r2 = zc.real * zc.real + zc.imag * zc.imag
    if not r2 < 1.0:
        raise DomainError(f"point must lie inside the unit disk, got |z|^2={r2!r}")
    if beta < 0:
        raise DomainError(f"require beta >= 0, got {beta!r}")
    f = specfun.hyp2f1((1.0 - beta, 1.0 - beta, 1.0), r2)
    return (1.0 - r2) ** (1.0 - 2.0 * beta) * f
