"""Closed-form Schwarz-type and Schwarz-Pick-type bounds.

Each function evaluates one published upper bound at radius r and weight
alpha.  All values are reported per unit boundary sup-norm; callers
multiply by their own norm.  The bounds M, M2 and M_PRIME additionally
assume the solution maps the disk into itself (boundary sup-norm <= 1),
which the report ``note`` field records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .specfun import _series_sum, alpha_value, beta, c_alpha, hyp2f1

__all__ = [
    "BOUND_IDS",
    "BoundReport",
    "m1_bound",
    "m2_bound",
    "colonna_bound",
    "lc_schwarz_pick_bound",
    "m_bound",
    "m_prime_bound",
    "schwarz_bound",
    "schwarz_pick_bound",
    "schwarz_pick_limit_bound",
    "l1_mean_kernel",
    "evaluate_bound",
]

BOUND_IDS = (
    "M1",
    "M2",
    "COLONNA",
    "LC_SP",
    "M",
    "M_PRIME",
    "SCHWARZ_2F1",
    "SP_2F1",
    "SP_LIMIT",
    "L1_MEAN",
)

_NOTE_UNIT_DISK = "requires boundary sup-norm <= 1 (maps disk into disk)"
_NOTE_LINEAR = "scales linearly with the boundary sup-norm"

_NOTES = {
    "M": _NOTE_UNIT_DISK,
    "M2": _NOTE_UNIT_DISK,
    "M_PRIME": _NOTE_UNIT_DISK,
}


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    r: float
    alpha: float
    aux: float | None
    value: float
    note: str = _NOTE_LINEAR

    def __post_init__(self):
        if not self.value >= 0.0:
            raise DomainError(f"bound value must be non-negative, got {self.value!r}")


def _validate_r(r: float) -> float:
    r = float(r)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")
    return r


def m1_bound(r: float, alpha, c: float) -> float:
    """Center-mean Schwarz bound; c is the ratio of the boundary modulus
    mean to the sup-norm and must lie in (0, 1]."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    if not (0.0 < c <= 1.0):
        raise DomainError(f"c must lie in (0, 1], got {c!r}")
    if c == 1.0:
        arc = math.pi / 2.0  # tan(pi/2) limit
    else:
        arc = math.atan((1.0 + r) / (1.0 - r) * math.tan(c * math.pi / 2.0))
    if a >= 0.0:
        return 2.0 ** (1.0 + a) / math.pi * arc
    return 2.0 ** (1.0 - a) / math.pi * (1.0 - r * r) ** a * arc


def m2_bound(r: float, alpha) -> float:
    """Center-value Schwarz bound with arctan leading term."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    if a >= 0.0:
        return (2.0 ** (a + 2.0) / math.pi * math.atan(r)
                + 2.0 ** (a + 1.0) * (1.0 - r) * (1.0 - (1.0 - r) ** a))
    return 4.0 / math.pi * (1.0 - r) ** a * math.atan(r) + (1.0 - r) ** a - 1.0


def colonna_bound(r: float) -> float:
    """Derivative bound (4/pi) / (1-r^2) for harmonic self-maps of the disk."""
    r = _validate_r(r)
    return 4.0 / math.pi / (1.0 - r * r)


def lc_schwarz_pick_bound(r: float, alpha) -> float:
    """Power-of-two derivative bound, per unit boundary sup-norm."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    if a >= 0.0:
        return (1.0 + a) * 2.0 ** (1.0 + a) / (1.0 - r * r)
    return 2.0 ** (1.0 - a) / (1.0 - r * r) ** (1.0 - a)


def m_bound(r: float, alpha) -> float:
    """Hypergeometric center-value Schwarz bound (stays bounded as r -> 1).

    At alpha = 0 it collapses to (4/pi) arctan r, returned in the float
    expression of m2_bound's leading term, so that M == M2 bit for bit.
    The first term (1-r^2)^(alpha+1) |(1-r)^(-alpha) - 1| / (1+r^2) is
    formed as (1-r^2) |(1+r)^alpha - (1-r^2)^alpha| / (1+r^2), whose powers
    stay in range at large alpha where (1-r)^(-alpha) overflows; for
    alpha > 1 the hypergeometric factor comes from `_m_series`.
    """
    r = _validate_r(r)
    a = alpha_value(alpha)
    if a == 0.0:
        return 2.0 ** (a + 2.0) / math.pi * math.atan(r)
    one_plus_r2 = 1.0 + r * r
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    first = one_minus_r2 * abs((1.0 + r) ** a - one_minus_r2 ** a) / one_plus_r2
    x = 4.0 * r * r / (one_plus_r2 * one_plus_r2)
    # 1 - x = ((1 - r^2) / (1 + r^2))^2, free of the cancellation in 1.0 - x
    d = one_minus_r2 / one_plus_r2
    if a > 1.0:
        f = _m_series(a, x, d * d)
    else:
        f = hyp2f1((0.5, 0.5 - a / 2.0, 1.5), x, one_minus_x=d * d)
    if a >= 0.0:
        second = 2.0 ** (2.0 + a / 2.0) * r * one_plus_r2 ** (a / 2.0 - 1.0) / math.pi * f
    else:
        second = 4.0 * r / math.pi * one_plus_r2 ** (a / 2.0 - 1.0) * f
    return first + second


def _m_series(a: float, x: float, y: float) -> float:
    """F(1/2, (1-a)/2; 3/2; x), y = 1 - x, for a > 1, from positive series.

    Its own series alternates there (b = (1-a)/2 < 0), and by a factor that
    grows like (1+x)^(a/2), so it is never summed.  With s = (a+1)/2:
    for x <= 1/2 the Euler transform y^s F(1, s + 1/2; 3/2; x); above it
    the connection formula (DLMF 15.8.4), whose first series
    F(1/2, 1-s; 1-s; y) is x^(-1/2) and whose gamma ratios reduce to
    B(s, 1/2)/2 and -1/(2s):
        F = B(s, 1/2) / (2 sqrt(x)) - y^s / (2s) F(1, s + 1/2; s + 1; y).
    """
    s = (a + 1.0) / 2.0
    if x <= 0.5:
        f, _ = _series_sum(1.0, s + 0.5, 1.5, x)
        return y ** s * f
    f, _ = _series_sum(1.0, s + 0.5, s + 1.0, y)
    return beta(s, 0.5) / (2.0 * math.sqrt(x)) - y ** s / (2.0 * s) * f


def m_prime_bound(r: float, alpha) -> float:
    """Piecewise-elementary majorant of the hypergeometric Schwarz bound."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    if a < 0.0:
        raise DomainError(f"this bound is stated for alpha >= 0, got {a!r}")
    if a >= 2.0:
        return 2.0 ** (1.0 + a) * r * (1.0 / math.pi + a)
    if a >= 1.0:
        return r * (2.0 ** (2.0 + a / 2.0) / math.pi + 2.0 ** (1.0 + a) * a)
    return 2.0 ** (1.0 + a / 2.0) * r + 2.0 ** (1.0 + a) * (1.0 - r) * r ** a


def schwarz_bound(r: float, alpha) -> float:
    """Sup bound F(-alpha/2, -alpha/2; 1; r^2), per unit boundary sup-norm."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    return hyp2f1((-a / 2.0, -a / 2.0, 1.0), r * r)


def schwarz_pick_bound(r: float, alpha) -> float:
    """Hypergeometric derivative bound, per unit boundary sup-norm."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    f = hyp2f1((-a / 2.0, -a / 2.0, 1.0), r * r)
    lead = 2.0 * (1.0 + a) if a >= 0.0 else 2.0
    return lead / (1.0 - r * r) * f


def schwarz_pick_limit_bound(r: float, alpha) -> float:
    """Limit form of the derivative bound with the hypergeometric factor
    replaced by its boundary value 1/c_alpha."""
    r = _validate_r(r)
    a = alpha_value(alpha)
    lead = 2.0 * (1.0 + a) if a >= 0.0 else 2.0
    return lead / c_alpha(a) / (1.0 - r * r)


def l1_mean_kernel(alpha, r: float) -> float:
    """Circle mean of (1-r^2)^(alpha+1) / |1 - r e^{i theta}|^(alpha+2).

    By the modulus-power identity with beta = (alpha+2)/2 it equals
    F(-alpha/2, -alpha/2; 1; r^2), so it is evaluated as schwarz_bound and
    the two agree bit for bit.  Bounded by 1/c_alpha and increasing toward
    it as r -> 1.
    """
    return schwarz_bound(r, alpha)


# Bound id -> evaluator of (r, alpha, c).  The lambdas look each bound up
# at call time, so a rebound module attribute is the one called
# (perfbench/tracer.py times each bound that way).
_EVALUATORS = {
    "M1": lambda r, a, c: m1_bound(r, a, c),
    "M2": lambda r, a, c: m2_bound(r, a),
    "COLONNA": lambda r, a, c: colonna_bound(r),
    "LC_SP": lambda r, a, c: lc_schwarz_pick_bound(r, a),
    "M": lambda r, a, c: m_bound(r, a),
    "M_PRIME": lambda r, a, c: m_prime_bound(r, a),
    "SCHWARZ_2F1": lambda r, a, c: schwarz_bound(r, a),
    "SP_2F1": lambda r, a, c: schwarz_pick_bound(r, a),
    "SP_LIMIT": lambda r, a, c: schwarz_pick_limit_bound(r, a),
    "L1_MEAN": lambda r, a, c: l1_mean_kernel(a, r),
}


def evaluate_bound(bound_id: str, r: float, alpha, c: float | None = None) -> BoundReport:
    """Evaluate one named bound into a BoundReport; all are closed forms.

    A value beyond the float range (alpha of about a thousand or more)
    raises ConvergenceError.
    """
    a = alpha_value(alpha)
    if bound_id == "M1" and c is None:
        raise DomainError("M1 requires the auxiliary parameter c")
    evaluator = _EVALUATORS.get(bound_id)
    if evaluator is None:
        raise DomainError(f"unknown bound id {bound_id!r}")
    try:
        value = evaluator(r, a, c)
    except (OverflowError, ZeroDivisionError):  # a power overflows or c_alpha underflows
        value = math.inf
    if not math.isfinite(value):
        raise ConvergenceError(
            f"bound {bound_id} at r={r!r}, alpha={a!r} leaves the float range")
    return BoundReport(bound_id, float(r), a, float(c) if bound_id == "M1" else None,
                       value, _NOTES.get(bound_id, _NOTE_LINEAR))
