"""Closed-form Schwarz-type and Schwarz-Pick-type bounds.

Each function evaluates one published upper bound at radius r and weight
alpha.  All values are reported per unit boundary sup-norm; callers
multiply by their own norm.  The bounds M, M2 and M_PRIME additionally
assume the solution maps the disk into itself (boundary sup-norm <= 1),
which the report ``note`` field records.  A value beyond the float range
(alpha of about a thousand or more) raises ConvergenceError.

SCHWARZ_2F1 is F(-alpha/2, -alpha/2; 1; r^2), SP_2F1 is a lead factor
over 1 - r^2 times it, and L1_MEAN equals it; all three take F from
`_schwarz_f`, which keeps its last F (`_memo.LastCall`), so the three
at one (r, alpha) sum F once.  Above r = 2^(-1/2) that F takes Kummer's
quadratic transformation to M's own variable w = 4r^2/(1+r^2)^2
(`specfun._quadratic`), where its connection formula runs in
1 - w = ((1-r^2)/(1+r^2))^2 <= 1/9; its first coefficient is
2^(-alpha/2)/c_alpha, so SCHWARZ_2F1 tends to 1/c_alpha, SP_LIMIT's
factor, as r -> 1.  M's factor F(1/2, (1-alpha)/2; 3/2; w) comes from
`specfun._m_series`: above w = 1/2 a difference quotient in
s = (alpha+1)/2 of the connection formula's two terms, which cancel as
alpha -> -1.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import NamedTuple

from ._memo import LastCall
from .errors import ConvergenceError, DomainError
# hyp2f1 is not called here, but perfbench/check_bench.py checks that the
# tracer rebinds bounds.hyp2f1
from .specfun import _hyp, _m_series, _real, alpha_value, c_alpha, hyp2f1  # noqa: F401

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

_NOTE_UNIT_DISK = "requires boundary sup-norm <= 1 (maps disk into disk)"
_NOTE_LINEAR = "scales linearly with the boundary sup-norm"

_LAST_F = LastCall()
_R_ALPHA_BITS = struct.Struct("2d").pack

_NOTES = {
    "M": _NOTE_UNIT_DISK,
    "M2": _NOTE_UNIT_DISK,
    "M_PRIME": _NOTE_UNIT_DISK,
}


class _BoundFields(NamedTuple):
    bound_id: str
    r: float
    alpha: float
    aux: float | None
    value: float
    note: str = _NOTE_LINEAR


class BoundReport(_BoundFields):
    """One bound evaluated at (r, alpha), with M1's c as ``aux``: an
    immutable named tuple, as every per-call result is.  A negative or NaN
    value raises DomainError, also through `_make` and `_replace`."""

    __slots__ = ()

    def __new__(cls, bound_id, r, alpha, aux, value, note=_NOTE_LINEAR):
        if not value >= 0.0:
            raise DomainError(f"bound value must be non-negative, got {value!r}")
        return tuple.__new__(cls, (bound_id, r, alpha, aux, value, note))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


_NO_C = object()  # c left out: every bound but M1


def _in_float_range(bound):
    """`bound` at r validated (`_validate_r`) and then alpha as a float
    (`alpha_value`), raising ConvergenceError where a power overflows,
    c_alpha underflows to zero or the value is otherwise not finite.

    Every public bound returns through it, but for COLONNA, below 6e15 on
    [0, 1), and L1_MEAN, which returns SCHWARZ_2F1's value.
    The wrapper takes the bounds' own parameters r, alpha and M1's c, by
    position or name; forwarding them as *args would cost a tuple a call.
    """
    @functools.wraps(bound)
    def checked(r, alpha, c=_NO_C):
        rv, a = _validate_r(r), alpha_value(alpha)
        try:
            value = bound(rv, a) if c is _NO_C else bound(rv, a, c)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            args = (r, alpha) if c is _NO_C else (r, alpha, c)
            raise ConvergenceError(f"{bound.__name__}{args!r} leaves the float range")
        return value
    return checked


def _validate_r(r: float) -> float:
    if type(r) is not float:
        r = _real("r", r)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r!r}")
    return r


@_in_float_range
def m1_bound(r: float, alpha, c: float) -> float:
    """Center-mean Schwarz bound; c is the ratio of the boundary modulus
    mean to the sup-norm and must lie in (0, 1]."""
    if type(c) is not float:
        c = _real("c", c)
    if not (0.0 < c <= 1.0):
        raise DomainError(f"c must lie in (0, 1], got {c!r}")
    if c == 1.0:
        arc = math.pi / 2.0  # tan(pi/2) limit
    else:
        arc = math.atan((1.0 + r) / (1.0 - r) * math.tan(c * math.pi / 2.0))
    if alpha >= 0.0:
        return 2.0 ** (1.0 + alpha) / math.pi * arc
    return 2.0 ** (1.0 - alpha) / math.pi * ((1.0 - r) * (1.0 + r)) ** alpha * arc


@_in_float_range
def m2_bound(r: float, alpha) -> float:
    """Center-value Schwarz bound with arctan leading term; (1-r)^alpha - 1
    is formed by expm1 and log1p, which keep its digits at small r."""
    if alpha >= 0.0:
        return (2.0 ** (alpha + 2.0) / math.pi * math.atan(r)
                - 2.0 ** (alpha + 1.0) * (1.0 - r) * math.expm1(alpha * math.log1p(-r)))
    return 4.0 / math.pi * (1.0 - r) ** alpha * math.atan(r) + math.expm1(alpha * math.log1p(-r))


def colonna_bound(r: float) -> float:
    """Derivative bound (4/pi) / (1-r^2) for harmonic self-maps of the disk."""
    r = _validate_r(r)
    return 4.0 / math.pi / ((1.0 - r) * (1.0 + r))


@_in_float_range
def lc_schwarz_pick_bound(r: float, alpha) -> float:
    """Power-of-two derivative bound, per unit boundary sup-norm."""
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    if alpha >= 0.0:
        return (1.0 + alpha) * 2.0 ** (1.0 + alpha) / one_minus_r2
    return 2.0 ** (1.0 - alpha) / one_minus_r2 ** (1.0 - alpha)


@_in_float_range
def m_bound(r: float, alpha) -> float:
    """Hypergeometric center-value Schwarz bound (stays bounded as r -> 1).

    At alpha = 0 it collapses to (4/pi) arctan r, returned in the float
    expression of m2_bound's leading term, so that M == M2 bit for bit.
    The first term (1-r^2)^(alpha+1) |(1-r)^(-alpha) - 1| / (1+r^2) is
    formed as (1-r^2) (1+r)^alpha |(1-r)^alpha - 1| / (1+r^2), whose powers
    stay in range at large alpha where (1-r)^(-alpha) overflows, and whose
    difference keeps its digits at small r; the hypergeometric factor
    comes from `specfun._m_series` for every alpha, in its variable's
    exact 1 - x.
    """
    if alpha == 0.0:
        return 2.0 ** (alpha + 2.0) / math.pi * math.atan(r)
    one_plus_r2 = 1.0 + r * r
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    first = (one_minus_r2 * (1.0 + r) ** alpha * abs(math.expm1(alpha * math.log1p(-r)))
             / one_plus_r2)
    x = 4.0 * r * r / (one_plus_r2 * one_plus_r2)
    # 1 - x = ((1 - r^2) / (1 + r^2))^2, free of the cancellation in 1.0 - x
    d = one_minus_r2 / one_plus_r2
    f = _m_series(alpha, x, d * d)[0]
    if alpha >= 0.0:
        second = 2.0 ** (2.0 + alpha / 2.0) * r * one_plus_r2 ** (alpha / 2.0 - 1.0) / math.pi * f
    else:
        second = 4.0 * r / math.pi * one_plus_r2 ** (alpha / 2.0 - 1.0) * f
    return first + second


@_in_float_range
def m_prime_bound(r: float, alpha) -> float:
    """Piecewise-elementary majorant of the hypergeometric Schwarz bound."""
    if alpha < 0.0:
        raise DomainError(f"alpha must be >= 0 for this bound, got {alpha!r}")
    if alpha >= 2.0:
        return 2.0 ** (1.0 + alpha) * r * (1.0 / math.pi + alpha)
    if alpha >= 1.0:
        return r * (2.0 ** (2.0 + alpha / 2.0) / math.pi + 2.0 ** (1.0 + alpha) * alpha)
    return 2.0 ** (1.0 + alpha / 2.0) * r + 2.0 ** (1.0 + alpha) * (1.0 - r) * r ** alpha


def _schwarz_f(r: float, alpha: float) -> float:
    """F(-alpha/2, -alpha/2; 1; r^2) at validated r and alpha, summed in the
    exact 1 - r^2 = (1 - r)(1 + r) once for consecutive calls at one r and
    alpha, bit for bit, whether from SCHWARZ_2F1, SP_2F1 or L1_MEAN."""
    return _LAST_F(_R_ALPHA_BITS(r, alpha), _hyp, -alpha / 2.0, -alpha / 2.0, 1.0, r * r,
                   (1.0 - r) * (1.0 + r)).value


@_in_float_range
def schwarz_bound(r: float, alpha) -> float:
    """Sup bound F(-alpha/2, -alpha/2; 1; r^2), per unit boundary sup-norm."""
    return _schwarz_f(r, alpha)


@_in_float_range
def schwarz_pick_bound(r: float, alpha) -> float:
    """Hypergeometric derivative bound, per unit boundary sup-norm."""
    lead = 2.0 * (1.0 + alpha) if alpha >= 0.0 else 2.0
    return lead / ((1.0 - r) * (1.0 + r)) * _schwarz_f(r, alpha)


@_in_float_range
def schwarz_pick_limit_bound(r: float, alpha) -> float:
    """Limit form of the derivative bound with the hypergeometric factor
    replaced by its boundary value 1/c_alpha."""
    lead = 2.0 * (1.0 + alpha) if alpha >= 0.0 else 2.0
    return lead / c_alpha(alpha) / ((1.0 - r) * (1.0 + r))


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
BOUND_IDS = tuple(_EVALUATORS)


def evaluate_bound(bound_id: str, r: float, alpha, c: float | None = None) -> BoundReport:
    """Evaluate one named bound into a BoundReport; all are closed forms.

    A value beyond the float range (alpha of about a thousand or more)
    raises ConvergenceError.
    """
    if not isinstance(bound_id, str):  # a list is not even hashable
        raise DomainError(f"bound_id must be a string, got {bound_id!r}")
    a = alpha_value(alpha)
    if bound_id == "M1" and c is None:
        raise DomainError("M1 requires the auxiliary parameter c")
    evaluator = _EVALUATORS.get(bound_id)
    if evaluator is None:
        raise DomainError(f"unknown bound id {bound_id!r}")
    value = evaluator(r, a, c)  # validates r, and c for M1, before float() reads them
    return BoundReport(bound_id, float(r), a, float(c) if bound_id == "M1" else None,
                       value, _NOTES.get(bound_id, _NOTE_LINEAR))
