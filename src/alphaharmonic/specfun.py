"""Gamma-family functions and the Gauss hypergeometric series.

Everything here is a pure function of its arguments.  The hypergeometric
evaluator sums the defining power series

    F(a, b; c; x) = sum_n (a)_n (b)_n / ((c)_n n!) x^n,    0 <= x < 1,

in float64 with a rigorous geometric tail bound for stopping.  For
0.5 < x < 1 it continues F to x -> 1 with the connection formula in
y = 1 - x (DLMF 15.8.4), whose two series converge like y^n; otherwise it
applies the Euler transform when the transformed series decays faster.
The connection formula is skipped, and the Euler/raw series summed
instead, for terminating series, integer c - a - b (the logarithmic case,
DLMF 15.8.10) and calls where cancellation between its two terms would
cost more than the relative tolerance.  No continuation beyond [0, 1) is
attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "Hyp2F1Result",
    "gamma",
    "beta",
    "pochhammer",
    "binom_general",
    "hyp2f1",
    "hyp2f1_detailed",
    "hyp2f1_at_one",
    "euler_transform_eval",
    "quadratic_transform_eval",
    "c_alpha",
]

# c values this close to {0, -1, -2, ...} are rejected: the series
# denominators (c)_n are not usable in float arithmetic near a pole.
_BAD_C_TOL = 1e-12

_CHUNK = 4096

# The connection route near x = 1 needs a few hundred terms at most.  The
# cap serves the raw and Euler series that remain for x -> 1 when the
# connection formula is skipped (integer or badly cancelling c - a - b): it
# covers exponent c - a - b down to about 0.2 at x = 1 - 1e-5 under the
# tail-bound stopping rule, with headroom; chunked summation keeps even
# capped runs cheap.
_TERM_CAP = 4_000_000
# Relative tolerance of every hypergeometric value returned.
_REL_TOL = 1e-13

_EPS = 2.0 ** -52
# Rounding of one connection-formula term (gamma factors, y**s, series
# sum), in units of _EPS; cancellation between the two terms multiplies it.
_CONNECTION_ULPS = 16.0
# How far a caller's one_minus_x may sit from the computed 1 - x.
_ONE_MINUS_X_TOL = 64.0 * _EPS


def _validate_params(a, b, c) -> tuple[float, float, float]:
    """(a, b, c) as floats: all finite, c not near a non-positive integer."""
    a, b, c = float(a), float(b), float(c)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"parameters must be finite, got a={a!r}, b={b!r}, c={c!r}")
    if c <= 0.5:
        k = round(c)
        if k <= 0 and abs(c - k) <= _BAD_C_TOL:
            raise DomainError(
                f"c={c!r} is (within {_BAD_C_TOL}) a non-positive integer"
            )
    return a, b, c


def alpha_value(alpha) -> float:
    """Alpha as a float, validated: finite and > -1."""
    v = float(alpha)
    if not -1.0 < v < math.inf:
        raise DomainError(f"alpha must be finite and > -1, got {v!r}")
    return v


@dataclass(frozen=True)
class Hyp2F1Result:
    value: float
    terms_used: int
    transform: str  # "none", "euler" or "connection"


def gamma(x: float) -> float:
    """Gamma function for positive real arguments."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for positive real arguments."""
    if not (x > 0 and y > 0):
        raise DomainError(f"beta requires positive arguments, got {x!r}, {y!r}")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError(f"pochhammer requires n >= 0, got {n!r}")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def binom_general(alpha: float, n: int) -> float:
    """Generalized binomial coefficient (alpha choose n) for real alpha.

    Evaluated as the product (alpha - n + 1)_n / n! with factors interleaved,
    so integer alpha with n > alpha >= 0 yields an exact 0.
    """
    if n < 0:
        raise DomainError(f"binom_general requires n >= 0, got {n!r}")
    out = 1.0
    for k in range(n):
        out *= (alpha - k) / (k + 1)
    return out


def _validate_x(x: float) -> float:
    x = float(x)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"series argument must lie in [0, 1), got {x!r}")
    return x


def _series_sum(a: float, b: float, c: float, x: float, rel_tol: float = _REL_TOL):
    """Sum the raw series; returns (value, terms_used).

    Stops once the remaining tail is provably below rel_tol * |sum|.  The
    term ratio is |t_{m+1}/t_m| = x (m+a)(m+b) / ((m+c)(m+1)); for
    m >= n past the burn-in (all four factors positive) it is bounded by
    q(n) = x * max(1, (n+u)/(n+v))^2 with u = max(a, b) and v = min(c, 1),
    since (m+a)(m+b) <= (m+u)^2 and (m+c)(m+1) >= (m+v)^2.  The bound
    decreases to x, so the geometric tail test always terminates for
    x < 1.

    A terminating series is a polynomial whose terms can cancel (5e14-fold
    for F(13.4, -15; 3.18; 0.974)); its roundoff, up to 2**-52 * sum|terms|,
    must stay within rel_tol * |sum| or ConvergenceError is raised.
    """
    if x == 0.0:
        return 1.0, 1
    total = 1.0
    ends = _terminates(a, b)
    size = 1.0  # sum of |terms|, tracked for terminating series
    term = 1.0
    n = 0
    chunk = 64
    u = max(a, b)
    v = min(c, 1.0)
    n_burn = int(max(abs(a), abs(b), abs(c), 1.0)) + 2

    while n < _TERM_CAP:
        k = min(chunk, _TERM_CAP - n)
        chunk = min(2 * chunk, _CHUNK)
        idx = n + np.arange(k, dtype=float)
        # grouped (.. + a) * (.. + b) first so that swapping a and b
        # reproduces the result bit for bit
        ratios = (idx + a) * (idx + b) / ((idx + c) * (idx + 1.0)) * x
        terms = term * np.cumprod(ratios)
        total += float(terms.sum())
        if ends:
            size += float(np.abs(terms).sum())
        term = float(terms[-1])
        n += k
        if term == 0.0:
            # a Pochhammer factor hit zero: the series terminates here
            if ends and size * _EPS > rel_tol * abs(total):
                raise ConvergenceError(
                    f"terminating hypergeometric series cancels (a={a}, b={b}, "
                    f"c={c}, x={x})", partial=total, error_estimate=size * _EPS,
                    iterations=n)
            return total, n
        if n < n_burn:
            continue
        growth = (n + u) / (n + v)
        q = x * growth * growth if growth > 1.0 else x
        if q < 1.0:
            tail = abs(term) * q / (1.0 - q)
            if tail <= rel_tol * max(abs(total), 1e-12):
                return total, n

    tail = abs(term) * x / max(1.0 - x, 1e-300)
    raise ConvergenceError(
        f"hypergeometric series did not converge within {_TERM_CAP} terms "
        f"(a={a}, b={b}, c={c}, x={x})",
        partial=total,
        error_estimate=tail,
        iterations=n,
    )


def _terminates(a: float, b: float) -> bool:
    return any(v <= 0.0 and v == int(v) for v in (a, b))


def _one_minus(x: float, one_minus_x) -> float:
    if one_minus_x is None:
        return 1.0 - x
    y = float(one_minus_x)
    if not (y > 0.0 and abs(y - (1.0 - x)) <= _ONE_MINUS_X_TOL):
        raise DomainError(f"one_minus_x={y!r} does not match 1 - x for x={x!r}")
    return y


def _rgamma(z: float) -> float:
    """1/Gamma(z), exactly 0 at the poles z = 0, -1, -2, ..."""
    if z <= 0.0 and z == int(z):
        return 0.0
    return 1.0 / math.gamma(z)


def _connection(a: float, b: float, c: float, y: float):
    """F(a, b; c; 1 - y) by DLMF 15.8.4; None where it does not apply.

    With s = c - a - b not an integer (integer s is the logarithmic case),

        F = G(c)G(s)/(G(c-a)G(c-b)) F(a, b; 1-s; y)
            + y^s G(c)G(-s)/(G(a)G(b)) F(c-a, c-b; 1+s; y).

    c - a and c - b are rebuilt from s, so that the poles of the two
    terms at integer s cancel for the rounded s as they do for the exact
    one.  Both series are summed to machine precision, except that a
    terminating F(c-a, c-b; ..) (t1 is then 0) is held to _REL_TOL; the
    result is returned only if _CONNECTION_ULPS rounding per term,
    multiplied by the cancellation (|t1| + |t2|) / |t1 + t2|, stays within
    _REL_TOL.
    """
    s = c - a - b
    if s == round(s):
        return None
    ca, cb = b + s, a + s
    try:
        gc = math.gamma(c)
        g1 = gc * math.gamma(s) * _rgamma(ca) * _rgamma(cb)
        g2 = gc * math.gamma(-s) * _rgamma(a) * _rgamma(b) * y ** s
    except (OverflowError, ZeroDivisionError):
        return None
    f1, n1 = _series_sum(a, b, 1.0 - s, y, _EPS)
    # a terminating series ends before its tail test: rel_tol then only sets
    # its cancellation check, which must run at the returned value's tolerance
    f2, n2 = _series_sum(ca, cb, 1.0 + s, y, _REL_TOL if _terminates(ca, cb) else _EPS)
    t1, t2 = g1 * f1, g2 * f2
    value = t1 + t2
    spread = abs(t1) + abs(t2)
    if not (math.isfinite(spread) and value != 0.0):
        return None
    if spread / abs(value) * _CONNECTION_ULPS * _EPS > _REL_TOL:
        return None
    return Hyp2F1Result(value, n1 + n2, "connection")


def hyp2f1_detailed(params, x: float, *,
                    one_minus_x: float | None = None) -> Hyp2F1Result:
    """Evaluate F(a, b; c; x) on [0, 1), reporting terms used and transform.

    The value is returned to relative tolerance 1e-13 (_REL_TOL), or
    ConvergenceError is raised.

    For 0.5 < x < 1 the connection formula in y = 1 - x (DLMF 15.8.4) is
    used, transform "connection": two series in y that need tens to a few
    hundred terms even at x = 1 - 1e-8.  It is skipped for a terminating
    series, for integer c - a - b (the logarithmic case) and whenever
    cancellation between its two terms would exceed 1e-13; those calls,
    and all x <= 0.5, take the series route below.

    The Euler transform F(a,b;c;x) = (1-x)^(c-a-b) F(c-a, c-b; c; x) is
    applied whenever (c-a) + (c-b) < a + b, i.e. whenever the transformed
    series has the faster-decaying coefficients.  A series that terminates
    (a or b a non-positive integer) is always summed raw: it is a finite
    polynomial, and rewriting it through the transform trades an exact sum
    for a cancellation-prone one.

    one_minus_x, if given, is the caller's exact value of 1 - x, used in
    place of the rounded 1.0 - x (which loses digits as x -> 1).  It must
    agree with 1.0 - x to within 64 * 2**-52, else DomainError.
    """
    a, b, c = _validate_params(*params)
    a, b = min(a, b), max(a, b)
    x = _validate_x(x)
    y = _one_minus(x, one_minus_x)
    terminates = _terminates(a, b)
    if x > 0.5 and not terminates:
        res = _connection(a, b, c, y)
        if res is not None:
            return res
    if not terminates and (c - a) + (c - b) < a + b:
        value, terms = _series_sum(c - a, c - b, c, x)
        return Hyp2F1Result(y ** (c - a - b) * value, terms, "euler")
    value, terms = _series_sum(a, b, c, x)
    return Hyp2F1Result(value, terms, "none")


def hyp2f1(params, x: float, *, one_minus_x: float | None = None) -> float:
    """Gauss hypergeometric function F(a, b; c; x) for 0 <= x < 1.

    See hyp2f1_detailed for the evaluation routes and one_minus_x.
    """
    return hyp2f1_detailed(params, x, one_minus_x=one_minus_x).value


def euler_transform_eval(params, x: float) -> float:
    """Right-hand side of the Euler transform, summed as a raw series.

    Returns (1-x)^(c-a-b) * F(c-a, c-b; c; x) without re-applying any
    transform, so the identity with hyp2f1 can be tested as two genuinely
    different evaluation routes.
    """
    a, b, c = _validate_params(*params)
    x = _validate_x(x)
    value, _ = _series_sum(c - a, c - b, c, x)
    return (1.0 - x) ** (c - a - b) * value


def quadratic_transform_eval(a: float, c: float, x: float) -> float:
    """Argument-halving evaluation of F(a, a + 1/2; c; x).

    Computes ((1 + sqrt(1-x))/2)^(-2a) * F(2a, 2a-c+1; c; y) with
    y = (1 - sqrt(1-x)) / (1 + sqrt(1-x)), again as a raw series.
    """
    a, _, c = _validate_params(a, a + 0.5, c)
    x = _validate_x(x)
    s = math.sqrt(1.0 - x)
    y = (1.0 - s) / (1.0 + s)
    value, _ = _series_sum(2.0 * a, 2.0 * a - c + 1.0, c, y)
    return ((1.0 + s) / 2.0) ** (-2.0 * a) * value


def hyp2f1_at_one(params) -> float:
    """Limit of F(a, b; c; x) as x -> 1-, requiring c - a - b > 0.

    Evaluated as Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)).  Only
    parameter triples with c - a and c - b positive are supported; every
    bound in this package satisfies that.
    """
    a, b, c = _validate_params(*params)
    s = c - a - b
    if not s > 0:
        raise DomainError(f"limit diverges: c - a - b = {s!r} <= 0")
    if not (c > 0 and c - a > 0 and c - b > 0):
        raise DomainError(
            "parameter triple outside the supported range (needs c, c-a, c-b > 0)"
        )
    return math.exp(
        math.lgamma(c) + math.lgamma(s) - math.lgamma(c - a) - math.lgamma(c - b)
    )


def c_alpha(alpha) -> float:
    """Normalization constant Gamma(alpha/2 + 1)^2 / Gamma(alpha + 1).

    Its reciprocal equals 2^alpha Gamma(1/2 + alpha/2) / (sqrt(pi)
    Gamma(1 + alpha/2)) by the duplication formula.
    """
    a = alpha_value(alpha)
    if a <= 170.0:
        return math.gamma(a / 2.0 + 1.0) ** 2 / math.gamma(a + 1.0)
    return math.exp(2.0 * math.lgamma(a / 2.0 + 1.0) - math.lgamma(a + 1.0))
