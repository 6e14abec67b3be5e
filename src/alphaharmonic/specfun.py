"""Gamma-family functions and the Gauss hypergeometric series.

Everything here is a pure function of its arguments.  The hypergeometric
evaluator sums the defining power series

    F(a, b; c; x) = sum_n (a)_n (b)_n / ((c)_n n!) x^n,    0 <= x < 1,

in float64 with a rigorous geometric tail bound for stopping.  Series
predicted to be short (fewer than 48 terms from log(2**-56) / log(x) and
the burn-in) are summed term by term in Python floats and added by
math.fsum; the rest in numpy chunks of 64 terms and more.  For
0.5 < x < 1 it continues F to x -> 1 with the connection formula in
y = 1.0 - x (DLMF 15.8.4), whose two series converge like y^n; otherwise it
applies the Euler transform when the transformed series decays faster.
The connection formula is skipped, and the Euler/raw series summed
instead, for terminating series, integer c - a - b (the logarithmic case,
DLMF 15.8.10) and calls where cancellation between its two terms would
cost more than the relative tolerance.  No continuation beyond [0, 1) is
attempted.  A caller that knows 1 - x more exactly than 1.0 - x (as
`bounds.m_bound` does) sums its own positive series in y instead.
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
    "hyp2f1",
    "hyp2f1_detailed",
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
# Series predicted to need fewer terms than _SHORT_TERMS are summed term by
# term in Python floats, which below it is cheaper than one 64-term numpy
# chunk, until their tail is at most _SHORT_TOL * |sum|: far enough below
# an ulp that truncation adds no error beside the rounding of the terms.
_SHORT_TERMS = 48
_SHORT_TOL = 2.0 ** -56
_LOG_SHORT_TOL = math.log(_SHORT_TOL)
# Rounding of one connection-formula term (gamma factors, y**s, series
# sum), in units of _EPS; cancellation between the two terms multiplies it.
_CONNECTION_ULPS = 16.0


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
    """Beta function B(x, y) for positive real arguments, from math.gamma
    while x + y <= 170 keeps every factor in range, else from lgamma."""
    if not (x > 0 and y > 0):
        raise DomainError(f"beta requires positive arguments, got {x!r}, {y!r}")
    if x + y <= 170.0:  # dividing first, tiny x and y cannot overflow a product
        return math.gamma(x) / math.gamma(x + y) * math.gamma(y)
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _series_sum(a: float, b: float, c: float, x: float, rel_tol: float = _REL_TOL):
    """Sum the raw series; returns (value, terms_used).

    Stops once the remaining tail is provably below rel_tol * |sum|.  The
    term ratio is |t_{m+1}/t_m| = x (m+a)(m+b) / ((m+c)(m+1)); for
    m >= n past the burn-in (all four factors positive) it is bounded by
    q(n) = x * max(1, (n+u)/(n+v))^2 with u = max(a, b) and v = min(c, 1),
    since (m+a)(m+b) <= (m+u)^2 and (m+c)(m+1) >= (m+v)^2.  The bound
    decreases to x, so the geometric tail test always terminates for
    x < 1.

    Two routes, chosen by the predicted term count n_burn + log(2**-56) /
    log(x).  Below _SHORT_TERMS the series is summed term by term in
    Python floats (`_sum_terms`), testing the tail after every term and
    stopping once it is at most 2**-56 * |sum|, whatever rel_tol; the terms
    are added by math.fsum.  That costs less than one numpy chunk and is
    as accurate as the chunk, which summed to machine precision.  Longer
    series, and a short one whose prediction proves wrong, are summed in
    numpy chunks of 64, 128, ... up to _CHUNK terms, testing the tail after
    each chunk (`_sum_chunks`).

    A terminating series is a polynomial whose terms can cancel (5e14-fold
    for F(13.4, -15; 3.18; 0.974)); its roundoff, up to 2**-52 * sum|terms|,
    must stay within rel_tol * |sum| or ConvergenceError is raised.
    """
    if x == 0.0:
        return 1.0, 1
    n_burn = int(max(abs(a), abs(b), abs(c), 1.0)) + 2
    if n_burn + _LOG_SHORT_TOL / math.log(x) < _SHORT_TERMS:
        done, total, term, size, n = _sum_terms(a, b, c, x, n_burn)
        if done:
            return total, n
        return _sum_chunks(a, b, c, x, rel_tol, n_burn, total, term, size, n)
    return _sum_chunks(a, b, c, x, rel_tol, n_burn)


def _sum_terms(a: float, b: float, c: float, x: float, n_burn: int):
    """Up to _SHORT_TERMS terms, one at a time: (done, total, term, size, n).

    done is True once the tail bound is at most _SHORT_TOL * |total|, and
    total is then the correctly rounded sum (math.fsum) of t_0 .. t_n;
    else total, the last term t_n, sum|t| and n are where `_sum_chunks`
    goes on (term is 0.0 if the series terminated).
    """
    u = max(a, b)
    v = min(c, 1.0)
    # |term| * near <= |total| + 1e-12 is necessary for the tail test
    # (q >= x), and cheaper
    near = x / ((1.0 - x) * _SHORT_TOL)
    total = term = 1.0
    terms = [1.0]
    m = 0.0
    while m < _SHORT_TERMS:
        # grouped (.. + a) * (.. + b) first so that swapping a and b
        # reproduces the result bit for bit
        term *= (m + a) * (m + b) / ((m + c) * (m + 1.0)) * x
        m += 1.0
        total += term
        terms.append(term)
        if term == 0.0:
            break
        if abs(term) * near <= abs(total) + 1e-12 and m >= n_burn:
            growth = (m + u) / (m + v)
            q = x * growth * growth if growth > 1.0 else x
            if q < 1.0 and abs(term) * q <= (1.0 - q) * _SHORT_TOL * max(abs(total), 1e-12):
                return True, math.fsum(terms), term, None, int(m)
    return False, math.fsum(terms), term, math.fsum(map(abs, terms)), int(m)


def _sum_chunks(a: float, b: float, c: float, x: float, rel_tol: float,
                n_burn: int, total: float = 1.0, term: float = 1.0,
                size: float = 1.0, n: int = 0):
    """Sum on from term t_n in numpy chunks; returns (value, terms_used).

    total and size are the sum and sum|t| of t_0 .. t_n.  Also settles a
    series that has terminated (term == 0.0), with its cancellation check.
    """
    ends = _terminates(a, b)
    u = max(a, b)
    v = min(c, 1.0)
    chunk = 64
    while term != 0.0 and n < _TERM_CAP:
        k = min(chunk, _TERM_CAP - n)
        chunk = min(2 * chunk, _CHUNK)
        idx = n + np.arange(k, dtype=float)
        ratios = (idx + a) * (idx + b) / ((idx + c) * (idx + 1.0)) * x
        terms = term * np.cumprod(ratios)
        total += float(terms.sum())
        if ends:
            size += float(np.abs(terms).sum())
        term = float(terms[-1])
        n += k
        if term == 0.0 or n < n_burn:
            continue
        growth = (n + u) / (n + v)
        q = x * growth * growth if growth > 1.0 else x
        if q < 1.0:
            tail = abs(term) * q / (1.0 - q)
            if tail <= rel_tol * max(abs(total), 1e-12):
                return total, n

    if term == 0.0:
        # a Pochhammer factor hit zero: the series terminates here
        if ends and size * _EPS > rel_tol * abs(total):
            raise ConvergenceError(
                f"terminating hypergeometric series cancels (a={a}, b={b}, "
                f"c={c}, x={x})", partial=total, error_estimate=size * _EPS,
                iterations=n)
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
    return (a <= 0.0 and a == int(a)) or (b <= 0.0 and b == int(b))


def _one_minus_abs2(zc: complex) -> float:
    """1 - |z|^2 correctly rounded.

    Each square is split exactly (Veltkamp: hi has 26 bits, so hi*hi,
    2*hi*lo and lo*lo are exact) and the pieces are summed by fsum, so the
    difference keeps its digits as |z| -> 1, where 1.0 - |z|^2 would not.
    """
    parts = [1.0]
    for v in (zc.real, zc.imag):
        t = v * 134217729.0  # 2**27 + 1
        hi = t - (t - v)
        lo = v - hi
        parts += (-hi * hi, -2.0 * hi * lo, -lo * lo)
    return math.fsum(parts)


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
    two terms are added by `_two_terms`.
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
    value = _two_terms(g1 * f1, g2 * f2)
    return None if value is None else Hyp2F1Result(value, n1 + n2, "connection")


def _two_terms(t1: float, t2: float) -> float | None:
    """t1 + t2, or None where the cancellation costs more than _REL_TOL:
    _CONNECTION_ULPS rounding per term times (|t1| + |t2|) / |t1 + t2|."""
    value = t1 + t2
    spread = abs(t1) + abs(t2)
    if math.isfinite(spread) and value != 0.0 and (
            spread / abs(value) * _CONNECTION_ULPS * _EPS <= _REL_TOL):
        return value
    return None


def hyp2f1_detailed(params, x: float) -> Hyp2F1Result:
    """Evaluate F(a, b; c; x) on [0, 1), reporting terms used and transform.

    The value is returned to relative tolerance 1e-13 (_REL_TOL), or
    ConvergenceError is raised.

    For 0.5 < x < 1 the connection formula in y = 1 - x (DLMF 15.8.4) is
    used, transform "connection": two series in y that converge like y^n,
    so they need a few terms each near x = 1 (3 at x = 1 - 1e-5 for
    moderate a, b, c) and at most a few hundred near x = 1/2.  It is
    skipped for a terminating series, for integer c - a - b (the
    logarithmic case) and whenever cancellation between its two terms
    would exceed 1e-13; those calls, and all x <= 0.5, take the series
    route below.

    The Euler transform F(a,b;c;x) = (1-x)^(c-a-b) F(c-a, c-b; c; x) is
    applied whenever (c-a) + (c-b) < a + b, i.e. whenever the transformed
    series has the faster-decaying coefficients.  A series that terminates
    (a or b a non-positive integer) is always summed raw: it is a finite
    polynomial, and rewriting it through the transform trades an exact sum
    for a cancellation-prone one.

    Both routes take y = 1.0 - x, which is exact for x >= 1/2; the value
    is F at the float x, whose rounding from a caller's own x near 1 can
    cost that caller digits.
    """
    a, b, c = _validate_params(*params)
    a, b = min(a, b), max(a, b)
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"series argument must lie in [0, 1), got {x!r}")
    y = 1.0 - x
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


def hyp2f1(params, x: float) -> float:
    """Gauss hypergeometric function F(a, b; c; x) for 0 <= x < 1.

    See hyp2f1_detailed for the evaluation routes.
    """
    return hyp2f1_detailed(params, x).value


def c_alpha(alpha) -> float:
    """Normalization constant Gamma(alpha/2 + 1)^2 / Gamma(alpha + 1).

    Its reciprocal equals 2^alpha Gamma(1/2 + alpha/2) / (sqrt(pi)
    Gamma(1 + alpha/2)) by the duplication formula.  Evaluated as
    (alpha + 1) B(alpha/2 + 1, alpha/2 + 1).
    """
    a = alpha_value(alpha)
    return (a + 1.0) * beta(a / 2.0 + 1.0, a / 2.0 + 1.0)
