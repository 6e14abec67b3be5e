"""Gamma-family functions and the Gauss hypergeometric series.

Everything here is a pure function of its arguments.  One routine,
`_series_sum`, sums the defining power series

    F(a, b; c; x) = sum_n (a)_n (b)_n / ((c)_n n!) x^n,    0 <= x < 1,

in float64 with a rigorous geometric tail bound for stopping, and
reports sum |t_n| beside the sum.  One judge, `_two_terms`, accepts a
value summed from signed parts only where their rounding, magnified by
the cancellation, stays within the relative tolerance.  The routes, the
connection formulas near x = 1 (DLMF 15.8.4 and 15.8.10), the Euler
transform and the raw series, are described at `hyp2f1_detailed`; no
continuation beyond [0, 1) is attempted.  A caller that knows 1 - x
more exactly than 1.0 - x passes it to `_hyp` (`bounds.schwarz_bound` and
`quadrature.modulus_power_integral` do).  The other series the library
sums are here too: M's factor (`_m_series`) and the solver's seed
(`_mode_seed`), each from positive series in its caller's exact 1 - x.
"""

from __future__ import annotations

import math
import numbers
import sys
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

# The connection routes near x = 1 need a few hundred terms at most.  The
# cap serves the raw and Euler series that remain for x -> 1 when the
# connection formulas are skipped (badly cancelling or near-integer
# c - a - b): it covers exponent c - a - b down to about 0.2 at
# x = 1 - 1e-5 under the tail-bound stopping rule, with headroom; chunked
# summation keeps even capped runs cheap.
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
# Rounding of a judged value per unit of its spread (gamma factors, y**s,
# each term summed), in units of _EPS; cancellation multiplies it.
_CONNECTION_ULPS = 16.0
# For integer c - a - b the logarithmic connection formula replaces the raw
# or Euler series once y = 1 - x < _LOG_SWITCH: it needs 10-40 terms there
# (a Python loop with four digamma values), while the raw series' count
# grows like 1/y.  Timed for F(-alpha/2, -alpha/2; 1; 1 - y) on a 2-core
# Xeon: at alpha = 1 the raw series needs 192 terms or more below
# y = 0.221 (42-50 us at y = 0.1 to 0.2, 1,984 terms and 144 us at
# y = 0.01), the logarithmic route 11-30 terms (27-51 us); at alpha = 3, 5
# and 7 the raw series is one 64-term chunk (13-24 us) from y = 0.15, 0.1
# and 0.01 up, the logarithmic route 30-65 us there.  Switching at 0.25
# bounds the work at every alpha, costs up to 50 us a call at alpha >= 3
# for y in [0.1, 0.25), and leaves 1 - r^2 >= 0.2775 (r <= 0.85, the
# certify radii) on the raw series.
_LOG_SWITCH = 0.25
# The logarithmic series, past the burn-in that makes every digamma
# argument at least 1, gives up (and the raw or Euler series is summed)
# after _LOG_TERMS terms; below _LOG_SWITCH it needs at most 35 for
# a, b in [-3, 3] and |c - a - b| <= 3, 58 for [-12, 12] and 25.
_LOG_TERMS = 64
# `_mode_seed` sums seeds A_K with K (1 - x) at most this in 1 - x, where
# their leading term x^(-K) is at most 2; larger K (1 - x) in x, which
# needs O(1 / (1 - x)) terms.
_SEED_SWITCH = 0.5
# Bernoulli terms B_2k / (2k) of the digamma's asymptotic series, k = 1..7:
# at x >= 10 the first term left out, B_16 / (16 x^16), is below 5e-17.
_PSI_SHIFT = 10.0
_PSI_COEFFS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
               -691.0 / 32760.0, 1.0 / 12.0)


def _is_real(value) -> bool:
    """Whether value is a real number; bools are not."""
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def _real(name: str, value) -> float:
    """value as a float, or DomainError naming it if it is not a real number.

    Callers test `type(value) is float` first and call this only when it
    fails: the call would cost more than the check on every bound.
    """
    if not _is_real(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _validate_params(a, b, c) -> tuple[float, float, float]:
    """(a, b, c) as floats: all finite, c not near a non-positive integer."""
    if not (type(a) is float and type(b) is float and type(c) is float):
        a, b, c = _real("a", a), _real("b", b), _real("c", c)
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
    v = alpha if type(alpha) is float else _real("alpha", alpha)
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
    while x + y <= 170 keeps every factor in range, else from lgamma.

    Gamma is taken at s = fl(x + y); where that sum rounds, by
    d = x + y - s (`_round_off`), the result is multiplied by 1 - psi(s) d,
    the first order of Gamma(s) / Gamma(s + d).
    """
    if not (x > 0 and y > 0):
        raise DomainError(f"beta requires positive arguments, got {x!r}, {y!r}")
    s = x + y
    if s <= 170.0:  # dividing first, tiny x and y cannot overflow a product
        value = math.gamma(x) / math.gamma(s) * math.gamma(y)
    else:
        value = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(s))
    d = _round_off(x, y)
    if d:
        value *= 1.0 - _digamma(s) * d
    return value


def _round_off(p: float, q: float) -> float:
    """p + q - fl(p + q), exactly (TwoSum)."""
    t = p + q
    q_part = t - p
    return (p - (t - q_part)) + (q - q_part)


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x) / Gamma(x) for real x, not a pole 0, -1, -2, ...

    Below 1/2 by reflection, psi(x) = psi(1 - x) - pi cot(pi x), with the
    cotangent taken at the exact x - round(x).  From 1/2 up, the recurrence
    psi(x) = psi(x + 1) - 1/x lifts the argument to _PSI_SHIFT, where
    ln x - 1/(2x) - sum_k B_2k / (2k x^2k) through k = 7 is exact to
    5e-17; the absolute error is a few ulps of |ln x| + sum 1/x.
    """
    if x < 0.5:
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    shift = 0.0
    while x < _PSI_SHIFT:
        shift += 1.0 / x
        x += 1.0
    w2 = 1.0 / (x * x)
    series = 0.0
    for coeff in reversed(_PSI_COEFFS):
        series = (series + coeff) * w2
    return math.log(x) - 0.5 / x - series - shift


def _series_sum(a: float, b: float, c: float, x: float, rel_tol: float = _REL_TOL):
    """Sum the raw series; returns (value, terms_used, abs_sum).

    Stops once the tail, bounded by `_ratio_bound` with u = max(a, b) and
    v = min(c, 1), is provably below rel_tol * |sum|.  A series predicted
    (n_burn + log(2**-56) / log(x)) to need fewer than _SHORT_TERMS terms
    is first summed term by term in Python floats, testing the tail after
    every term and stopping once it is at most 2**-56 * |sum|, whatever
    rel_tol; the terms are added by math.fsum.  That costs less than one
    numpy chunk and is as accurate as the chunk, which sums to machine
    precision.  Longer series, and a short one still going after
    _SHORT_TERMS terms, are summed on in numpy chunks of 64, 128, ... up to
    _CHUNK terms, testing the tail after each chunk.

    It only sums: the caller judges the cancellation (`_two_terms`) by
    abs_sum = sum |t_n|, the value itself where no term is negative
    (`_positive`, as for the bounds' F).  It raises ConvergenceError for x
    that rounds to 1, at the first partial sum that leaves the float range,
    and after _TERM_CAP terms.
    """
    if x == 0.0:
        return 1.0, 1, 1.0
    if not x < 1.0:
        raise ConvergenceError(f"hypergeometric series argument rounds to 1 (a={a}, b={b}, "
                               f"c={c}, x={x})", iterations=0)
    n_burn = int(max(abs(a), abs(b), abs(c), 1.0)) + 2
    u = max(a, b)
    v = min(c, 1.0)
    positive = _positive(a, b, c)
    total = term = size = 1.0
    n = 0
    if n_burn + _LOG_SHORT_TOL / math.log(x) < _SHORT_TERMS:
        # |term| * near <= |total| + 1e-12 is necessary for the tail test
        # (q >= x), and cheaper
        near = x / ((1.0 - x) * _SHORT_TOL)
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
                q = _ratio_bound(m, x, u, v)
                if q < 1.0 and abs(term) * q <= (1.0 - q) * _SHORT_TOL * max(abs(total), 1e-12):
                    total = math.fsum(terms)
                    return total, int(m), total if positive else math.fsum(map(abs, terms))
        # the chunks go on from t_n (a terminated series settles below)
        total, n = math.fsum(terms), int(m)
        size = total if positive else math.fsum(map(abs, terms))

    chunk = 64
    # an overflowing term or chunk sum is caught below as a non-finite total
    with np.errstate(over="ignore", invalid="ignore"):
        while term != 0.0:  # else a Pochhammer factor hit zero: the series ends
            if n >= _TERM_CAP:
                raise ConvergenceError(
                    f"hypergeometric series did not converge within {_TERM_CAP} terms (a={a}, "
                    f"b={b}, c={c}, x={x})", partial=total,
                    error_estimate=abs(term) * x / max(1.0 - x, 1e-300), iterations=n)
            k = min(chunk, _TERM_CAP - n)
            chunk = min(2 * chunk, _CHUNK)
            idx = n + np.arange(k, dtype=float)
            ratios = (idx + a) * (idx + b) / ((idx + c) * (idx + 1.0)) * x
            terms = term * np.cumprod(ratios)
            total += float(terms.sum())
            if not positive:
                size += float(np.abs(terms).sum())
            term = float(terms[-1])
            n += k
            if not math.isfinite(total):
                raise ConvergenceError(
                    f"hypergeometric series leaves the float range (a={a}, b={b}, c={c}, "
                    f"x={x})", partial=total, iterations=n)
            if term == 0.0 or n < n_burn:
                continue
            q = _ratio_bound(n, x, u, v)
            if q < 1.0 and abs(term) * q / (1.0 - q) <= rel_tol * max(abs(total), 1e-12):
                break
    return total, n, total if positive else size


def _positive(a: float, b: float, c: float) -> bool:
    """Whether no term of F(a, b; c; x) is negative: c > 0 and a, b > 0 or a = b."""
    return c > 0.0 and (a == b or (a > 0.0 and b > 0.0))


def _ratio_bound(n: float, x: float, u: float, v: float) -> float:
    """q(n) = x max(1, (n+u)/(n+v))^2, a bound on every term ratio
    x (m+a)(m+b) / ((m+c)(m+1)) from m = n on, past the burn-in where all
    four factors are positive, for u >= max(a, b) and v <= min(c, 1):
    (m+a)(m+b) <= (m+u)^2 and (m+c)(m+1) >= (m+v)^2.  It decreases to x, so
    a geometric tail test |t_n| q / (1 - q) <= tol always ends for x < 1."""
    growth = (n + u) / (n + v)
    return x * growth * growth if growth > 1.0 else x


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


def _rgamma(z: float, dz: float = 0.0) -> float:
    """1/Gamma(z + dz), exactly 0 at the poles z = 0, -1, -2, ...; below 1/2,
    near those poles, the error dz of a computed z counts to first order.
    Not above: `_connection` corrects c - a and c - b there but not s, and
    the mismatch costs more than it saves (3,000 draws, a, b in [-100, 100]:
    10 connection values beyond 1e-13 against 4)."""
    if z <= 0.0 and z == int(z):
        return 0.0
    if z < 0.5 and dz:
        return (1.0 - _digamma(z) * dz) / math.gamma(z)
    return 1.0 / math.gamma(z)


def _m_series(a: float, x: float, y: float) -> float:
    """F(1/2, (1-a)/2; 3/2; x), y = 1 - x, for a > -1: `bounds.m_bound`'s factor.

    Its own series alternates for a > 1 (b = (1-a)/2 < 0), by a factor that
    grows like (1+x)^(a/2), so it is never summed; the series below have
    positive terms for every a > -1.  With s = (a+1)/2: above x = 1/2 the
    connection formula (DLMF 15.8.4), whose first series
    F(1/2, 1-s; 1-s; y) is x^(-1/2) and whose gamma ratios reduce to
    B(s, 1/2)/2 and -1/(2s):
        F = B(s, 1/2) / (2 sqrt(x)) - y^s / (2s) F(1, s + 1/2; s + 1; y),
    unless its two terms cancel beyond the tolerance (`_two_terms`; s near
    0, where both grow like 1/(2s)); else, and for x <= 1/2, the Euler
    transform y^s F(1, s + 1/2; 3/2; x).
    """
    s = (a + 1.0) / 2.0
    if x > 0.5:
        t1, g2 = beta(s, 0.5) / (2.0 * math.sqrt(x)), y ** s / (2.0 * s)
        f, _, f_abs = _series_sum(1.0, s + 0.5, s + 1.0, y)
        value = _two_terms(t1, -(g2 * f), t1 + g2 * f_abs)
        if value is not None:
            return value
    f, _, _ = _series_sum(1.0, s + 0.5, 1.5, x)
    return y ** s * f


def _mode_seed(a: float, k: int, x: float, y: float, scale_k: float) -> float:
    """`kernel._spectral`'s seed A_k = scale_k F(-a, k; k+1; x), y = 1 - x,
    scale_k = (a+1)_k / k!.

    Summed to machine precision from series with positive terms only, never
    from the alternating one.  Far from x = 1 the Euler transform
        F(-a, k; k+1; x) = y^(a+1) F(k+1+a, 1; k+1; x);
    near it the connection formula (DLMF 15.8.4), whose first series here
    is F(-a, k; -a; y) = x^(-k) and whose gamma ratios reduce to scale_k
    and -k/(a+1):
        A_k = x^(-k) - scale_k k/(a+1) y^(a+1) F(k+1+a, 1; 2+a; y).
    The seed is held to absolute accuracy, a few ulps of x^(-k) <= 2,
    all the solver needs, as it adds A_k to terms of order 1: near a = -1,
    where the two terms cancel (7.3e-11 relative at a = -0.99999), the
    formula is kept rather than traded for the O(1 / y)-term series in x.
    """
    ya1 = y ** (a + 1.0)
    if k * y > _SEED_SWITCH:
        if ya1 < sys.float_info.min:
            raise ConvergenceError(
                f"spectral seed (1-|z|^2)^(alpha+1) = {y!r}^{a + 1.0!r} underflows")
        s = _series_sum(k + 1.0 + a, 1.0, k + 1.0, x, rel_tol=_EPS)[0]
        return scale_k * ya1 * s
    s = _series_sum(k + 1.0 + a, 1.0, 2.0 + a, y, rel_tol=_EPS)[0]
    return x ** -k - scale_k * k / (1.0 + a) * ya1 * s


def _connection(a: float, b: float, c: float, y: float):
    """F(a, b; c; 1 - y) by DLMF 15.8.4; None where it does not apply.

    Integer s = c - a - b is the logarithmic case, `_log_connection`, below
    y = _LOG_SWITCH (None above).  With s not an integer,

        F = G(c)G(s)/(G(c-a)G(c-b)) F(a, b; 1-s; y)
            + y^s G(c)G(-s)/(G(a)G(b)) F(c-a, c-b; 1+s; y).

    c - a and c - b are rebuilt from s, so that the poles of the two
    terms at integer s cancel for the rounded s as they do for the exact
    one; the error of that rebuild counts near the poles of 1/G (`_rgamma`).
    Both series are summed to machine precision and judged by `_two_terms`
    with spread |g1| sum|t1_n| + |g2| sum|t2_n|: their terms can change
    sign and cancel (through (1 - s)_n for the bounds' F, 1 - s = -alpha).
    None also where a gamma factor overflows or a series leaves the float
    range.
    """
    s = c - a - b
    if s == round(s):
        return _log_connection(a, b, c, s, y) if y < _LOG_SWITCH else None
    ca, cb = b + s, a + s
    ds = _round_off(c, -a) + _round_off(c - a, -b)  # c - a - b - s
    try:
        gc = math.gamma(c)
        g1 = (gc * math.gamma(s) * _rgamma(ca, ds + _round_off(b, s))
              * _rgamma(cb, ds + _round_off(a, s)))
        g2 = gc * math.gamma(-s) * _rgamma(a) * _rgamma(b) * y ** s
        f1, n1, s1 = _series_sum(a, b, 1.0 - s, y, _EPS)
        f2, n2, s2 = _series_sum(ca, cb, 1.0 + s, y, _EPS)
    except (OverflowError, ZeroDivisionError, ConvergenceError):
        return None
    value = _two_terms(g1 * f1, g2 * f2, abs(g1) * s1 + abs(g2) * s2)
    return None if value is None else Hyp2F1Result(value, n1 + n2, "connection")


def _log_connection(a: float, b: float, c: float, s: float, y: float):
    """F(a, b; c; 1 - y) for integer s = c - a - b by DLMF 15.8.10 (A&S
    15.3.11); None where it does not apply or would lose digits.

    For s = m >= 0, with psi the digamma function,

        F = G(m)G(c)/(G(a+m)G(b+m)) sum_{n<m} (a)_n (b)_n / (n! (1-m)_n) y^n
            + (-1)^(m+1) G(c)/(G(a)G(b)) y^m / m!
              * sum_n t_n [ln y - psi(n+1) - psi(n+m+1) + psi(a+m+n) + psi(b+m+n)],

    t_n = (a+m)_n (b+m)_n / (n! (m+1)_n) y^n; the four psi values move on
    by psi(z + 1) = psi(z) + 1/z.  For s = -m < 0 the Euler transform
    y^s F(c-a, c-b; c; 1-y) comes first.  None for a terminating series,
    where a gamma factor overflows, where the log series has not met its
    tail bound after _LOG_TERMS terms past the burn-in, and where the
    rounding, _CONNECTION_ULPS per term of each sum counted with every
    part of its bracket (|ln y| and each |psi|), exceeds _REL_TOL of the
    value (`_two_terms`).

    The log series stops, like `_series_sum`'s first stage, once its tail is
    at most 2**-56 times its sum.  Past the burn-in (every psi argument
    >= 1) the term ratio is at most q = `_ratio_bound`(n, y, b + m, 1), and
    each bracket at step k >= n at most
    B_k = |ln y| + 4 ln(k + w), w = max(b, 1) + m + 2, since
    |psi(z)| <= ln(z + 2) for z >= 1; ln(n+j+w) <= ln(n+w) + j/(n+w) then
    bounds the tail by |t_n| q/(1-q) (B_n + 4 / ((n+w)(1-q))).
    """
    if s < 0.0:
        a, b = c - b, c - a
        if _terminates(a, b):
            return None
    m = int(abs(s))
    try:
        gc = math.gamma(c)
        g1 = gc * math.gamma(m) * _rgamma(a + m) * _rgamma(b + m) if m else 0.0
        g2 = gc * _rgamma(a) * _rgamma(b) / math.gamma(m + 1.0)
        # y^m of the log term, or the Euler factor y^-m, which cancels it
        if s < 0.0:
            g1 *= y ** s
        else:
            g2 *= y ** s
    except (OverflowError, ZeroDivisionError):
        return None

    term = 1.0
    finite = [1.0] if m else []
    for n in range(m - 1):
        term *= (n + a) * (n + b) / ((n + 1.0) * (n + 1.0 - m)) * y
        finite.append(term)

    am, bm, m1 = a + m, b + m, m + 1.0
    ly = math.log(y)
    p1 = _digamma(1.0)
    p2 = _digamma(m1)
    pa = _digamma(am)
    pb = pa if a == b else _digamma(bm)
    terms = [ly - p1 - p2 + pa + pb]
    size = abs(ly) + abs(p1) + abs(p2) + abs(pa) + abs(pb)
    total = terms[0]
    term = 1.0
    n_burn = max(0, math.ceil(1.0 - am))
    w = max(b, 1.0) + m + 2.0
    n = 0.0
    while True:
        term *= (n + am) * (n + bm) / ((n + 1.0) * (n + m1)) * y
        p1 += 1.0 / (n + 1.0)
        p2 += 1.0 / (n + m1)
        pa += 1.0 / (n + am)
        pb = pa if a == b else pb + 1.0 / (n + bm)
        n += 1.0
        t = term * (ly - p1 - p2 + pa + pb)
        terms.append(t)
        total += t
        size += abs(term) * (abs(ly) + abs(p1) + abs(p2) + abs(pa) + abs(pb))
        if n < n_burn:
            continue
        q = _ratio_bound(n, y, bm, 1.0)
        if q < 1.0:
            nw = n + w
            bracket = abs(ly) + 4.0 * math.log(nw) + 4.0 / (nw * (1.0 - q))
            if abs(term) * q / (1.0 - q) * bracket <= _SHORT_TOL * abs(total):
                break
        if n >= n_burn + _LOG_TERMS:
            return None

    sign = -1.0 if m % 2 == 0 else 1.0
    t1 = g1 * math.fsum(finite)
    t2 = sign * g2 * math.fsum(terms)
    spread = abs(g1) * math.fsum(map(abs, finite)) + abs(g2) * size
    value = _two_terms(t1, t2, spread)
    return None if value is None else Hyp2F1Result(value, m + int(n) + 1, "connection")


def _two_terms(t1: float, t2: float, spread: float) -> float | None:
    """t1 + t2, or None where its rounding, _CONNECTION_ULPS ulps of spread,
    exceeds _REL_TOL of |t1 + t2|: the one judge of cancellation.  spread
    bounds the magnitudes the value was summed from, each series' sum |t_n|
    times its factor; a single sum passes t2 = 0.  An exact 0.0 is never
    accepted, as it cannot be told from roundoff."""
    value = t1 + t2
    if math.isfinite(spread) and value != 0.0 and (
            spread / abs(value) * _CONNECTION_ULPS * _EPS <= _REL_TOL):
        return value
    return None


def hyp2f1_detailed(params, x: float) -> Hyp2F1Result:
    """Evaluate F(a, b; c; x) on [0, 1), reporting terms used and transform.

    The value is returned to relative tolerance 1e-13 (_REL_TOL), or
    ConvergenceError is raised, also where it leaves the float range.

    For 0.5 < x < 1 the connection formula in y = 1 - x (DLMF 15.8.4) is
    used, transform "connection": two series in y that converge like y^n,
    a few terms each near x = 1 and at most a few hundred near x = 1/2.
    For integer c - a - b it takes the logarithmic case (DLMF 15.8.10),
    also "connection", below y = 0.25 (`_LOG_SWITCH`): |c - a - b| terms
    plus at most _LOG_TERMS past a burn-in.  Either is skipped for a
    terminating series, where a gamma factor overflows and where
    `_two_terms` rejects it: the rounding of every term summed, in either
    series or between the two, magnified by the cancellation, would exceed
    1e-13.  Those calls, integer c - a - b from y = 0.25 up, and all
    x <= 0.5 take the series route: the Euler transform
    F(a,b;c;x) = (1-x)^(c-a-b) F(c-a, c-b; c; x) wherever
    (c-a) + (c-b) < a + b (its coefficients decay faster), else the raw
    series, also where only the Euler series has negative terms
    (`_positive`): that sum is not judged, and it can cancel.  A
    terminating series (a or b a non-positive integer) is always
    summed raw, an exact polynomial that the transform would make
    cancellation-prone.  ConvergenceError is raised where `_two_terms`
    rejects the sum of a terminating series, raw or Euler (c - a or c - b
    a non-positive integer).

    Both routes take y = 1.0 - x, exact for x >= 1/2: the value is F at
    the float x (`_hyp` takes a caller's own, more exact, 1 - x).
    """
    a, b, c = _validate_params(*params)
    if type(x) is not float:
        x = _real("x", x)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"series argument must lie in [0, 1), got {x!r}")
    return _hyp(min(a, b), max(a, b), c, x, 1.0 - x)


def _hyp(a: float, b: float, c: float, x: float, y: float) -> Hyp2F1Result:
    """`hyp2f1_detailed` for validated a <= b, c and 0 <= x < 1, with the
    caller's y = 1 - x, which it may know more exactly than 1.0 - x."""
    terminates = _terminates(a, b)
    if x > 0.5 and not terminates:
        res = _connection(a, b, c, y)
        if res is not None:
            return res
    if terminates or (c - a) + (c - b) >= a + b or (
            _positive(a, b, c) and not _positive(c - a, c - b, c)):
        return Hyp2F1Result(*_raw_series(a, b, c, x), "none")
    value, terms = _raw_series(c - a, c - b, c, x)
    try:
        value = y ** (c - a - b) * value
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ConvergenceError(f"hypergeometric value leaves the float range (a={a}, "
                               f"b={b}, c={c}, x={x})", partial=value, iterations=terms)
    return Hyp2F1Result(value, terms, "euler")


def _raw_series(a: float, b: float, c: float, x: float) -> tuple[float, int]:
    """`_series_sum(a, b, c, x)`'s value and terms_used, or ConvergenceError
    where the series terminates and `_two_terms` rejects its sum: a
    polynomial whose terms cancel (5e14-fold for F(13.4, -15; 3.18; 0.974))
    has no other route."""
    value, terms, size = _series_sum(a, b, c, x)
    if _terminates(a, b) and _two_terms(value, 0.0, size) is None:
        raise ConvergenceError(
            f"terminating hypergeometric series cancels (a={a}, b={b}, c={c}, x={x})",
            partial=value, error_estimate=size * _EPS, iterations=terms)
    return value, terms


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
