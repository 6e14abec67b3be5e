"""Gamma-family functions and the Gauss hypergeometric series.

Everything here is a pure function of its arguments.  One routine,
`_series_sum`, sums the defining power series

    F(a, b; c; x) = sum_n (a)_n (b)_n / ((c)_n n!) x^n,    0 <= x < 1,

term by term in Python floats, added by math.fsum, with a rigorous
geometric tail bound for stopping and at most _TERM_CAP = 2^16 terms, and
reports sum |t_n| beside the sum.  One judge, `_two_terms`, accepts a
value summed from signed parts only where their rounding, magnified by
the cancellation, stays within the relative tolerance.  The routes, the
connection formula near x = 1 (DLMF 15.8.4, in divided differences of
s - round(s), s = c - a - b, where s is an integer or the plain formula
cancels), also in the variable w = 4x/(1+x)^2 of Kummer's quadratic
transformation for c = |a - b| + 1 (the bounds' family
F(-alpha/2, -alpha/2; 1; r^2)), the Euler transform and the raw series,
are described at `hyp2f1_detailed`; no continuation beyond [0, 1) is
attempted.  A caller that knows 1 - x more exactly than 1.0 - x passes it
to `_hyp` (`bounds.schwarz_bound` and `quadrature.modulus_power_integral`
do).  The other series the library sums are here too: M's factor
(`_m_series`), in its caller's exact 1 - x, from a positive series or a
difference quotient whose terms do not cancel.  The solver's seed
(`_mode_seed`) sums no series: a k-term closed form or the incomplete-beta
continued fraction (DLMF 8.17.22), in Python floats.

This module is also the library's one argument gate: `_real`, `_count`,
`_positive_real`, `_complex`, `alpha_value` and `disk_point_value` turn a
public argument into a float, int or complex, or raise DomainError naming it.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

__all__ = [
    "Hyp2F1Result",
    "beta",
    "hyp2f1",
    "hyp2f1_detailed",
    "c_alpha",
]

# c values this close to {0, -1, -2, ...} are rejected: the series
# denominators (c)_n are not usable in float arithmetic near a pole.
_BAD_C_TOL = 1e-12

# The longest run of terms between two tail tests of `_series_sum`: a
# prediction can be up to 4e7 times too long, and such a series would
# otherwise sum to the term cap before its first test.
_CHUNK = 4096

# Every series the library's bounds and identities sum takes at most 4,096
# terms over the CLI's domain (alpha to 1000, r to 1 - 1e-12).  The cap, 16
# times that, holds the raw and Euler series left near x = 1 where the
# connection formula gives way to about 10 ms (2-core Xeon); longer ones
# raise ConvergenceError, as their term recurrence drifts with n.
_TERM_CAP = 2 ** 16
# Relative tolerance of every hypergeometric value returned.
_REL_TOL = 1e-13

_EPS = 2.0 ** -52
# Every series of `_series_sum`, and `_connection`'s divided-difference
# series, stop once their tail is at most _TAIL_TOL * |sum|: far enough
# below an ulp that truncation adds no error beside the rounding of terms.
_TAIL_TOL = 2.0 ** -56
_LOG_TAIL_TOL = math.log(_TAIL_TOL)
# Rounding of a judged value per unit of its spread (gamma factors, y**s,
# each term summed), in units of _EPS; cancellation multiplies it.
_CONNECTION_ULPS = 16.0
# `_mode_seed` takes seeds A_K with K (1 - x) at most this from their
# K-term closed form, where x^(-K) is at most 2, whatever their median; the
# others from that closed form at or above the median of Beta(K, alpha + 1)
# and from its continued fraction below it: no series either way.
_SEED_SWITCH = 0.5
_LOG_HALF = -math.log(2.0)
# `_log_scaled_sum` rescales its sum by 2^-_SUM_SHIFT at 2^_SUM_SHIFT: a
# step's factor (b + j - 1) x / j would have to pass 2^124 to overflow it.
_SUM_SHIFT = 900
_SUM_BIG = 2.0 ** _SUM_SHIFT
_SUM_SMALL = 2.0 ** -_SUM_SHIFT
# The least normal float: `_mode_seed`'s underflow threshold for y^b, and
# the value its Lentz iteration puts in place of a zero denominator.
_NORMAL_MIN = 2.0 ** -1022
# Bernoulli terms B_2k / (2k) of Stirling's series, k = 1..7: the digamma's
# coefficients, and ln Gamma's once divided by 2k - 1 (`_lgamma_slope`); at
# z >= 10 the first term left out, B_16 / (16 z^16), is below 5e-17.
_PSI_SHIFT = 10.0
_PSI_COEFFS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
               -691.0 / 32760.0, 1.0 / 12.0)
# zeta(2), ..., zeta(18)
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
         1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
         1.000003817293265)
# Taylor coefficients of ln g(s) = ln(sqrt(pi) G(1+s) / G(s+1/2)) at s = 0, k = 1..18:
# 2 ln 2, then (-1)^(k+1) zeta(k) (2^k - 2) / k.  The series converges for
# |s| < 1/2 by factors of about 2s; at s <= _LOG_G_S the first term left out
# is below 5e-18 of the sum.
_LOG_G = (2.0 * math.log(2.0),) + tuple((-1) ** (k + 1) * z * (2 ** k - 2) / k
                                         for k, z in enumerate(_ZETA, 2))
_LOG_G_S = 1.0 / 16.0


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


def _count(name: str, value, least: int) -> int:
    """value as an int, or DomainError naming it unless it is an integer
    (bools excluded) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _positive_real(name: str, value) -> float:
    """value as a float, or DomainError naming it unless it is finite and > 0."""
    v = value if type(value) is float else _real(name, value)
    if not 0.0 < v < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {v!r}")
    return v


def _complex(name: str, value) -> complex:
    """value as a complex, or DomainError naming it if it is not a number;
    bools are not."""
    if type(value) is not complex and (not isinstance(value, numbers.Complex)
                                       or isinstance(value, bool)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return complex(value)


def disk_point_value(z) -> complex:
    """z as a complex number, validated: a number (bools excluded) strictly
    inside the unit disk."""
    zc = _complex("z", z)
    if not zc.real * zc.real + zc.imag * zc.imag < 1.0:
        raise DomainError(f"z must lie inside the unit disk, got {zc!r}")
    return zc


def _validate_params(params) -> tuple[float, float, float]:
    """params (a, b, c) as floats: all finite, c not near a non-positive integer."""
    try:
        a, b, c = params
    except (TypeError, ValueError):
        raise DomainError(f"params must be three numbers (a, b, c), got {params!r}") from None
    if not (type(a) is float and type(b) is float and type(c) is float):
        a, b, c = _real("a", a), _real("b", b), _real("c", c)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"params must be finite, got a={a!r}, b={b!r}, c={c!r}")
    if c <= 0.5:
        k = round(c)
        if k <= 0 and abs(c - k) <= _BAD_C_TOL:
            raise DomainError(f"c must not lie within {_BAD_C_TOL} of a non-positive "
                              f"integer, got {c!r}")
    return a, b, c


def alpha_value(alpha) -> float:
    """Alpha as a float, validated: finite and > -1."""
    v = alpha if type(alpha) is float else _real("alpha", alpha)
    if not -1.0 < v < math.inf:
        raise DomainError(f"alpha must be finite and > -1, got {v!r}")
    return v


class Hyp2F1Result(NamedTuple):
    """One hypergeometric value, the series terms summed for it and its
    route: an immutable named tuple, as every per-call result is."""

    value: float
    terms_used: int
    transform: str  # "none", "euler", "connection" or "quadratic"


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for positive finite arguments, from math.gamma
    while x + y <= 170 keeps every factor in range, else from lgamma.

    Gamma is taken at s = fl(x + y); where that sum rounds, by
    d = x + y - s (`_round_off`), the result is multiplied by 1 - psi(s) d,
    the first order of Gamma(s) / Gamma(s + d).
    """
    if not (type(x) is float and type(y) is float
            and 0.0 < x < math.inf and 0.0 < y < math.inf):
        x, y = _positive_real("x", x), _positive_real("y", y)
    s = x + y
    if s <= 170.0:  # dividing first, tiny x and y cannot overflow a product
        value = math.gamma(x) / math.gamma(s) * math.gamma(y)
    else:
        value = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(s))
    d = _round_off(x, y)
    if d:
        value *= 1.0 - _lgamma_slope(s) * d
    return value


def _round_off(p: float, q: float) -> float:
    """p + q - fl(p + q), exactly (TwoSum)."""
    t = p + q
    q_part = t - p
    return (p - (t - q_part)) + (q - q_part)


def _lgamma_slope(z: float, e: float = 0.0) -> float:
    """[ln|G(z + e)| - ln|G(z)|] / e, psi(z) at e = 0; z and z + e not poles,
    e >= -1/2, and e <= 1/2 below z = 1/2.  There by reflection: the slope
    at 1 - z and -e less [ln|sin pi(z + e)| - ln|sin pi z|] / e, as log1p of
    cot(pi z) sin(pi e) - 2 sin(pi e/2)^2, or next to a pole of G(z + e) as
    the log of the sines at the exact z + e - round(z + e).  From 1/2 up,
    ln G(z) = ln G(z + 1) - ln z lifts z to _PSI_SHIFT, the factors (z + e)/z
    carried as one running (product - 1)/e, so nothing cancels as e -> 0;
    there Stirling's series, sum_k B_2k / (2k (2k-1) z^(2k-1)) through k = 7,
    is differenced term by term: [q^j - p^j]/e = -p q sum_i q^i p^(j-1-i),
    p = 1/z, q = 1/(z + e).  Against 40-digit mpmath: a few ulps of |psi| + 1,
    and within 1e-14 of max(1, |slope|) for |e| <= 1/2 away from the poles.
    """
    if z < 0.5:
        f = z - round(z)
        if not e:
            return _lgamma_slope(1.0 - z) - math.pi / math.tan(math.pi * f)
        t = math.sin(math.pi * e) / math.tan(math.pi * f) - 2.0 * math.sin(0.5 * math.pi * e) ** 2
        if t < -0.5:  # sin pi(z + e) / sin pi z = 1 + t, small or negative
            u = z + e
            g = (u - round(u)) + _round_off(z, e)
            log_ratio = math.log(abs(math.sin(math.pi * g) / math.sin(math.pi * f)))
        else:
            log_ratio = math.log1p(t)
        return _lgamma_slope(1.0 - z, -e) - log_ratio / e
    shift = 0.0
    if z + e < 0.25:  # G(z + e) near its pole at 0: the first factor (z + e)/z apart
        shift = math.log((z + e) / z) / e
        z += 1.0
    r, top = 0.0, z
    while top < _PSI_SHIFT:  # two factors a step: (1 + e/z)(1 + e/(z+1)) - 1
        r += (1.0 + e * r) * (2.0 * top + 1.0 + e) / (top * (top + 1.0))
        top += 2.0
    p = 1.0 / top
    if not e:
        p2, series = p * p, 0.0
        for coeff in reversed(_PSI_COEFFS):
            series = (series + coeff) * p2
        return math.log(top) - 0.5 * p - series - r
    q = 1.0 / (top + e)
    h = q_power = 1.0
    series = _PSI_COEFFS[0]
    for k in range(2, 8):
        h = p * h + q_power * q
        q_power *= q * q
        h = p * h + q_power
        series += _PSI_COEFFS[k - 1] / (2 * k - 1) * h
    return ((top - 0.5) * math.log1p(e * p) / e + math.log(top + e) - 1.0 - p * q * series
            - shift - math.log1p(e * r) / e)


def _series_sum(a: float, b: float, c: float, x: float):
    """Sum the raw series; returns (value, terms_used, abs_sum).

    Stops once the tail, bounded by `_ratio_bound`, is provably at most
    _TAIL_TOL = 2**-56 times |sum|, far below an ulp, whatever the caller:
    truncation adds no error beside the rounding of the terms.  The count
    of terms for that tail is predicted first (`_predicted_terms`), and the
    first run of terms is as long as predicted, so that one run usually
    ends the sum; each later run is as long as the tail bound asks.  No run
    is longer than _CHUNK terms, nor goes past the last term of a
    polynomial.  Every term is built in Python floats from the ratio
    x (m+a)(m+b) / ((m+c)(m+1)), and at the end of each run math.fsum adds
    the run's terms to the running sum, exactly rounded, as cancelling
    terms magnify every rounding; a second fsum adds their |t_n| to
    sum |t_n|.  A term past the float range leaves a non-finite sum, or
    math.fsum's OverflowError or ValueError, which the loop catches.

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
    positive = _positive(a, b, c)
    n_end = _TERM_CAP  # a polynomial's count of terms, its first zero term's index
    if a <= 0.0 and a == int(a) and a > -_TERM_CAP:
        n_end = int(-a) + 1
    if b <= 0.0 and b == int(b) and b > -n_end:
        n_end = int(-b) + 1
    log_x = math.log(x)
    predicted = _predicted_terms(a, b, c, x, log_x, n_burn, n_end)
    k = math.ceil(predicted)
    total = term = size = 1.0
    n = 0
    while True:
        k = min(k, _CHUNK, n_end - n)
        run = [total]
        m = float(n)  # a float index: float + float is the interpreter's fast path
        for _ in range(k):
            # grouped (.. + a) * (.. + b) first so that swapping a and b
            # reproduces the result bit for bit
            term *= (m + a) * (m + b) / ((m + c) * (m + 1.0)) * x
            run.append(term)
            m += 1.0
        try:
            total = math.fsum(run)
            if not positive:  # sum |t_n| likewise, the run after the sum so far
                run[0] = size
                size = math.fsum(map(abs, run))
        except (OverflowError, ValueError):  # inf - inf, or past the float range
            total = math.inf
        n += k
        if not math.isfinite(total):
            raise ConvergenceError(
                f"hypergeometric series leaves the float range (a={a}, b={b}, c={c}, "
                f"x={x})", partial=total, iterations=n)
        if term == 0.0:  # a Pochhammer factor hit zero: the series ends
            break
        # only a burn-in longer than a run leaves n below it
        q = _ratio_bound(n, x, a, b, c) if n >= n_burn else 1.0
        floor = _TAIL_TOL * max(abs(total), 1e-12)
        if q < 1.0 and abs(term) * q <= (1.0 - q) * floor:
            break
        if n >= _TERM_CAP:
            raise ConvergenceError(
                f"hypergeometric series did not converge within {_TERM_CAP} terms (a={a}, "
                f"b={b}, c={c}, x={x})", partial=total,
                error_estimate=abs(term) * x / max(1.0 - x, 1e-300), iterations=n)
        if q < 1.0:  # until |t_n| q^k q / (1 - q) <= floor
            k = int(math.log(floor * (1.0 - q) / (abs(term) * q)) / math.log(q)) + 1
        else:  # past the burn-in and where x ((m + max(a, b)) / (m + min(c, 1)))^2,
            # which bounds q, falls below 1, then a predicted run
            root_x = math.sqrt(x)
            past = max((max(a, b) * root_x - min(c, 1.0)) / (1.0 - root_x), n_burn)
            k = int(past - n + predicted) + 1
    return total, n, total if positive else size


def _predicted_terms(a: float, b: float, c: float, x: float, log_x: float,
                     n_burn: int, n_end: int) -> float:
    """How many terms `_series_sum` predicts for a tail of _TAIL_TOL |sum|,
    with log_tol = log(_TAIL_TOL).

    Past the burn-in t_n ~ C n^e x^n, C = G(c) / (G(a) G(b)),
    e = a + b - c - 1 (DLMF 5.11.12).  For e > 0 the sum grows like
    C G(e+1) (1 - x)^-(e+1) and the tail like t_n / (1 - x): log_tol / log(x)
    terms, plus e log(n (1 - x)) / -log(x) more (leaving G(e+1) out errs
    long, which costs less than a second run).  For e < -1 the sum stays
    of order one while C n^e cuts the terms short: n solves
    n log(x) + e log(n) = log_tol + log(1 - x) - log(C), iterated twice from
    n = log_tol / log(x), above the root, to below and then above it.
    Never fewer than n_burn; C is not formed for a polynomial (n_end
    terms, capped by the caller) nor beyond the term cap.
    """
    n = _LOG_TAIL_TOL / log_x
    e = a + b - c - 1.0
    if e > 0.0 and n * (1.0 - x) > 1.0:
        n -= e * math.log(n * (1.0 - x)) / log_x
    elif e < -1.0 and n_end == _TERM_CAP and n_burn < _TERM_CAP:
        rhs = _LOG_TAIL_TOL + math.log1p(-x) - math.lgamma(c) + math.lgamma(a) + math.lgamma(b)
        n = rhs / log_x
        for _ in range(2):
            n = (rhs - e * math.log(n if n > 1.0 else 1.0)) / log_x
    return n if n > n_burn else n_burn


def _positive(a: float, b: float, c: float) -> bool:
    """Whether no term of F(a, b; c; x) is negative: c > 0 and a, b > 0 or a = b."""
    return c > 0.0 and (a == b or (a > 0.0 and b > 0.0))


def _ratio_bound(n: float, x: float, a: float, b: float, c: float) -> float:
    """q(n), a bound on every term ratio x (m+a)(m+b) / ((m+c)(m+1)) from
    m = n on, past the burn-in where all four factors are positive.  Each
    quotient (m+p) / (m+r) tends to 1 monotonically, from above where
    p > r, so it is at most max(n+p, n+r) / (n+r); q is x times the smaller
    product of two such bounds, pairing a with c or with 1.  It decreases
    to x, so a geometric tail test |t_n| q / (1 - q) <= tol always ends for
    x < 1."""
    na, nb, nc, n1 = n + a, n + b, n + c, n + 1.0
    ac_b1 = (na if na > nc else nc) * (nb if nb > n1 else n1)
    a1_bc = (na if na > n1 else n1) * (nb if nb > nc else nc)
    return x * (ac_b1 if ac_b1 < a1_bc else a1_bc) / (nc * n1)


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
    Not above: `_connection`'s plain 15.8.4 corrects c - a and c - b there
    but not s, and the mismatch costs more than it saves (3,000 draws, a, b
    in [-100, 100]: 10 connection values beyond 1e-13 against 4)."""
    if z <= 0.0 and z == int(z):
        return 0.0
    if z < 0.5 and dz:
        return (1.0 - _lgamma_slope(z) * dz) / math.gamma(z)
    return 1.0 / math.gamma(z)


def _m_series(a: float, x: float, y: float) -> tuple[float, int]:
    """F(1/2, (1-a)/2; 3/2; x), y = 1 - x, for a > -1, and the terms summed
    for it: `bounds.m_bound`'s factor.

    Its own series alternates for a > 1 (b = (1-a)/2 < 0), by a factor that
    grows like (1+x)^(a/2), so it is never summed.  With s = (a+1)/2, for
    x <= 1/2 the Euler transform y^s F(1, s + 1/2; 3/2; x), of positive
    terms.  Above x = 1/2, the connection formula (DLMF 15.8.4), whose
    first series F(1/2, 1-s; 1-s; y) is x^(-1/2) and whose gamma ratios
    reduce to B(s, 1/2)/2 and -1/(2s):

        F = [g(s) / sqrt(x) - y^s F(1, s + 1/2; s + 1; y)] / (2s),
        g(s) = sqrt(pi) G(1+s) / G(s+1/2) = s B(s, 1/2).

    Its two terms both grow like 1/(2s) as s -> 0, where g(0) = 1 and the
    series is (1 - y)^(-1/2): so it is summed as the difference quotient

        F = [(g(s) - 1) / (s sqrt(x)) - sum_n e_n] / 2,
        e_n = y^n [y^s (s+1/2)_n / (s+1)_n - (1/2)_n / n!] / s,

    with no pole at s = 0.  (g(s) - 1)/s is expm1(ln g(s))/s, ln g from its
    Taylor series (`_LOG_G`) for s <= _LOG_G_S, else B(s, 1/2) - 1/s, where
    1/s is at most 15 times the difference.  e_0 = expm1(s ln y)/s, and
    with u_n = (1/2)_n y^n / n!,

        e_{n+1} = y [(s + 1/2 + n) e_n + u_n / (2(n + 1))] / (s + 1 + n),

    whose rounding errors shrink by a factor y a step.  e_n / u_n rises
    from e_0 to (g(s) y^s - 1)/s, below 0 where y < 1/4 (g(s) <= 4^s):
    there every e_n is negative and the two parts of the quotient add.  So
    |e_n| <= E u_n, E the larger magnitude of the two ends, and the sum
    stops once E u_n y / (1 - y), which bounds the rest, is at most
    _TAIL_TOL of 2F.
    """
    s = (a + 1.0) / 2.0
    if not x > 0.5:
        f, terms, _ = _series_sum(1.0, s + 0.5, 1.5, x)
        return y ** s * f, terms
    if s <= _LOG_G_S:
        p = 0.0
        for coeff in reversed(_LOG_G):
            p = p * s + coeff
        dg = math.expm1(s * p) / s  # (g(s) - 1) / s
    else:
        dg = beta(s, 0.5) - 1.0 / s
    lead = dg / math.sqrt(x)
    e = total = math.expm1(s * math.log(y)) / s
    # e_n / u_n rises from e_0 to (g(s) y^s - 1) / s
    bound = max(-e, e + dg * (1.0 + s * e))
    tol = _TAIL_TOL * (1.0 - y) / y
    u = 1.0
    n = 0.0
    while bound * u > tol * (lead - total):
        e = y * ((s + 0.5 + n) * e + u / (2.0 * (n + 1.0))) / (s + 1.0 + n)
        u *= y * (n + 0.5) / (n + 1.0)
        n += 1.0
        total += e
    return (lead - total) / 2.0, int(n) + 1


def _log_scaled_sum(b: float, k: int, x: float) -> float:
    """ln(1 + sum_{j=1}^{k-1} (b)_j x^j / j!) where the sum leaves the float
    range: the term and the running sum are multiplied by 2^-_SUM_SHIFT,
    exactly, whenever the sum passes 2^_SUM_SHIFT."""
    term = partial = 1.0
    shifts = 0
    for j in range(1, k):
        term *= (b + (j - 1)) / j * x
        partial += term
        if partial > _SUM_BIG:
            term *= _SUM_SMALL
            partial *= _SUM_SMALL
            shifts += 1
    return math.log(partial) + shifts * _SUM_SHIFT * math.log(2.0)


def _mode_seed(a: float, k: int, x: float, y: float, scale_k: float) -> float:
    """`kernel._spectral`'s seed A_k = scale_k F(-a, k; k+1; x), y = 1 - x,
    scale_k = (a+1)_k / k!, from no series.

    With b = a + 1, F(-a, k; k+1; x) = k x^(-k) B_x(k, b) (DLMF 8.17.7), so
    A_k = x^(-k) I_x(k, b).  Two routes, chosen by the closed form's L:

    - k being an integer, I_{1-x}(b, k) = 1 - I_x(k, b) = e^L with
      L = b ln y + log1p(sum_{j=1}^{k-1} (b)_j x^j / j!), k positive terms,
      and A_k = -expm1(L) x^(-k).  Taken where e^L <= 1/2 (x at or above
      the median of Beta(k, b)) or k y <= _SEED_SWITCH, where it does not
      cancel.
    - Below the median, the continued fraction of DLMF 8.17.22,
          A_k = scale_k y^b / (1 + d_1 / (1 + d_2 / (1 + ...))),
          d_{2m+1} = -(k+m)(k+b+m) x / ((k+2m)(k+2m+1)),
          d_{2m} = m(b-m) x / ((k+2m-1)(k+2m)),
      by the modified Lentz method (Thompson and Barnett, J. Comput. Phys.
      64, 1986): a step takes d_{2m} and d_{2m+1}, and the fraction stops
      once a step changes it by a factor within _EPS of 1.  It needs
      O(sqrt(k)) steps there, at most about 14 sqrt(k) measured for a in
      (-1, 1000] (24 at k = 3, 91 at k = 65); past 16 sqrt(k) + 16 it
      raises ConvergenceError.  A Lentz denominator that is exactly 0 is
      replaced by _NORMAL_MIN, whose reciprocal is finite.  y^b below the
      normal range (k in the hundreds and a large) raises too.

    Against 40-digit mpmath with the exact (b)_k / k!, over 3,000 draws
    with a in (-1, 1000] on a log scale and k <= 64: the closed form at
    most 8e-15 relative, the fraction 2.4e-14, where it takes 50-80 steps.
    Where the closed form's partial sum overflows (k and a both in the
    hundreds), L is formed again from the sum rescaled (`_log_scaled_sum`):
    1.9e-14 at k = 1025, a in (300, 1000].  A value past the float range
    is returned as inf, for the caller's overflow check.
    """
    b = a + 1.0
    term = partial = 0.0 if k == 1 else b * x
    for j in range(2, k):
        term *= (b + (j - 1)) / j * x
        partial += term
    log_tail = b * math.log(y) + math.log1p(partial)
    if log_tail == math.inf:  # the partial sum left the float range
        log_tail = b * math.log(y) + _log_scaled_sum(b, k, x)
    if log_tail <= _LOG_HALF or k * y <= _SEED_SWITCH:
        try:
            return -math.expm1(log_tail) * x ** -k
        except OverflowError:  # x^(-k) past the float range
            return math.inf
    yb = y ** b
    if yb < _NORMAL_MIN:
        raise ConvergenceError(f"spectral seed (1-|z|^2)^(alpha+1) = {y!r}^{b!r} underflows")
    kb = k + b
    c = 1.0
    d = 1.0 / (1.0 - kb * x / (k + 1.0) or _NORMAL_MIN)
    fraction = d
    steps = int(16.0 * math.sqrt(k)) + 16
    for m in range(1, steps + 1):
        j = k + 2 * m
        num = m * (b - m) * x / ((j - 1) * j)
        d = 1.0 / (1.0 + num * d or _NORMAL_MIN)
        c = 1.0 + num / c or _NORMAL_MIN
        fraction *= d * c
        num = -(k + m) * (kb + m) * x / (j * (j + 1))
        d = 1.0 / (1.0 + num * d or _NORMAL_MIN)
        c = 1.0 + num / c or _NORMAL_MIN
        step = d * c
        fraction *= step
        if abs(step - 1.0) <= _EPS:
            return scale_k * yb * fraction
    raise ConvergenceError(f"spectral seed's continued fraction did not converge within "
                           f"{steps} steps (alpha={a!r}, k={k}, x={x!r})",
                           partial=scale_k * yb * fraction, iterations=steps)


def _connection(a: float, b: float, c: float, y: float):
    """F(a, b; c; 1 - y) by the connection formula, DLMF 15.8.4, for every
    s = c - a - b; None where a gamma factor overflows or `_two_terms`
    rejects the sum.  With s not an integer, first as it stands:

        F = G(c)G(s)/(G(c-a)G(c-b)) F(a, b; 1-s; y)
            + y^s G(c)G(-s)/(G(a)G(b)) F(c-a, c-b; 1+s; y),

    c - a and c - b rebuilt from s, so that the terms' poles at integer s
    cancel for the rounded s too, the rebuild's error counted near the
    poles of 1/G (`_rgamma`); spread |g1| sum|t1_n| + |g2| sum|t2_n|.  At an
    integer s, or where that sum is rejected (its terms cancel like 1/eps),
    at s = m + eps, m = round(s), in divided differences of eps (R. C.
    Forrey, J. Comput. Phys. 137, 1997; N. Michel and M. V. Stoitsov,
    Comput. Phys. Commun. 178, 2008), after the Euler transform for m < 0:

        F = G(c)G(s)/(G(a+s)G(b+s)) sum_{n<m} (a)_n (b)_n / (n! (1-s)_n) y^n
            + (-1)^m G(c)G(1+eps) y^m / (G(a)G(b) m!) sum_k (v_k - y^eps u_k)/eps,

    v_k, u_k the first series' rest and the second, both (a+m)_k (b+m)_k y^k
    / ((m+1)_k k!) at eps = 0 (DLMF 15.8.10).  With D(z) = [ln G(z+eps) -
    ln G(z)]/eps (`_lgamma_slope`), W_0 = [e^(eps X) - e^(eps Z)]/eps by expm1,
    X = -D(a+m) - D(b+m), Z = ln y - D(m+1) - D(1) at -eps; W_(k+1) =
    rho_v W_k + y^eps u_k d_k, A = a+m+k, B = b+m+k, with no logarithm and
    nothing cancelling as eps -> 0:

        d_k = (rho_v - rho_u)/eps = y [(b-1) A (k+1) + (a+m-1) B (k+m+1)
              + eps (k+m+1)(A + B - k - 1 + eps)] / ((k+1)(k+1-eps)(k+m+1)(k+m+1+eps)).

    The spread counts each part of X, Z and d_k, carried by the recurrence.
    Both ratios are F(a+m+eps, b+m+eps; m+1+eps; y)'s, at k and k - eps: past
    the burn-in at most q = `_ratio_bound`(k - |eps|, ...), with |d_j| <= q D,
    D = 2/(k - |eps| + min(a+m+eps, b+m+eps, m+1+eps, 1)), for j >= k; the
    series stops once q/(1-q) (|W_k| + D |y^eps u_k|/(1-q)) is _TAIL_TOL of it.
    """
    try:
        gc = math.gamma(c)
    except OverflowError:
        return None
    if abs(gc) < _NORMAL_MIN:  # subnormal: its last digits are gone
        return None
    s = c - a - b
    m = round(s)
    if s != m:
        ca, cb = b + s, a + s
        ds = _round_off(c, -a) + _round_off(c - a, -b)  # c - a - b - s
        try:
            g1 = (gc * math.gamma(s) * _rgamma(ca, ds + _round_off(b, s))
                  * _rgamma(cb, ds + _round_off(a, s)))
            g2 = gc * math.gamma(-s) * _rgamma(a) * _rgamma(b) * y ** s
            f1, n1, s1 = _series_sum(a, b, 1.0 - s, y)
            f2, n2, s2 = _series_sum(ca, cb, 1.0 + s, y)
            value = _two_terms(g1 * f1, g2 * f2, abs(g1) * s1 + abs(g2) * s2)
            if value is not None:
                return Hyp2F1Result(value, n1 + n2, "connection")
        except (OverflowError, ZeroDivisionError, ConvergenceError):
            pass
    euler = m < 0
    if euler:  # y^s F(c-a, c-b; c; 1-y)
        a, b = c - b, c - a
        if _terminates(a, b):
            return None
        s, m = c - a - b, -m
    e = (s - m) + _round_off(c, -a) + _round_off(c - a, -b)  # of the exact c - a - b
    s = m + e
    am, bm, m1 = a + m, b + m, m + 1.0
    try:
        g1 = (gc * math.gamma(s) * _rgamma(am + e, _round_off(am, e))
              * _rgamma(bm + e, _round_off(bm, e)) if m else 0.0)
        # (-1)^m y^m, or with the Euler factor y^(-s), (-1)^m y^(-eps)
        g2 = ((-1.0) ** m * gc * _rgamma(a) * _rgamma(b) * math.gamma(1.0 + e) / math.gamma(m1)
              * y ** (-e if euler else m))
        if euler:
            g1 *= y ** -s
        d_a, d_b, d_m, d_1 = (_lgamma_slope(am, e), _lgamma_slope(bm, e), _lgamma_slope(m1, e),
                              _lgamma_slope(1.0, -e))
        ly = math.log(y)
        x_part, z_part = -d_a - d_b, ly - d_m - d_1
        parts = abs(d_a) + abs(d_b) + abs(ly) + abs(d_m) + abs(d_1)
        ez = math.exp(e * z_part)  # y^eps u_0
        # v_0 = G(a+m)G(b+m)/(G(a+m+eps)G(b+m+eps)) < 0 where one ratio passes a pole
        if e and (am < 0.5 and math.floor(am) != math.floor(am + e)) != (
                bm < 0.5 and math.floor(bm) != math.floor(bm + e)):
            ex = -math.exp(e * x_part)
            w = (ex - ez) / e
        else:
            w = ez * (math.expm1(e * (x_part - z_part)) / e if e else x_part - z_part)
            ex = ez + e * w
    except (OverflowError, ZeroDivisionError, ValueError):
        return None

    term = 1.0
    finite = [1.0] if m else []
    for n in range(m - 1):
        term *= (n + a) * (n + b) / ((n + 1.0) * (n + 1.0 - s)) * y
        finite.append(term)

    total, u = w, ez
    size = spread = abs(w) + max(abs(ex), ez) * parts
    b1, a1 = b - 1.0, am - 1.0
    ae, be, me = am + e, bm + e, m1 + e
    low = min(ae, be, me, 1.0) - abs(e)
    cheap_tol = _TAIL_TOL * (1.0 - y) / y
    k = 0.0
    while True:
        p, q = k + 1.0, k + m1
        big_a, big_b = k + am, k + bm
        pe, qe = p - e, q + e
        ya, yb, ye = b1 * big_a * p, a1 * big_b * q, e * q * (big_a + big_b - pe)
        scale = y / (p * q * pe * qe)
        rho_v = big_a * big_b * p * qe * scale
        w = rho_v * w + u * (ya + yb + ye) * scale
        size = abs(rho_v) * size + abs(u) * (abs(ya) + abs(yb) + abs(ye)) * scale
        u *= (big_a + e) * (big_b + e) * q * pe * scale
        k += 1.0
        total += w
        spread += size
        if abs(w) <= cheap_tol * abs(total) and k + low > 0.0:
            ratio = _ratio_bound(k - abs(e), y, ae, be, me)
            if ratio < 1.0 and ratio / (1.0 - ratio) * (
                    abs(w) + 2.0 / (k + low) * abs(u) / (1.0 - ratio)) <= _TAIL_TOL * abs(total):
                break
        if k >= _TERM_CAP or not math.isfinite(spread):
            return None

    value = _two_terms(g1 * math.fsum(finite), g2 * total,
                       abs(g1) * math.fsum(map(abs, finite)) + abs(g2) * spread)
    return None if value is None else Hyp2F1Result(value, m + int(k) + 1, "connection")


def _quadratic(a: float, c: float, y: float):
    """F(a, b; c; 1 - y) for c = a - b + 1 (a the larger parameter) and
    x = 1 - y > 1/2, by Kummer's quadratic transformation (DLMF §15.8(iii)):

        F(a, b; a - b + 1; x) = (1 + x)^(-a) F(a/2, a/2 + 1/2; c; w),
        w = 4x / (1 + x)^2,   1 - w = (y / (1 + x))^2 <= 1/9,

    the right side by the connection formula in 1 - w (`_connection`).
    1 + x is taken as 2 - y, from the caller's y.  None where that
    connection gives way: the caller then takes its route in x, never the
    series in w, which converges like w^n with w near 1.
    """
    u = 2.0 - y
    res = _connection(a / 2.0, a / 2.0 + 0.5, c, (y / u) ** 2)
    if res is None:
        return None
    try:
        value = u ** -a * res.value
    except OverflowError:
        return None
    return Hyp2F1Result(value, res.terms_used, "quadratic") if math.isfinite(value) else None


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

    For 0.5 < x < 1 and c = |a - b| + 1 exactly, Kummer's quadratic
    transformation comes first, transform "quadratic" (`_quadratic`): the
    connection formula below, in 1 - w = ((1 - x)/(1 + x))^2 <= 1/9, of
    F(a'/2, a'/2 + 1/2; c; w) with a' the larger of a and b, times
    (1 + x)^(-a'); for the bounds' F(-alpha/2, -alpha/2; 1; x) at x > 1/2,
    4 to 36 terms with alpha <= 5, at most about 80 up to alpha = 60 and
    430 up to 340; near r = 1, where s' = (alpha + 1)/2 lies at or near an
    integer, at most 16 up to alpha = 11 (44 at 39).  Where it gives way,
    the route in x follows.  For other
    0.5 < x < 1 the connection formula in y = 1 - x (DLMF 15.8.4) is used,
    transform "connection": a few terms near x = 1, at most a few hundred
    near x = 1/2; at an integer s = c - a - b, or where its two terms cancel
    near one, in divided differences of s - round(s) (`_connection`).  It
    is skipped for a terminating series, where a gamma factor overflows and
    where `_two_terms` rejects it: the rounding of every term summed,
    magnified by the cancellation, would exceed 1e-13.  Those calls and all
    x <= 0.5 take the series route: the Euler transform
    F(a,b;c;x) = (1-x)^(c-a-b) F(c-a, c-b; c; x) wherever (c-a) + (c-b) <
    a + b (its coefficients decay faster), else the raw series, also where
    only the Euler series has negative terms (`_positive`): that sum is not
    judged, and it can cancel.  A terminating series (a or b a non-positive
    integer) is always summed raw, an exact polynomial that the transform
    would make cancellation-prone.  ConvergenceError is raised where
    `_two_terms` rejects the sum of a terminating series, raw or Euler
    (c - a or c - b a non-positive integer), and where the series route
    needs more than _TERM_CAP = 2^16 terms: a polynomial that long, or a
    series near x = 1 where the connection formula gives way.

    Both routes take y = 1.0 - x, exact for x >= 1/2: the value is F at
    the float x (`_hyp` takes a caller's own, more exact, 1 - x).
    """
    a, b, c = _validate_params(params)
    if type(x) is not float:
        x = _real("x", x)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x must lie in [0, 1), got {x!r}")
    return _hyp(min(a, b), max(a, b), c, x, 1.0 - x)


def _hyp(a: float, b: float, c: float, x: float, y: float) -> Hyp2F1Result:
    """`hyp2f1_detailed` for validated a <= b, c and 0 <= x < 1, with the
    caller's y = 1 - x, which it may know more exactly than 1.0 - x."""
    terminates = _terminates(a, b)
    if x > 0.5 and not terminates:
        # c = b - a + 1 exactly: the difference and the sum are not rounded
        if c - 1.0 == b - a and _round_off(b, -a) == 0.0 and _round_off(c, -1.0) == 0.0:
            res = _quadratic(b, c, y)
            if res is not None:
                return res
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
