"""Weighted Poisson kernel on the unit disk and its Dirichlet solver.

The weighted-harmonic extension of boundary data on the unit circle is
the convolution integral

    f(z) = (1/2pi) * integral of P(z e^{-i theta}) fstar(e^{i theta}) d theta,

with the kernel P(w) = (1-|w|^2)^(alpha+1) / ((1-w)(1-wbar)^(alpha+1)).
The real-exponent power of (1-wbar) uses the principal logarithm, which
is well defined on the disk because Re(1-wbar) > 0 there.

Boundary data is a finite Fourier series (trig polynomial) stored with its
sup-norm, the one derived quantity every bound is stated against.  On any
equispaced grid, the one its sup-norm is taken over and every quadrature
level alike, its values come from one inverse FFT of the coefficients
(`BoundaryData._on_grid`); `evaluate` sums the series at arbitrary angles.
For such data the integral has a closed form mode by mode, and that is
the production route of `solve_dirichlet`, `derivative_pair` and
`alpha_laplacian_residual`: with x = |z|^2,

    e^{ik theta}  ->  z^k                                   (k >= 0),
    e^{-ik theta} ->  A_k(x) zbar^k,
    A_k(x) = ((alpha+1)_k / k!) F(-alpha, k; k+1; x)        (k >= 1).

All A_k come from one seed A_{d+1} (`specfun._mode_seed`: no series, but
a closed form of d + 1 positive terms or, below the median of
Beta(d + 1, alpha + 1), the incomplete-beta continued fraction) and
the downward recurrence
A_k = x A_{k+1} + ((alpha+1)_k / k!) (1-x)^(alpha+1), whose two terms are
positive, so no F is ever summed as a cancelling series (at integer alpha
F(-alpha, k; k+1; x) is an alternating polynomial).  Their derivatives
need no second family: x F_k' = k((1-x)^alpha - F_k), and by the same
recurrence A_k' = k(((alpha+1)_k / k!) (1-x)^alpha - A_{k+1}).  The two
together give x A_k' + k A_k = k ((alpha+1)_k / k!) (1-x)^alpha, so
(1-|z|^2)^(-alpha) f_zbar is the polynomial
sum_k k ((alpha+1)_k / k!) c_{-k} zbar^(k-1) in zbar alone, as the weighted
Laplace equation requires.  f_zbar is summed in that form, because the mode
form's two sums cancel at large alpha (1.6e-10 of 1 + |f_zbar| lost at
alpha = 707, |z| = 0.25).

One pass of that recurrence (`_spectral`) yields the value and both
Wirtinger derivatives together, the three mode sums taken by Horner's
rule in zbar as k runs down, and its last result is kept
(`_memo.LastCall`), so
`solve_dirichlet` followed by `derivative_pair` at one point, for one
alpha and one set of coefficients, sums the modes once.

The kernel integral itself is evaluated only inside `verify`, whose
DIRICHLET_SPECTRAL check integrates the rows of `_kernel_rows` by
quadrature as the independent route beside the mode sums.
"""

from __future__ import annotations

import cmath
import math
import struct
from typing import NamedTuple

import numpy as np

from ._memo import LastCall
from .errors import ConvergenceError, DomainError
from .specfun import (_complex, _count, _is_real, _mode_seed, _one_minus_abs2,
                      _positive_real, alpha_value, disk_point_value)

_LAST_SPECTRAL = LastCall()
_POINT_BITS = struct.Struct("3d").pack

__all__ = [
    "BoundaryData",
    "DerivativePair",
    "disk_point_value",
    "poisson_kernel",
    "solve_dirichlet",
    "derivative_pair",
    "alpha_laplacian_residual",
]


class BoundaryData:
    """Trig-polynomial boundary data and its sup-norm.

    ``coefficients`` holds the 2d+1 finite Fourier coefficients for
    frequencies -d..d, copied from the argument and read-only.
    ``sup_norm`` is the maximum modulus over an equispaced grid whose
    power-of-two size is at least 4d+4, sampled by one inverse FFT
    (`_on_grid`) when the data is built; the samples are not kept.  No
    attribute can be rebound, so ``sup_norm`` always describes
    ``coefficients``.
    """

    __slots__ = ("coefficients", "degree", "sup_norm")

    def __init__(self, coefficients):
        try:
            given = np.asarray(coefficients)
        except ValueError:  # ragged nesting
            given = None
        if given is None or given.ndim != 1 or given.size % 2 != 1:
            raise DomainError("coefficients must be a 1-D array of odd length (indices -d..d)")
        if given.dtype.kind not in "iufc":  # no strings or bools read as numbers
            raise DomainError(f"coefficients must be numbers, got dtype {given.dtype.name}")
        self._set(np.array(given, dtype=complex), None)

    def _set(self, coeffs: np.ndarray, sup_norm: float | None) -> None:
        """Store coefficients and sup_norm (sampled when None), with checks."""
        if not np.isfinite(coeffs).all():
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "degree", coeffs.size // 2)
        if sup_norm is None:
            # finite coefficients can still sum past the float range
            with np.errstate(over="ignore", invalid="ignore"):
                sup_norm = float(np.abs(self._on_grid(self._grid_size(self.degree), 0.0)).max())
        if not math.isfinite(sup_norm):
            raise DomainError("boundary values overflow the float range")
        object.__setattr__(self, "sup_norm", sup_norm)
        coeffs.flags.writeable = False

    def _frozen(self, name, *value):
        raise AttributeError(f"BoundaryData is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __getstate__(self):  # copy and pickle, whose default sets the slots
        return self.coefficients, self.sup_norm

    def __setstate__(self, state):
        self._set(*state)

    @staticmethod
    def _grid_size(degree: int) -> int:
        need = max(4 * degree + 4, 4)
        return 1 << (need - 1).bit_length()

    def _on_grid(self, n: int, shift: float) -> np.ndarray:
        """Values at theta_j = shift + 2pi j / n, j = 0..n-1.

        Coefficient c_k, times the phase e^{i k shift}, goes to bin k mod n,
        and one unnormalised inverse FFT sums the bins.  Above n = 2d the
        bins are distinct, two slices; below, frequencies that alias onto
        one bin add up there, so every n is exact.
        """
        d = self.degree
        c = self.coefficients
        if shift:
            c = c * np.exp((1j * shift) * np.arange(-d, d + 1))
        bins = np.zeros(n, dtype=complex)
        if n > 2 * d:
            bins[:d + 1] = c[d:]
            bins[n - d:] = c[:d]
        else:
            np.add.at(bins, np.arange(-d, d + 1) % n, c)
        return np.fft.ifft(bins, norm="forward")

    def evaluate(self, theta):
        """Value of the trig polynomial at angle(s) theta."""
        th = np.asarray(theta, dtype=float)
        e = np.exp(1j * np.atleast_1d(th))
        d = self.degree
        out = np.full(e.shape, self.coefficients[d], dtype=complex)
        power = np.ones_like(e)
        for k in range(1, d + 1):
            power = power * e
            out += self.coefficients[d + k] * power
            out += self.coefficients[d - k] * np.conj(power)
        return complex(out[0]) if th.ndim == 0 else out

    def scaled(self, factor: complex) -> "BoundaryData":
        """Boundary data factor * f, with sup-norm |factor| times this one's:
        no second sampling."""
        factor = _complex("factor", factor)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = self.coefficients * factor
        out = object.__new__(BoundaryData)
        out._set(coeffs, abs(factor) * self.sup_norm)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoundaryData":
        if not isinstance(data, dict):
            raise DomainError("boundary data must be a JSON object")
        d = _count("degree", data["degree"], 0)
        pairs = data["coefficients"]
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2 and all(map(_is_real, p)) for p in pairs)):
            raise DomainError("coefficients must be a list of [re, im] number pairs")
        if len(pairs) != 2 * d + 1:
            raise DomainError(f"expected {2 * d + 1} coefficients for degree {d}, got {len(pairs)}")
        try:
            coeffs = np.array([complex(p[0], p[1]) for p in pairs])
        except OverflowError:  # a JSON integer beyond the float range
            raise DomainError("coefficients must be finite") from None
        return cls(coeffs)


class _DerivativeFields(NamedTuple):
    d_z: complex
    d_zbar: complex
    norm: float


class DerivativePair(_DerivativeFields):
    """Wirtinger derivatives of a solution at a point, plus their norm sum
    |d_z| + |d_zbar|, derived when the pair is built: an immutable named
    tuple, as every per-call result is."""

    __slots__ = ()

    def __new__(cls, d_z, d_zbar):
        return tuple.__new__(cls, (d_z, d_zbar, abs(d_z) + abs(d_zbar)))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self[:2]

    def _replace(self, **changes):
        """A copy with d_z or d_zbar changed and its norm derived again."""
        return DerivativePair(**{"d_z": self.d_z, "d_zbar": self.d_zbar, **changes})


def poisson_kernel(alpha, z) -> complex:
    """Weighted Poisson kernel at z, principal branch for the real power:
    the first row of `_kernel_rows` at theta = 0."""
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    return complex(_kernel_rows(a, zc, np.zeros(1))[0][0])


def _kernel_rows(a: float, zc: complex, theta: np.ndarray) -> np.ndarray:
    """(P, dP/dz, dP/dzbar) at xi = z e^{-i theta}, all from one
    evaluation of the kernel, as the rows of one new (3, n) array."""
    one_minus_r2 = _one_minus_abs2(zc)
    emith = np.exp(-1j * theta)
    xi = zc * emith
    one_minus_xi = 1.0 - xi
    rows = np.empty((3,) + theta.shape, dtype=complex)
    kern = rows[0]
    np.divide(one_minus_r2 ** (a + 1.0), one_minus_xi * (1.0 - np.conj(xi)) ** (a + 1.0),
              out=kern)
    # conj(q) = e^{i theta} / (1 - xibar), the d/dzbar factor
    q = emith / one_minus_xi
    np.multiply(kern, q - (a + 1.0) * zc.conjugate() / one_minus_r2, out=rows[1])
    np.multiply((a + 1.0) * kern, np.conj(q) - zc / one_minus_r2, out=rows[2])
    return rows


def _spectral(a: float, fstar: BoundaryData, zc: complex):
    """(f, f_z, f_zbar) of the extension at z, mode by mode.

    With A_k and its x-derivative A_k' as in the module docstring, and
    dx/dz = zbar, dx/dzbar = z:
        f      = sum_k c_k z^k + sum_k c_{-k} A_k zbar^k,
        f_z    = sum_k k c_k z^(k-1) + zbar sum_k c_{-k} A_k' zbar^k,
        f_zbar = z sum_k c_{-k} A_k' zbar^k + sum_k c_{-k} k A_k zbar^(k-1)
               = (1-x)^alpha sum_k k ((alpha+1)_k / k!) c_{-k} zbar^(k-1).
    """
    c = fstar.coefficients.tolist()
    d = fstar.degree
    f = f_z = 0j
    for ck in reversed(c[d:]):
        f_z = f_z * zc + f
        f = f * zc + ck
    if d == 0:
        return f, f_z, 0j
    zb = zc.conjugate()
    x = zc.real * zc.real + zc.imag * zc.imag
    y = _one_minus_abs2(zc)
    ya = y ** a
    ya1 = ya * y
    scale = [1.0]  # (a+1)_k / k!
    for k in range(1, d + 2):
        scale.append(scale[-1] * (a + k) / k)
    big_a = _mode_seed(a, d + 1, x, y, scale[d + 1])
    # the three sums over k = d..1 by Horner in zbar, each one power short
    fb = g = h = 0j
    for k in range(d, 0, -1):
        ck = c[d - k]
        d_big_a = k * (scale[k] * ya - big_a)
        big_a = x * big_a + scale[k] * ya1
        fb = fb * zb + ck * big_a
        g = g * zb + ck * d_big_a
        h = h * zb + ck * (k * scale[k])
    out = (f + fb * zb, f_z + g * zb * zb, h * ya)
    if not all(map(cmath.isfinite, out)):
        raise ConvergenceError(f"spectral evaluation at z={zc!r} overflows for alpha={a!r}")
    return out


def _boundary(fstar) -> BoundaryData:
    """fstar, or DomainError unless it is BoundaryData: the type gate of
    every public function that takes boundary data."""
    if not isinstance(fstar, BoundaryData):
        raise DomainError(f"fstar must be BoundaryData, got {fstar!r}")
    return fstar


def _spectral_at(a: float, fstar: BoundaryData, zc: complex):
    """`_spectral`, or its last result if alpha, z and the coefficients
    are bit for bit those of the last call."""
    key = _POINT_BITS(a, zc.real, zc.imag) + fstar.coefficients.tobytes()
    return _LAST_SPECTRAL(key, _spectral, a, fstar, zc)


def solve_dirichlet(alpha, fstar: BoundaryData, z) -> complex:
    """Weighted-harmonic extension of fstar evaluated at z.

    Summed mode by mode (see the module docstring): one seed A_{d+1}, a
    closed form or a continued fraction, then the downward recurrence to
    A_1, shared with `derivative_pair` at the same point.  Raises
    ConvergenceError if the result leaves the float range, or if the
    seed's (1-|z|^2)^(alpha+1) underflows or its continued fraction
    exceeds its step bound (degree in the hundreds and large alpha).
    """
    return _spectral_at(alpha_value(alpha), _boundary(fstar), disk_point_value(z))[0]


def derivative_pair(alpha, fstar: BoundaryData, z) -> DerivativePair:
    """Wirtinger derivatives of the extension at z.

    Differentiates the mode sum of `solve_dirichlet` term by term, with
    A_k' = k(((alpha+1)_k / k!) (1-x)^alpha - A_{k+1}) from the same
    recurrence, so no further hypergeometric family is summed.
    """
    _, d_z, d_zbar = _spectral_at(alpha_value(alpha), _boundary(fstar), disk_point_value(z))
    return DerivativePair(d_z=d_z, d_zbar=d_zbar)


def alpha_laplacian_residual(alpha, fstar: BoundaryData, z, h: float) -> float:
    """Finite-difference magnitude of the weighted Laplacian at z.

    The inner factor (1-|w|^2)^(-alpha) f_zbar(w) comes from
    `derivative_pair`'s mode sum, which forms it as a polynomial in wbar
    (module docstring); the outer d/dz is a central difference with step h,
    so the residual decays like h^2, the difference's own truncation.
    Requires |z| + 2h < 1.
    """
    a = alpha_value(alpha)
    fstar = _boundary(fstar)
    zc = disk_point_value(z)
    h = _positive_real("h", h)
    if not abs(zc) + 2.0 * h < 1.0:
        raise DomainError(f"stencil around {zc!r} with step {h!r} leaves the unit disk")

    def g(w: complex) -> complex:
        return _one_minus_abs2(w) ** (-a) * _spectral(a, fstar, w)[2]

    gx = (g(zc + h) - g(zc - h)) / (2.0 * h)
    gy = (g(zc + 1j * h) - g(zc - 1j * h)) / (2.0 * h)
    return abs(0.5 * (gx - 1j * gy))
