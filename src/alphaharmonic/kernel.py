"""Weighted Poisson kernel on the unit disk and its Dirichlet solver.

The weighted-harmonic extension of boundary data on the unit circle is
the convolution integral

    f(z) = (1/2pi) * integral of P(z e^{-i theta}) fstar(e^{i theta}) d theta,

with the kernel P(w) = (1-|w|^2)^(alpha+1) / ((1-w)(1-wbar)^(alpha+1)).
The real-exponent power of (1-wbar) uses the principal logarithm, which
is well defined on the disk because Re(1-wbar) > 0 there.

Boundary data is a finite Fourier series (trig polynomial) stored with a
sample grid that keeps sup-norms computable.  On any equispaced grid, the
sample grid and every quadrature level alike, its values come from one
inverse FFT of the coefficients (`BoundaryData._on_grid`); `evaluate`
sums the series at arbitrary angles.  For such data the integral has a
closed form mode by mode, and that is the production route of
`solve_dirichlet`, `derivative_pair` and `alpha_laplacian_residual`: with
x = |z|^2,

    e^{ik theta}  ->  z^k                                   (k >= 0),
    e^{-ik theta} ->  A_k(x) zbar^k,
    A_k(x) = ((alpha+1)_k / k!) F(-alpha, k; k+1; x)        (k >= 1).

All A_k come from one seed A_{d+1} and the downward recurrence
A_k = x A_{k+1} + ((alpha+1)_k / k!) (1-x)^(alpha+1), whose two terms are
positive, so no F is ever summed as a cancelling series (at integer alpha
F(-alpha, k; k+1; x) is an alternating polynomial).  Their derivatives
need no second family: x F_k' = k((1-x)^alpha - F_k), and by the same
recurrence A_k' = k(((alpha+1)_k / k!) (1-x)^alpha - A_{k+1}).

The quadrature route (`dirichlet_quadrature`, `derivative_quadrature`)
integrates the kernel and its Wirtinger derivatives by node doubling; it
is kept as the independent cross-check that `verify` compares against.
Both are views of one private pass, `_kernel_pass`, which builds the
kernel and the boundary values once per level for every row it
integrates.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, QuadratureResult,
                         _node_level, integrate_periodic)
from .specfun import _series_sum, alpha_value, c_alpha

_EPS = float(np.finfo(float).eps)

# Seeds A_K with K (1 - x) at most this use the series in 1 - x, whose
# leading term x^(-K) is then cancelled by at most a factor e^0.5; larger
# K (1 - x) use the series in x, which needs O(1 / (1 - x)) terms.
_SEED_SWITCH = 0.5

__all__ = [
    "BoundaryData",
    "DerivativePair",
    "disk_point_value",
    "poisson_kernel",
    "real_kernel",
    "dirichlet_quadrature",
    "solve_dirichlet",
    "kernel_derivatives",
    "derivative_quadrature",
    "derivative_pair",
    "alpha_laplacian_residual",
]


def disk_point_value(z) -> complex:
    """z as a complex number, validated: strictly inside the unit disk."""
    zc = complex(z)
    if not zc.real * zc.real + zc.imag * zc.imag < 1.0:
        raise DomainError(f"point {zc!r} is not inside the unit disk")
    return zc


class BoundaryData:
    """Trig-polynomial boundary data with a sample grid.

    ``coefficients`` holds the 2d+1 finite Fourier coefficients for
    frequencies -d..d.  ``samples`` are the values on an equispaced grid
    whose power-of-two size is at least 4d+4, computed by one inverse FFT
    (`_on_grid`), and ``sup_norm`` is the maximum modulus over that grid.
    """

    __slots__ = ("coefficients", "degree", "samples", "sup_norm")

    def __init__(self, coefficients):
        coeffs = np.asarray(coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size % 2 != 1:
            raise DomainError("coefficients must be a 1-D array of odd length (indices -d..d)")
        self._set(coeffs, None)

    def _set(self, coeffs: np.ndarray, samples: np.ndarray | None) -> None:
        """Store coefficients and samples (computed when None), with checks."""
        if not np.isfinite(coeffs).all():
            raise DomainError("coefficients must be finite")
        self.coefficients = coeffs
        self.degree = coeffs.size // 2
        # finite coefficients can still sum past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            if samples is None:
                samples = self._on_grid(self._grid_size(self.degree), 0.0)
            self.samples = samples
            self.sup_norm = float(np.max(np.abs(samples)))
        if not math.isfinite(self.sup_norm):
            raise DomainError("boundary values overflow the float range")

    @staticmethod
    def _grid_size(degree: int) -> int:
        need = max(4 * degree + 4, 4)
        return 1 << (need - 1).bit_length()

    def _on_grid(self, n: int, offset: float) -> np.ndarray:
        """Values at theta_j = 2pi (j + offset) / n, j = 0..n-1.

        Coefficient c_k, times the phase e^{2pi i k offset / n}, goes to bin
        k mod n, and one unnormalised inverse FFT sums the bins; frequencies
        that alias onto one bin add up there, so every n is exact.
        """
        d = self.degree
        ks = np.arange(-d, d + 1)
        c = self.coefficients
        if offset:
            c = c * np.exp((2j * math.pi * offset / n) * ks)
        bins = np.zeros(n, dtype=complex)
        np.add.at(bins, ks % n, c)
        return np.fft.ifft(bins, norm="forward")

    def _evaluate_poly(self, theta: np.ndarray) -> np.ndarray:
        e = np.exp(1j * theta)
        d = self.degree
        out = np.full(theta.shape, self.coefficients[d], dtype=complex)
        power = np.ones_like(e)
        for k in range(1, d + 1):
            power = power * e
            out += self.coefficients[d + k] * power
            out += self.coefficients[d - k] * np.conj(power)
        return out

    def evaluate(self, theta):
        """Value of the trig polynomial at angle(s) theta."""
        th = np.asarray(theta, dtype=float)
        scalar = th.ndim == 0
        vals = self._evaluate_poly(np.atleast_1d(th))
        return complex(vals[0]) if scalar else vals

    def rotate(self, phi: float) -> "BoundaryData":
        """Boundary data of theta -> f(e^{i(theta + phi)})."""
        d = self.degree
        ks = np.arange(-d, d + 1)
        return BoundaryData(self.coefficients * np.exp(1j * ks * phi))

    def scaled(self, factor: complex) -> "BoundaryData":
        """Boundary data factor * f, its samples scaled from this grid's."""
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs, samples = self.coefficients * factor, self.samples * factor
        out = object.__new__(BoundaryData)
        out._set(coeffs, samples)
        return out

    @classmethod
    def constant(cls, value: complex) -> "BoundaryData":
        return cls(np.array([value], dtype=complex))

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coefficients],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoundaryData":
        if not isinstance(data, dict):
            raise DomainError("boundary data must be a JSON object")
        d = data["degree"]
        if not _is_number(d, int):
            raise DomainError(f"degree must be an integer, got {d!r}")
        pairs = data["coefficients"]
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2 and all(_is_number(v, (int, float)) for v in p)
                for p in pairs)):
            raise DomainError("coefficients must be a list of [re, im] number pairs")
        if len(pairs) != 2 * d + 1:
            raise DomainError(f"expected {2 * d + 1} coefficients for degree {d}, got {len(pairs)}")
        try:
            coeffs = np.array([complex(p[0], p[1]) for p in pairs])
        except OverflowError:  # a JSON integer beyond the float range
            raise DomainError("coefficients must be finite") from None
        return cls(coeffs)


def _is_number(v, types) -> bool:
    """JSON number of the given types (bool, a subclass of int, excluded)."""
    return isinstance(v, types) and not isinstance(v, bool)


@dataclass(frozen=True)
class DerivativePair:
    """Wirtinger derivatives of a solution at a point, plus their norm sum."""

    d_z: complex
    d_zbar: complex
    norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", abs(self.d_z) + abs(self.d_zbar))


def poisson_kernel(alpha, z) -> complex:
    """Weighted Poisson kernel at z, principal branch for the real power."""
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    one_minus_r2 = 1.0 - (zc.real * zc.real + zc.imag * zc.imag)
    return one_minus_r2 ** (a + 1.0) / ((1.0 - zc) * (1.0 - zc.conjugate()) ** (a + 1.0))


def real_kernel(alpha, z) -> float:
    """Modulus-form kernel c_alpha (1-|z|^2)^(alpha+1) / |1-z|^(alpha+2)."""
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    one_minus_r2 = 1.0 - (zc.real * zc.real + zc.imag * zc.imag)
    return c_alpha(a) * one_minus_r2 ** (a + 1.0) / abs(1.0 - zc) ** (a + 2.0)


def _kernel_rows(a: float, zc: complex, theta: np.ndarray, rows) -> tuple:
    """The rows picked by index from (P, dP/dz, dP/dzbar) at
    xi = z e^{-i theta}, all from one evaluation of the kernel."""
    one_minus_r2 = 1.0 - (zc.real * zc.real + zc.imag * zc.imag)
    emith = np.exp(-1j * theta)
    xi = zc * emith
    one_minus_xi = 1.0 - xi
    kern = one_minus_r2 ** (a + 1.0) / (one_minus_xi * (1.0 - np.conj(xi)) ** (a + 1.0))
    if rows == (0,):
        return (kern,)
    # conj(q) = e^{i theta} / (1 - xibar), the d/dzbar factor
    q = emith / one_minus_xi
    d_z = kern * (q - (a + 1.0) * zc.conjugate() / one_minus_r2)
    d_zbar = (a + 1.0) * kern * (np.conj(q) - zc / one_minus_r2)
    return tuple((kern, d_z, d_zbar)[i] for i in rows)


def _kernel_pass(alpha, fstar: BoundaryData, z, rows,
                 config: QuadratureConfig | None) -> list[QuadratureResult]:
    """Raw quadrature results for the circle means of K_i * fstar, K_i the
    `_kernel_rows` picked by ``rows``, in one node-doubling pass.

    Each level builds the kernel, e^{-i theta} and fstar's values (one
    inverse FFT) once for all rows.  Each row's abs_tol is raised to the
    summation roundoff 32 eps sup|K_i| sup|fstar| of its integrand, so
    near-zero means (cancelling integrands) still converge instead of
    chasing noise; the row is integrated scaled by abs_tol / floor_i, which
    makes the pass's one abs_tol that floor for it.  All rows share the
    node count; non-finite values raise IntegrandError, and numpy's
    floating-point warnings are silenced inside the pass.
    """
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    cfg = config or DEFAULT_CONFIG
    r = abs(zc)
    # (1-r^2)^(a+1) / (1-r)^(a+2), in a form that cannot underflow to 0/0
    sups = ((1.0 + r) ** (a + 1.0) / (1.0 - r),) + _derivative_kernel_sups(a, zc)
    scale = [cfg.abs_tol / max(cfg.abs_tol, 32.0 * _EPS * (sups[i] * fstar.sup_norm))
             for i in rows]
    weights = np.array(scale)[:, None]

    def integrand(theta):
        fvals = fstar._on_grid(*_node_level(theta))
        return np.stack(_kernel_rows(a, zc, theta, rows)) * (weights * fvals)

    with np.errstate(all="ignore"):
        res = integrate_periodic(integrand, cfg)
    return [QuadratureResult(v / s, e / s, res.nodes_used, res.converged)
            for v, e, s in zip(res.value, res.error_estimate, scale)]


def dirichlet_quadrature(alpha, fstar: BoundaryData, z,
                         config: QuadratureConfig | None = None):
    """Raw quadrature result for the extension at z, with diagnostics.

    The independent route beside `solve_dirichlet`: the kernel integral
    itself, by node doubling (the value row of `_kernel_pass`).
    """
    return _kernel_pass(alpha, fstar, z, (0,), config)[0]


def kernel_derivatives(alpha, z, theta):
    """Wirtinger derivatives of the kernel map z -> P(z e^{-i theta}).

    Returns the pair (d/dz, d/dzbar), each with the shape of theta.  Their
    moduli satisfy, with xi = z e^{-i theta} and r = |z|:

        |d/dzbar| = (1+alpha) (1-r^2)^alpha / |1-xi|^(alpha+2)
        |d/dz|    = (1-r^2)^alpha |(1+alpha)(r^2-xi) + 1-r^2| / |1-xi|^(alpha+3)
    """
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    d_z, d_zbar = _kernel_rows(a, zc, np.atleast_1d(th), (1, 2))
    if scalar:
        return complex(d_z[0]), complex(d_zbar[0])
    return d_z, d_zbar


def _derivative_kernel_sups(a: float, zc: complex) -> tuple[float, float]:
    """Sup bounds over theta of the two kernel-derivative moduli."""
    r = abs(zc)
    one_minus_r2 = 1.0 - r * r
    base = (1.0 + r) ** a / ((1.0 - r) * (1.0 - r))  # (1-r^2)^a / (1-r)^(a+2)
    sup_dzbar = (1.0 + a) * base
    sup_dz = base * ((1.0 + a) * (r * r + r) + one_minus_r2) / (1.0 - r)
    return sup_dz, sup_dzbar


def derivative_quadrature(alpha, fstar: BoundaryData, z,
                          config: QuadratureConfig | None = None):
    """Raw quadrature results (d/dz, d/dzbar) for the Wirtinger derivatives
    of the extension at z, by differentiating under the integral sign.

    The independent route beside `derivative_pair`: the two derivative
    rows of `_kernel_pass`, integrated together.  Each absolute tolerance
    is floored at the roundoff level of its integrand's sup bound, so
    exactly-vanishing derivatives (for example constant boundary data)
    converge instead of chasing noise.
    """
    d_z, d_zbar = _kernel_pass(alpha, fstar, z, (1, 2), config)
    return d_z, d_zbar


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


def _mode_seed(a: float, k: int, x: float, y: float, scale_k: float) -> float:
    """A_k = scale_k F(-a, k; k+1; x), scale_k = (a+1)_k / k!, y = 1 - x.

    Summed to machine precision from series with positive terms only, never
    from the alternating one.  Far from x = 1 the Euler transform
        F(-a, k; k+1; x) = y^(a+1) F(k+1+a, 1; k+1; x);
    near it the connection formula (DLMF 15.8.4), whose first series here
    is F(-a, k; -a; y) = x^(-k) and whose gamma ratios reduce to scale_k
    and -k/(a+1):
        A_k = x^(-k) - scale_k k/(a+1) y^(a+1) F(k+1+a, 1; 2+a; y).
    """
    ya1 = y ** (a + 1.0)
    if k * y > _SEED_SWITCH:
        if ya1 < sys.float_info.min:
            raise ConvergenceError(
                f"spectral seed (1-|z|^2)^(alpha+1) = {y!r}^{a + 1.0!r} underflows")
        s, _ = _series_sum(k + 1.0 + a, 1.0, k + 1.0, x, rel_tol=_EPS)
        return scale_k * ya1 * s
    s, _ = _series_sum(k + 1.0 + a, 1.0, 2.0 + a, y, rel_tol=_EPS)
    return x ** -k - scale_k * k / (1.0 + a) * ya1 * s


def _spectral(a: float, fstar: BoundaryData, zc: complex):
    """(f, f_z, f_zbar) of the extension at z, mode by mode.

    With A_k and its x-derivative A_k' as in the module docstring, and
    dx/dz = zbar, dx/dzbar = z:
        f      = sum_k c_k z^k + sum_k c_{-k} A_k zbar^k,
        f_z    = sum_k k c_k z^(k-1) + zbar sum_k c_{-k} A_k' zbar^k,
        f_zbar = z sum_k c_{-k} A_k' zbar^k + sum_k c_{-k} k A_k zbar^(k-1).
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
    g = h = 0j
    zbk = zb ** d
    for k in range(d, 0, -1):
        ck = c[d - k]
        d_big_a = k * (scale[k] * ya - big_a)
        big_a = x * big_a + scale[k] * ya1
        zbk1 = zb ** (k - 1)
        f += ck * big_a * zbk
        g += ck * d_big_a * zbk
        h += ck * k * big_a * zbk1
        zbk = zbk1
    out = (f, f_z + g * zb, g * zc + h)
    if not all(map(cmath.isfinite, out)):
        raise ConvergenceError(f"spectral evaluation at z={zc!r} overflows for alpha={a!r}")
    return out


def solve_dirichlet(alpha, fstar: BoundaryData, z) -> complex:
    """Weighted-harmonic extension of fstar evaluated at z.

    Summed mode by mode (see the module docstring): one positive seed
    series for A_{d+1}, then the downward recurrence to A_1.  Raises
    ConvergenceError if the seed does not converge or the result leaves
    the float range (only for very large alpha).
    """
    return _spectral(alpha_value(alpha), fstar, disk_point_value(z))[0]


def derivative_pair(alpha, fstar: BoundaryData, z) -> DerivativePair:
    """Wirtinger derivatives of the extension at z.

    Differentiates the mode sum of `solve_dirichlet` term by term, with
    A_k' = k(((alpha+1)_k / k!) (1-x)^alpha - A_{k+1}) from the same
    recurrence, so no further hypergeometric family is summed.
    """
    _, d_z, d_zbar = _spectral(alpha_value(alpha), fstar, disk_point_value(z))
    return DerivativePair(d_z=d_z, d_zbar=d_zbar)


def alpha_laplacian_residual(alpha, fstar: BoundaryData, z, h: float) -> float:
    """Finite-difference magnitude of the weighted Laplacian at z.

    The inner factor (1-|w|^2)^(-alpha) f_zbar(w) comes from
    `derivative_pair`'s mode sum; the outer d/dz is a central difference
    with step h, so the residual of an exact solution decays like h^2.
    Requires |z| + 2h < 1.
    """
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    if not h > 0:
        raise DomainError(f"step size must be positive, got {h!r}")
    if not abs(zc) + 2.0 * h < 1.0:
        raise DomainError(f"stencil around {zc!r} with step {h!r} leaves the unit disk")

    def g(w: complex) -> complex:
        return _one_minus_abs2(w) ** (-a) * _spectral(a, fstar, w)[2]

    gx = (g(zc + h) - g(zc - h)) / (2.0 * h)
    gy = (g(zc + 1j * h) - g(zc - 1j * h)) / (2.0 * h)
    return abs(0.5 * (gx - 1j * gy))
