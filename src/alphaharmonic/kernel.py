"""Weighted Poisson kernel on the unit disk and its Dirichlet solver.

The solver recovers the weighted-harmonic extension of boundary data on
the unit circle through the convolution integral

    f(z) = (1/2pi) * integral of P(z e^{-i theta}) fstar(e^{i theta}) d theta,

with the kernel P(w) = (1-|w|^2)^(alpha+1) / ((1-w)(1-wbar)^(alpha+1)).
The real-exponent power of (1-wbar) uses the principal logarithm, which
is well defined on the disk because Re(1-wbar) > 0 there.

Boundary data is a finite Fourier series (trig polynomial) stored with a
dense sample grid; that keeps sup-norms computable and makes exact
reference solutions available term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_periodic
from .specfun import alpha_value, c_alpha

_EPS = float(np.finfo(float).eps)

__all__ = [
    "DiskPoint",
    "BoundaryData",
    "DerivativePair",
    "disk_point_value",
    "poisson_kernel",
    "real_kernel",
    "dirichlet_quadrature",
    "solve_dirichlet",
    "kernel_derivatives",
    "derivative_pair",
    "alpha_laplacian_residual",
]


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disk."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        disk_point_value(self.as_complex)

    @classmethod
    def from_complex(cls, z: complex) -> "DiskPoint":
        z = complex(z)
        return cls(z.real, z.imag)

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return math.hypot(self.re, self.im)


def disk_point_value(z) -> complex:
    """Coerce a DiskPoint or complex-like to a validated complex number."""
    zc = z.as_complex if isinstance(z, DiskPoint) else complex(z)
    if not zc.real * zc.real + zc.imag * zc.imag < 1.0:
        raise DomainError(f"point {zc!r} is not inside the unit disk")
    return zc


class BoundaryData:
    """Trig-polynomial boundary data with a dense sample grid.

    ``coefficients`` holds the 2d+1 Fourier coefficients for frequencies
    -d..d.  ``samples`` are the values on an equispaced grid whose
    power-of-two size is at least 4d+4, and ``sup_norm`` is the maximum
    modulus over that grid.
    """

    __slots__ = ("coefficients", "degree", "samples", "sup_norm")

    def __init__(self, coefficients, samples=None):
        coeffs = np.asarray(coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size % 2 != 1:
            raise DomainError("coefficients must be a 1-D array of odd length (indices -d..d)")
        self.coefficients = coeffs
        self.degree = coeffs.size // 2
        n = self._grid_size(self.degree)
        angles = 2.0 * math.pi * np.arange(n) / n
        expected = self._evaluate_poly(angles)
        if samples is None:
            self.samples = expected
        else:
            samples = np.asarray(samples, dtype=complex)
            scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
            if samples.shape != expected.shape or np.max(np.abs(samples - expected)) > 1e-12 * scale:
                raise DomainError("samples are inconsistent with the coefficients")
            self.samples = samples
        self.sup_norm = float(np.max(np.abs(self.samples)))

    @staticmethod
    def _grid_size(degree: int) -> int:
        need = max(4 * degree + 4, 4)
        return 1 << (need - 1).bit_length()

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
        return BoundaryData(self.coefficients * factor)

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
        d = int(data["degree"])
        pairs = data["coefficients"]
        if len(pairs) != 2 * d + 1:
            raise DomainError(f"expected {2 * d + 1} coefficients for degree {d}, got {len(pairs)}")
        coeffs = np.array([complex(p[0], p[1]) for p in pairs])
        return cls(coeffs)


@dataclass(frozen=True)
class DerivativePair:
    """Wirtinger derivatives of a solution at a point, plus their norm sum."""

    d_z: complex
    d_zbar: complex
    norm: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        expected = abs(self.d_z) + abs(self.d_zbar)
        if self.norm is None:
            object.__setattr__(self, "norm", expected)
        elif abs(self.norm - expected) > 1e-14 * max(1.0, expected):
            raise DomainError("norm does not equal |d_z| + |d_zbar|")


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


def _kernel_on_grid(a: float, zc: complex, theta: np.ndarray):
    """Kernel P(xi) at xi = z e^{-i theta}, returned with e^{-i theta}, xi
    and 1 - |z|^2 for the derivative kernels."""
    one_minus_r2 = 1.0 - (zc.real * zc.real + zc.imag * zc.imag)
    emith = np.exp(-1j * theta)
    xi = zc * emith
    kern = one_minus_r2 ** (a + 1.0) / ((1.0 - xi) * (1.0 - np.conj(xi)) ** (a + 1.0))
    return kern, emith, xi, one_minus_r2


def _kernel_integral(kern, fstar: BoundaryData, sup: float,
                     config: QuadratureConfig | None):
    """Raw quadrature result for the circle mean of kern(theta) * fstar.

    ``sup`` bounds |kern|; abs_tol is raised to the summation roundoff of
    the integrand's sup bound, so near-zero means (cancelling integrands)
    still converge instead of chasing noise.
    """
    cfg = config or DEFAULT_CONFIG
    floor = 32.0 * _EPS * (sup * fstar.sup_norm)
    if floor > cfg.abs_tol:
        cfg = replace(cfg, abs_tol=floor)

    def integrand(theta):
        return kern(theta) * fstar.evaluate(theta)

    return integrate_periodic(integrand, cfg)


def dirichlet_quadrature(alpha, fstar: BoundaryData, z,
                         config: QuadratureConfig | None = None):
    """Raw quadrature result for the extension at z, with diagnostics."""
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    r = abs(zc)
    one_minus_r2 = 1.0 - r * r
    sup = one_minus_r2 ** (a + 1.0) / (1.0 - r) ** (a + 2.0)
    return _kernel_integral(lambda theta: _kernel_on_grid(a, zc, theta)[0],
                            fstar, sup, config)


def solve_dirichlet(alpha, fstar: BoundaryData, z, config: QuadratureConfig | None = None) -> complex:
    """Weighted-harmonic extension of fstar evaluated at z."""
    res = dirichlet_quadrature(alpha, fstar, z, config)
    return complex(res.unwrap(f"Dirichlet quadrature at z={z!r}"))


def _dz_kernel(a: float, zc: complex, theta: np.ndarray) -> np.ndarray:
    kern, emith, xi, one_minus_r2 = _kernel_on_grid(a, zc, theta)
    return kern * (emith / (1.0 - xi) - (a + 1.0) * zc.conjugate() / one_minus_r2)


def _dzbar_kernel(a: float, zc: complex, theta: np.ndarray) -> np.ndarray:
    kern, emith, xi, one_minus_r2 = _kernel_on_grid(a, zc, theta)
    return (a + 1.0) * kern * (np.conj(emith) / (1.0 - np.conj(xi)) - zc / one_minus_r2)


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
    th = np.atleast_1d(th)
    d_z = _dz_kernel(a, zc, th)
    d_zbar = _dzbar_kernel(a, zc, th)
    if scalar:
        return complex(d_z[0]), complex(d_zbar[0])
    return d_z, d_zbar


def _derivative_kernel_sups(a: float, zc: complex) -> tuple[float, float]:
    """Sup bounds over theta of the two kernel-derivative moduli."""
    r = abs(zc)
    one_minus_r2 = 1.0 - r * r
    base = one_minus_r2 ** a / (1.0 - r) ** (a + 2.0)
    sup_dzbar = (1.0 + a) * base
    sup_dz = base * ((1.0 + a) * (r * r + r) + one_minus_r2) / (1.0 - r)
    return sup_dz, sup_dzbar


def derivative_pair(alpha, fstar: BoundaryData, z,
                    config: QuadratureConfig | None = None) -> DerivativePair:
    """Wirtinger derivatives of the extension at z, by differentiating
    under the integral sign.

    The quadrature's absolute tolerance is floored at the roundoff level
    of the integrand's sup bound, so exactly-vanishing derivatives (for
    example constant boundary data) converge instead of chasing noise.
    """
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    sup_dz, sup_dzbar = _derivative_kernel_sups(a, zc)
    d_z = _kernel_integral(lambda theta: _dz_kernel(a, zc, theta),
                           fstar, sup_dz, config).unwrap("d/dz quadrature")
    d_zbar = _kernel_integral(lambda theta: _dzbar_kernel(a, zc, theta),
                              fstar, sup_dzbar, config).unwrap("d/dzbar quadrature")
    return DerivativePair(d_z=complex(d_z), d_zbar=complex(d_zbar))


def _weighted_dzbar(a: float, fstar: BoundaryData, w: complex,
                    config: QuadratureConfig | None) -> complex:
    """(1-|w|^2)^(-alpha) * f_zbar(w), the inner factor of the weighted Laplacian."""
    wz = disk_point_value(w)
    _, sup_dzbar = _derivative_kernel_sups(a, wz)
    val = _kernel_integral(lambda theta: _dzbar_kernel(a, wz, theta),
                           fstar, sup_dzbar, config).unwrap("d/dzbar quadrature")
    one_minus_r2 = 1.0 - (wz.real * wz.real + wz.imag * wz.imag)
    return one_minus_r2 ** (-a) * complex(val)


def alpha_laplacian_residual(alpha, fstar: BoundaryData, z, h: float,
                             config: QuadratureConfig | None = None) -> float:
    """Finite-difference magnitude of the weighted Laplacian at z.

    The inner factor (1-|w|^2)^(-alpha) f_zbar(w) is quadrature-evaluated;
    the outer d/dz is a central difference with step h, so the residual of
    an exact solution decays like h^2.  Requires |z| + 2h < 1.
    """
    a = alpha_value(alpha)
    zc = disk_point_value(z)
    if not h > 0:
        raise DomainError(f"step size must be positive, got {h!r}")
    if not abs(zc) + 2.0 * h < 1.0:
        raise DomainError(f"stencil around {zc!r} with step {h!r} leaves the unit disk")

    def g(w: complex) -> complex:
        return _weighted_dzbar(a, fstar, w, config)

    gx = (g(zc + h) - g(zc - h)) / (2.0 * h)
    gy = (g(zc + 1j * h) - g(zc - 1j * h)) / (2.0 * h)
    return abs(0.5 * (gx - 1j * gy))
