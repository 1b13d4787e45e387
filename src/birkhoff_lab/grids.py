"""Scalar functions sampled on the uniform periodic grid of T^1.

`periodic_spline` is the periodic cubic spline through such samples, in
numpy alone. On the uniform grid its moments (second derivatives) M solve
M[i-1] + 4 M[i] + M[i+1] = 6 n^2 (y[i+1] - 2 y[i] + y[i-1]) (de Boor, *A
Practical Guide to Splines*, 1978). That system is circulant, so one real
FFT, a division by its eigenvalues 4 + 2 cos(2 pi k / n) and one inverse FFT
solve it (Davis, *Circulant Matrices*, 1979).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import TrigPolynomial, wrap_unit


def require_power_of_two(n: int, name: str) -> None:
    """Raise ValueError, naming `name`, unless n is a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"{name} {n} is not a power of two")


def periodic_spline(values):
    """The periodic cubic spline on [0, 1] through every row of `values`,
    sampled on the uniform grid along the last axis.

    Returns `f(x, nu=0)`: the spline (nu = 0) or its first derivative
    (nu = 1) at every x in [0, 1], with the leading axes of `values` in
    front of the shape of x. The moments come from the circulant solve of
    the module docstring; each cell then keeps the coefficients of its cubic
    in powers of the offset from its left node. Every row is solved and
    evaluated on its own, so a stacked spline equals the per-row splines
    bitwise.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[-1]
    y1 = np.roll(y, -1, axis=-1)
    rhs = 6.0 * n * n * (y1 - 2.0 * y + np.roll(y, 1, axis=-1))
    eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    m = np.fft.irfft(np.fft.rfft(rhs, axis=-1) / eig, n, axis=-1)
    m1 = np.roll(m, -1, axis=-1)
    coeffs = np.stack([y, n * (y1 - y) - (2.0 * m + m1) / (6.0 * n), 0.5 * m, (m1 - m) * (n / 6.0)])

    def spline(x, nu=0):
        x = np.asarray(x, dtype=float)
        cell = np.minimum((x * n).astype(np.intp), n - 1)
        t = x - cell / n  # exact: n is a power of two
        c0, c1, c2, c3 = coeffs[..., cell]
        if nu == 0:
            return ((c3 * t + c2) * t + c1) * t + c0
        if nu == 1:
            return (3.0 * c3 * t + 2.0 * c2) * t + c1
        raise ValueError(f"derivative order {nu} is not 0 or 1")

    return spline


@dataclass(frozen=True)
class GridFunction:
    """Samples of a scalar map on the uniform grid of T^1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError(f"GridFunction is 1-dimensional, got shape {v.shape}")
        require_power_of_two(len(v), "resolution")
        if not np.all(np.isfinite(v)):
            raise ValueError("GridFunction values must be finite")

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.resolution) / self.resolution

    def spectral_derivative(self) -> np.ndarray:
        """FFT differentiation; exact for trig polynomials below Nyquist."""
        n = self.resolution
        freq = np.fft.rfftfreq(n, d=1.0 / n)
        spec = np.fft.rfft(self.values)
        if n % 2 == 0:
            spec[-1] = 0.0  # drop the unmatched Nyquist mode
        return np.fft.irfft(2j * np.pi * freq * spec, n=n)

    def central_derivative(self) -> np.ndarray:
        step = 1.0 / self.resolution
        return (np.roll(self.values, -1) - np.roll(self.values, 1)) / (2 * step)

    def eval(self, q) -> np.ndarray:
        """Cubic periodic interpolation at arbitrary positions."""
        return periodic_spline(self.values)(wrap_unit(q))

    def oscillation(self) -> float:
        return float(np.max(self.values) - np.min(self.values))


def grid_from_trig(poly: TrigPolynomial, n: int) -> GridFunction:
    """The polynomial at time 0 on the n-point grid."""
    q = np.arange(n) / n
    return GridFunction(poly.value(0.0, q) + np.zeros(n))


def constant_grid(c: float, n: int) -> GridFunction:
    return GridFunction(np.full(n, float(c)))

