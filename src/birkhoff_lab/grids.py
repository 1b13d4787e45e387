"""Scalar functions sampled on the uniform periodic grid of T^1.

`periodic_spline` imports `scipy.interpolate` on first use, so a process
that never interpolates a grid never loads it.
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
    """The periodic scipy CubicSpline on [0, 1] through every row of `values`,
    sampled on the uniform grid along the last axis."""
    # imported here: scipy.interpolate pulls in scipy.linalg, .optimize
    # and .spatial, most of a second that only interpolating callers need
    from scipy.interpolate import CubicSpline

    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    x = np.append(np.arange(n) / n, 1.0)
    return CubicSpline(x, np.concatenate([v, v[..., :1]], axis=-1), axis=-1, bc_type="periodic")


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

