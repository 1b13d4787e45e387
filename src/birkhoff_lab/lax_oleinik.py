"""Action potentials, Lax-Oleinik operators, Mane critical value, Peierls barrier.

Everything runs on uniform periodic grids. Short-time potentials are built by
midpoint quadrature of the Lagrangian along straight segments over a winding
window; longer spans compose by min-plus matrix products over grid midpoints,
halving recursively. Matrices are cached by (Hamiltonian, fractional start,
span), so time-1-periodicity of the family holds bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BarrierNotConverged,
    DivergenceDetected,
    GridMismatch,
    NonpositiveDuration,
    NoStoredArgmin,
)
from .grids import GridFunction
from .hamiltonians import TonelliHamiltonian, wrap_unit

SINGLE_STEP_SPAN = 0.25
WINDING_WINDOW = 2
QUAD_NODES = 8


def lagrangian_batch(h: TonelliHamiltonian, t: float, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized convex conjugate L(t, q, v), as the family computes it."""
    return h.ops.lagrangian(h, t, q, v)


@dataclass(frozen=True)
class PotentialMatrix:
    """Discretized action potential; entries[y, x] = cost from y at s to x at t."""

    s: float
    t: float
    entries: np.ndarray
    boundary_winding_active: bool = False

    @property
    def resolution(self) -> int:
        return self.entries.shape[0]

    @property
    def span(self) -> float:
        return self.t - self.s

    def require_grid(self, u: GridFunction) -> None:
        if u.dim != 1 or u.resolution != self.resolution:
            raise GridMismatch(f"grid {u.values.shape} vs matrix {self.entries.shape}")


def minplus_compose(a: PotentialMatrix, b: PotentialMatrix) -> PotentialMatrix:
    """(a ⊗ b)[y, x] = min_z a[y, z] + b[z, x]; rows reduce sequentially."""
    if a.resolution != b.resolution:
        raise GridMismatch("composing matrices of different resolutions")
    n = a.resolution
    out = np.empty((n, n))
    bb = b.entries
    for y in range(n):
        out[y, :] = np.min(a.entries[y, :, None] + bb, axis=0)
    return PotentialMatrix(
        a.s, b.t, out, a.boundary_winding_active or b.boundary_winding_active
    )


_POTENTIAL_CACHE: dict[tuple, PotentialMatrix] = {}


def _single_step(h, s, t, n, quad_nodes):
    grid = np.arange(n) / n
    span = t - s
    best = None
    best_w = None
    taus = s + (np.arange(quad_nodes) + 0.5) * span / quad_nodes
    fracs = (taus - s) / span
    for w in range(-WINDING_WINDOW, WINDING_WINDOW + 1):
        delta = grid[None, :] - grid[:, None] + w
        vel = delta / span
        acc = np.zeros((n, n))
        for tau, frac in zip(taus, fracs):
            pos = grid[:, None] + frac * delta
            acc += lagrangian_batch(h, float(tau), pos, vel)
        acc *= span / quad_nodes
        if best is None:
            best = acc
            best_w = np.full((n, n), w)
        else:
            mask = acc < best
            best = np.where(mask, acc, best)
            best_w = np.where(mask, w, best_w)
    at_boundary = bool(np.any(np.abs(best_w) >= WINDING_WINDOW))
    return PotentialMatrix(s, t, best, at_boundary)


def potential(
    h: TonelliHamiltonian,
    s: float,
    t: float,
    n: int = 256,
    max_span: float = SINGLE_STEP_SPAN,
    quad_nodes: int = QUAD_NODES,
) -> PotentialMatrix:
    """Action potential matrix between times s < t on the n-point grid."""
    if t <= s:
        raise NonpositiveDuration(f"need t > s, got [{s}, {t}]")
    if not max_span > 0 or quad_nodes < 1:  # max_span <= 0 never reaches a single step
        raise ValueError(f"need max_span > 0 and quad_nodes >= 1, got {max_span} and {quad_nodes}")
    base = np.floor(s)
    key = (h, round(s - base, 12), round(t - s, 12), n, max_span, quad_nodes)
    hit = _POTENTIAL_CACHE.get(key)
    if hit is not None:
        return PotentialMatrix(s, t, hit.entries, hit.boundary_winding_active)
    if t - s <= max_span + 1e-12:
        out = _single_step(h, s - base, t - base, n, quad_nodes)
    else:
        mid = 0.5 * (s + t)
        out = minplus_compose(
            potential(h, s, mid, n, max_span, quad_nodes),
            potential(h, mid, t, n, max_span, quad_nodes),
        )
        out = PotentialMatrix(s - base, t - base, out.entries, out.boundary_winding_active)
    _POTENTIAL_CACHE[key] = out
    return PotentialMatrix(s, t, out.entries, out.boundary_winding_active)


def lax_negative(
    u: GridFunction,
    pm: PotentialMatrix,
    alpha0: float = 0.0,
    return_argmin: bool = False,
):
    """Inf-convolution with the potential: min_y u(y) + cost(y -> x).

    With alpha0 supplied this is the full operator (reduced + alpha0 * span).
    Argmin ties break to the smallest grid index.
    """
    pm.require_grid(u)
    tmp = u.values[:, None] + pm.entries
    vals = tmp.min(axis=0) + alpha0 * pm.span
    out = GridFunction(vals)
    if return_argmin:
        return out, tmp.argmin(axis=0)
    return out


def lax_positive(u: GridFunction, pm: PotentialMatrix, alpha0: float = 0.0) -> GridFunction:
    """Sup-deconvolution: max_y u(y) - cost(x -> y), minus alpha0 * span."""
    pm.require_grid(u)
    tmp = u.values[None, :] - pm.entries
    return GridFunction(tmp.max(axis=1) - alpha0 * pm.span)


@dataclass(frozen=True)
class CriticalValueEstimate:
    alpha0: float
    half_width: float
    horizon_used: int


def _critical_value_from_matrix(p: np.ndarray, horizon: int, cauchy_tol: float):
    """Slope estimator on the reduced value iteration seeded at zero."""
    n = p.shape[0]
    u = np.zeros(n)
    mins = [0.0]
    for _ in range(horizon):
        u = (u[:, None] + p).min(axis=0)
        mins.append(float(u.min()))
    mins = np.array(mins)
    increments = np.diff(mins)
    tail = increments[3 * len(increments) // 4 :]
    if len(tail) >= 2 and float(tail.max() - tail.min()) > cauchy_tol:
        raise DivergenceDetected(
            f"per-step increments oscillate by {float(tail.max() - tail.min()):.3g}"
        )
    lo = horizon // 2
    ks = np.arange(lo, horizon + 1)
    coeffs = np.polyfit(ks, mins[lo:], 1)
    resid = mins[lo:] - np.polyval(coeffs, ks)
    return float(-coeffs[0]), float(np.max(np.abs(resid)))


def mane_critical_value(
    h: TonelliHamiltonian,
    horizon: int = 64,
    n: int = 256,
    cauchy_tol: float = 0.5,
    quad_nodes: int = QUAD_NODES,
    max_span: float = SINGLE_STEP_SPAN,
) -> CriticalValueEstimate:
    """Estimate the critical constant as minus the slope of the value iteration.

    The reduced one-period operator is iterated from zero; the constant is the
    asymptotic per-period decrease of the minimum, fitted on the second half of
    the horizon. The fit residual doubles as an error bar.
    """
    if horizon < 8:
        raise ValueError("horizon must be at least 8")
    pm = potential(h, 0.0, 1.0, n, quad_nodes=quad_nodes, max_span=max_span)
    alpha0, half_width = _critical_value_from_matrix(pm.entries, horizon, cauchy_tol)
    return CriticalValueEstimate(alpha0=alpha0, half_width=half_width, horizon_used=horizon)


@dataclass(frozen=True)
class BarrierResult:
    matrix: PotentialMatrix
    converged: bool
    sup_changes: tuple[float, ...]


def peierls_barrier(
    h: TonelliHamiltonian,
    alpha0: float,
    s: float,
    t: float,
    n_min: int = 8,
    n_max: int = 64,
    n: int = 256,
    tol: float = 1e-4,
    max_span: float = SINGLE_STEP_SPAN,
    quad_nodes: int = QUAD_NODES,
) -> BarrierResult:
    """Windowed running minimum of critically normalized long-time potentials.

    Approximates the liminf over integer-shifted horizons by the entrywise
    running minimum for horizons in [n_min, n_max]; converged when the minimum
    moves less than tol (sup norm) over the last quarter of the window.
    """
    if not (0 <= s < 1 and 0 <= t < 1):
        raise ValueError("fractional times s, t must lie in [0, 1)")
    if not n_max > n_min >= 4:
        raise ValueError("need n_max > n_min >= 4")
    one_period = potential(h, t, t + 1.0, n, max_span, quad_nodes=quad_nodes)
    current = potential(h, s, 1.0 + t, n, max_span, quad_nodes=quad_nodes)
    running = None
    changes = []
    for horizon in range(1, n_max + 1):
        if horizon > 1:
            current = minplus_compose(current, one_period)
        if horizon < n_min:
            continue
        cand = current.entries + alpha0 * (horizon + t - s)
        if running is None:
            running = cand.copy()
            changes.append(float(np.max(np.abs(cand))))
        else:
            new = np.minimum(running, cand)
            changes.append(float(np.max(np.abs(new - running))))
            running = new
    window = max(1, len(changes) // 4)
    converged = bool(max(changes[-window:]) < tol)
    return BarrierResult(
        matrix=PotentialMatrix(s, t, running),
        converged=converged,
        sup_changes=tuple(changes),
    )


def positive_weak_kam(
    h: TonelliHamiltonian,
    alpha0: float,
    anchor: int,
    t: float = 0.0,
    n: int = 256,
    n_min: int = 8,
    n_max: int = 64,
    barrier: BarrierResult | None = None,
    max_span: float = SINGLE_STEP_SPAN,
    quad_nodes: int = QUAD_NODES,
):
    """Weak solution u(t, .) = -barrier(. -> anchor) + alpha0 * t.

    Returns the grid function and the fixed-point residual of the one-period
    positive operator, which vanishes for the exact barrier.
    """
    if barrier is None:
        barrier = peierls_barrier(
            h, alpha0, wrap_unit(t), wrap_unit(t), n_min, n_max, n,
            max_span=max_span, quad_nodes=quad_nodes,
        )
    if not barrier.converged:
        raise BarrierNotConverged("refusing to build a solution from a truncated barrier")
    u = GridFunction(-barrier.matrix.entries[:, anchor] + alpha0 * t)
    # fixed-point residual measured against a refined application of the
    # operator (doubled grid, cubic-interpolated input): the same-grid
    # identity is saturated by construction and would report only roundoff
    fine = 2 * n
    u_fine = GridFunction(u.eval(np.arange(fine) / fine))
    one_period = potential(h, wrap_unit(t), wrap_unit(t) + 1.0, fine, max_span, quad_nodes=quad_nodes)
    image = lax_positive(u_fine, one_period, alpha0)
    residual = float(np.max(np.abs(image.values - u_fine.values)))
    return u, residual


@dataclass(frozen=True)
class MinimizerChain:
    """Backtracked argmin chain through k one-period steps, newest last."""

    indices: tuple[int, ...]
    positions: tuple[float, ...]
    step_actions: tuple[float, ...]
    value_gap: float

    @property
    def max_speed(self) -> float:
        qs = np.array(self.positions)
        d = np.abs(np.diff(qs))
        return float(np.max(np.minimum(d, 1.0 - d))) if len(d) else 0.0


def backward_minimizer(
    u: GridFunction,
    h: TonelliHamiltonian,
    t: float,
    x_index: int,
    k: int,
    alpha0: float = 0.0,
    n: int | None = None,
) -> MinimizerChain:
    """Argmin chain realizing k composed one-period negative steps at x.

    Chain points sit on the grid at integer time offsets; the value gap
    u_k(x) - u(y_0) matches the summed full-operator increments.
    """
    if k < 1:
        raise NoStoredArgmin("need at least one composed step to backtrack")
    n = n or u.resolution
    pm = potential(h, wrap_unit(t), wrap_unit(t) + 1.0, n)
    pm.require_grid(u)
    args = []
    cur = u
    for _ in range(k):
        cur, arg = lax_negative(cur, pm, alpha0, return_argmin=True)
        args.append(arg)
    idx = [int(x_index)]
    for arg in reversed(args):
        idx.append(int(arg[idx[-1]]))
    idx.reverse()
    actions = tuple(
        float(pm.entries[idx[j], idx[j + 1]] + alpha0) for j in range(k)
    )
    grid = np.arange(n) / n
    return MinimizerChain(
        indices=tuple(idx),
        positions=tuple(float(grid[i]) for i in idx),
        step_actions=actions,
        value_gap=float(cur.values[x_index] - u.values[idx[0]]),
    )


def clear_potential_cache() -> None:
    _POTENTIAL_CACHE.clear()
