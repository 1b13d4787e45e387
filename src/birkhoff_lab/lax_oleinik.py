"""Action potentials, Lax-Oleinik operators, Mane critical value, Peierls barrier.

Everything runs on uniform periodic grids. Short-time potentials are built by
midpoint quadrature of the Lagrangian along straight segments, least over the
windings walked out from the one nearest drift * span while one improves an
entry. A node of a segment is an outer sum of a start-point and an end-point
term, so the closed-form families sum their trig terms by angle addition with
O(n) cos/sin calls per term and node, not O(n^2). Longer spans compose by
min-plus matrix products over grid midpoints, halving recursively. A compose
visits only the intermediate points that can attain a minimum, and gives the
same bits as visiting all of them. A matrix is built and cached from
(Hamiltonian, fractional start, span) alone, so time-1-periodicity of the
family holds bitwise, also for a matrix rebuilt after the cache, which drops
the least recently used matrices beyond a byte bound, let it go.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import (
    BarrierNotConverged,
    DivergenceDetected,
    GridMismatch,
    NonpositiveDuration,
)
from .grids import GridFunction
from .hamiltonians import TonelliHamiltonian, wrap_unit

SINGLE_STEP_SPAN = 0.25
QUAD_NODES = 8
CAUCHY_TOL = 0.5
BARRIER_TOL = 1e-4
SPAN_RTOL = 1e-9  # the 12-digit key takes float noise off t - s; a larger move changes the span
ALPHA0_HORIZON = 48  # periods of value iteration behind every alpha0 estimate


def lagrangian_batch(h: TonelliHamiltonian, t: float, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized convex conjugate L(t, q, v), as the family computes it."""
    return h.ops.legendre(h, t, q, v)[0]


@dataclass(frozen=True)
class PotentialMatrix:
    """Discretized action potential; entries[y, x] = cost from y at s to x at t."""

    s: float
    t: float
    entries: np.ndarray

    @property
    def resolution(self) -> int:
        return self.entries.shape[0]

    @property
    def span(self) -> float:
        return self.t - self.s

    def require_grid(self, u: GridFunction) -> None:
        if u.resolution != self.resolution:
            raise GridMismatch(f"grid {u.values.shape} vs matrix {self.entries.shape}")


COMPOSE_BLOCK = 2**16  # entries of one compose tensor (512 KB), or one row's if larger
COMPOSE_ROWS = 16  # rows that share one candidate set
_EPS = float(np.finfo(float).eps)


def _compose_candidates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the z that can attain min_z a[y, z] + b[z, x] for some x.

    With z0 = argmin a[y, :], ub[y, x] = a[y, z0] + b[z0, x] is one of the
    sums, so the minimiser z has fl(a[y, z] + b[z, x]) <= ub[y, x], hence
    a[y, z] <= ub[y, x] - min_z b[z, x] <= T_y = max_x of the same, up to
    rounding. With S = max|a| + max|b| and u = eps/2, the sum errs by at
    most u S, the difference by 2u S and adding the slack by 2u S (to first
    order), so a slack of 4 eps S = 8u S covers all three. Non-finite input
    keeps every z.
    """
    scale = float(np.max(np.abs(a)) + np.max(np.abs(b)))
    if not np.isfinite(scale):
        return np.ones(a.shape, dtype=bool)
    z0 = np.argmin(a, axis=1)
    ub = a[np.arange(len(a)), z0][:, None] + b[z0]
    bound = np.max(ub - np.min(b, axis=0), axis=1) + 4.0 * _EPS * scale
    return a <= bound[:, None]


def minplus_compose(a: PotentialMatrix, b: PotentialMatrix) -> PotentialMatrix:
    """(a ⊗ b)[y, x] = min_z a[y, z] + b[z, x], bitwise as over every z.

    A min of floats is exact and each entry is the same float sum whatever
    order z is visited in, so a minimum over any superset of the minimising
    z is the full minimum. Each block of COMPOSE_ROWS rows visits only the
    union of its rows' candidates (_compose_candidates), in tensors of at most
    COMPOSE_BLOCK entries. Potentials spanning a period or more keep well
    under 1 % of the z; short spans and free flow keep nearly all of them,
    and then each tensor holds whole rows, as in a dense compose.
    """
    if a.resolution != b.resolution:
        raise GridMismatch("composing matrices of different resolutions")
    n = a.resolution
    aa, bb = a.entries, b.entries
    out = np.empty((n, n))
    keep = _compose_candidates(aa, bb)
    for y0 in range(0, n, COMPOSE_ROWS):
        y_end = min(n, y0 + COMPOSE_ROWS)
        zs = np.flatnonzero(np.any(keep[y0:y_end], axis=0))
        bz = bb if len(zs) == n else bb[zs]
        step = max(1, COMPOSE_BLOCK // (len(zs) * n))
        for y in range(y0, y_end, step):
            rows = slice(y, min(y + step, y_end))
            out[rows] = np.min(aa[rows, zs, None] + bz, axis=1)
    return PotentialMatrix(a.s, b.t, out)


class _PotentialCache:
    """Least-recently-used potential matrices, at most `max_bytes` of entries.

    `hits`, `misses` and `evictions` count lookups and drops since the last
    `clear`.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._items: OrderedDict[tuple, PotentialMatrix] = OrderedDict()
        self.clear()

    def clear(self) -> None:
        self._items.clear()
        self.nbytes = self.hits = self.misses = self.evictions = 0

    def get(self, key: tuple) -> PotentialMatrix | None:
        hit = self._items.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
            self._items.move_to_end(key)
        return hit

    def put(self, key: tuple, pm: PotentialMatrix) -> None:
        self._items[key] = pm
        self.nbytes += pm.entries.nbytes
        while self.nbytes > self.max_bytes:
            _, old = self._items.popitem(last=False)
            self.nbytes -= old.entries.nbytes
            self.evictions += 1


# a 512-point barrier and its 1024-point weak-KAM residual hold 70 MB
_POTENTIAL_CACHE = _PotentialCache(max_bytes=128 * 2**20)


def _single_step(h, s, t, n, quad_nodes):
    """Midpoint-rule action of the straight segments y -> x + w, least over w.

    Node i of a segment sits at (1 - f_i) y + f_i (x + w), an outer sum of a
    start-point and an end-point term, which the family sums over the nodes
    in one pass (`segment_lagrangian`). Tonelli minimisers have bounded speed
    about the drift, so the useful w form one range around w0, the winding
    nearest drift * span: each side walks out from w0 and stops at the first
    w that improves no entry.
    """
    grid = np.arange(n) / n
    span = t - s
    taus = s + (np.arange(quad_nodes) + 0.5) * span / quad_nodes
    fracs = (taus - s) / span
    start = (1.0 - fracs)[:, None] * grid

    def action(w):
        vel = (grid[None, :] - grid[:, None] + w) / span
        acc = h.ops.segment_lagrangian(h, taus, start, fracs[:, None] * (grid + w), vel)
        acc *= span / quad_nodes
        return acc

    w0 = round(h.drift * span)  # drift is 0 but for the shifted quadratic
    best = action(w0)
    for side in (-1, 1):
        for w in count(w0 + side, side):
            acc = action(w)
            better = acc < best
            if not better.any():
                break
            best = np.where(better, acc, best)
    return PotentialMatrix(s, t, best)


def _halving(s, t, max_span):
    """potential's key times (fractional start, span), and the midpoint it
    halves at, or None when [s, t] is one single step."""
    fs, span = round(s - np.floor(s), 12), round(t - s, 12)
    return fs, span, None if span <= max_span + 1e-12 else fs + 0.5 * span


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
    fs, span, mid = _halving(s, t, max_span)
    if abs(span - (t - s)) > SPAN_RTOL * (t - s):  # a span keyed as 0 too, which a single step divides by
        raise NonpositiveDuration(f"the span t - s = {t - s!r} of [{s}, {t}] rounds to {span:.12g} at 12 digits")
    key = (h, fs, span, n, max_span, quad_nodes)
    hit = _POTENTIAL_CACHE.get(key)
    if hit is None:
        # built from the key alone, so an evicted matrix comes back with the same bits
        if mid is None:
            hit = _single_step(h, fs, fs + span, n, quad_nodes)
        else:
            hit = minplus_compose(
                potential(h, fs, mid, n, max_span, quad_nodes),
                potential(h, mid, fs + span, n, max_span, quad_nodes),
            )
        _POTENTIAL_CACHE.put(key, hit)
    return PotentialMatrix(s, t, hit.entries)


def _single_steps(h, s, t, n, max_span, quad_nodes) -> list[PotentialMatrix]:
    """The single steps potential(h, s, t, ...) composes, in time order.

    Halves as `potential` does and fetches each leaf through it, with the
    arguments `potential` would pass, so the leaves share its cache keys and
    bits. Applying them one by one costs O(k n^2), against O(n^3) per compose.
    """
    fs, span, mid = _halving(s, t, max_span)
    if mid is None:
        return [potential(h, s, t, n, max_span, quad_nodes)]
    return _single_steps(h, fs, mid, n, max_span, quad_nodes) + _single_steps(
        h, mid, fs + span, n, max_span, quad_nodes
    )


def lax_negative(u: GridFunction, pm: PotentialMatrix, alpha0: float = 0.0) -> GridFunction:
    """Inf-convolution with the potential: min_y u(y) + cost(y -> x).

    With alpha0 supplied this is the full operator (reduced + alpha0 * span).
    """
    pm.require_grid(u)
    return GridFunction((u.values[:, None] + pm.entries).min(axis=0) + alpha0 * pm.span)


def lax_positive(u: GridFunction, pm: PotentialMatrix, alpha0: float = 0.0) -> GridFunction:
    """Sup-deconvolution: max_y u(y) - cost(x -> y), minus alpha0 * span."""
    pm.require_grid(u)
    tmp = u.values[None, :] - pm.entries
    return GridFunction(tmp.max(axis=1) - alpha0 * pm.span)


@dataclass(frozen=True)
class CriticalValueEstimate:
    alpha0: float
    half_width: float


def _critical_value_from_matrix(p: np.ndarray, horizon: int):
    """Slope estimator on the reduced value iteration seeded at zero.

    Raises DivergenceDetected when the per-step increments over the last
    quarter of the horizon spread by more than CAUCHY_TOL.
    """
    n = p.shape[0]
    u = np.zeros(n)
    mins = [0.0]
    for _ in range(horizon):
        u = (u[:, None] + p).min(axis=0)
        mins.append(float(u.min()))
    mins = np.array(mins)
    increments = np.diff(mins)
    tail = increments[3 * len(increments) // 4 :]
    if len(tail) >= 2 and float(tail.max() - tail.min()) > CAUCHY_TOL:
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
    n: int = 256,
    quad_nodes: int = QUAD_NODES,
) -> CriticalValueEstimate:
    """Estimate the critical constant as minus the slope of the value iteration.

    The reduced one-period operator is iterated from zero for ALPHA0_HORIZON
    periods; the constant is the asymptotic per-period decrease of the
    minimum, fitted on the second half of the horizon. The fit residual
    doubles as an error bar.
    """
    pm = potential(h, 0.0, 1.0, n, SINGLE_STEP_SPAN, quad_nodes)
    alpha0, half_width = _critical_value_from_matrix(pm.entries, ALPHA0_HORIZON)
    return CriticalValueEstimate(alpha0=alpha0, half_width=half_width)


@dataclass(frozen=True)
class BarrierResult:
    matrix: PotentialMatrix
    converged: bool
    sup_changes: tuple[float, ...]
    max_span: float  # the potential settings that built it
    quad_nodes: int


def peierls_barrier(
    h: TonelliHamiltonian,
    alpha0: float,
    t: float,
    n_min: int = 8,
    n_max: int = 64,
    n: int = 256,
    max_span: float = SINGLE_STEP_SPAN,
    quad_nodes: int = QUAD_NODES,
) -> BarrierResult:
    """Windowed running minimum of critically normalized long-time potentials
    from fractional time t to itself.

    Approximates the liminf over integer horizons k of the potentials from t
    to t + k by the entrywise running minimum for k in [n_min, n_max];
    converged when the minimum moves less than BARRIER_TOL (sup norm) over
    the last quarter of the window.
    """
    if not 0 <= t < 1:
        raise ValueError("fractional time t must lie in [0, 1)")
    if not n_max > n_min >= 4:
        raise ValueError("need n_max > n_min >= 4")
    one_period = current = potential(h, t, t + 1.0, n, max_span, quad_nodes=quad_nodes)
    running = None
    changes = []
    for horizon in range(1, n_max + 1):
        if horizon > 1:
            current = minplus_compose(current, one_period)
        if horizon < n_min:
            continue
        cand = current.entries + alpha0 * horizon
        if running is None:
            running = cand.copy()
            changes.append(float(np.max(np.abs(cand))))
        else:
            new = np.minimum(running, cand)
            changes.append(float(np.max(np.abs(new - running))))
            running = new
    window = max(1, len(changes) // 4)
    converged = bool(max(changes[-window:]) < BARRIER_TOL)
    return BarrierResult(
        matrix=PotentialMatrix(t, t, running),
        converged=converged,
        sup_changes=tuple(changes),
        max_span=max_span,
        quad_nodes=quad_nodes,
    )


def positive_weak_kam(
    h: TonelliHamiltonian,
    alpha0: float,
    anchor: int,
    t: float = 0.0,
    n: int = 256,
    barrier: BarrierResult | None = None,
):
    """Weak solution u(t, .) = -barrier(. -> anchor) + alpha0 * t.

    Without a barrier, builds the n-point one with peierls_barrier's default
    window and potential settings; a given barrier sets the resolution, and n
    is unused. Returns the grid function and the fixed-point residual of the
    one-period positive operator on twice that resolution, built with the
    barrier's own potential settings, which vanishes for the exact barrier.
    The anchor is a grid index, 0 <= anchor < resolution.
    """
    resolution = n if barrier is None else barrier.matrix.resolution
    if not 0 <= anchor < resolution:
        raise ValueError(f"anchor {anchor} is not a grid index below {resolution}")
    if barrier is None:
        barrier = peierls_barrier(h, alpha0, wrap_unit(t), n=n)
    if not barrier.converged:
        raise BarrierNotConverged("refusing to build a solution from a truncated barrier")
    u = GridFunction(-barrier.matrix.entries[:, anchor] + alpha0 * t)
    # fixed-point residual measured against a refined application of the
    # operator (doubled grid, cubic-interpolated input): the same-grid
    # identity is saturated by construction and would report only roundoff
    fine = 2 * resolution
    u_fine = GridFunction(u.eval(np.arange(fine) / fine))
    # the one-period operator applied leaf by leaf, latest first, by the
    # semigroup property T_{s,t} = T_{tau,t} o T_{s,tau}: no 2n-point compose
    leaves = _single_steps(h, wrap_unit(t), wrap_unit(t) + 1.0, fine, barrier.max_span, barrier.quad_nodes)
    image = u_fine
    for leaf in reversed(leaves):
        image = lax_positive(image, leaf, alpha0)
    residual = float(np.max(np.abs(image.values - u_fine.values)))
    return u, residual


def clear_potential_cache() -> None:
    """Drop every cached potential and reset the counters."""
    _POTENTIAL_CACHE.clear()
