"""Action potentials, Lax-Oleinik operators, Mane critical value, Peierls barrier.

Everything runs on uniform periodic grids. A solvable family's potential
over any span is one O(n^2) closed form, its `potential` op: no single
steps, no angle-addition sums, no composes. For the others, short-time
potentials are built by midpoint quadrature of the Lagrangian along straight
segments, least over the windings walked out from 0 while one improves an
entry; a mechanical V sums its trig terms over a segment's nodes by angle
addition, O(n) cos/sin calls per term and node, not O(n^2). Longer spans
compose by min-plus matrix products over grid midpoints, halving
recursively. A compose visits only the intermediate points that can attain
a minimum, and gives the same bits as visiting all of them. A matrix is
built and cached from (Hamiltonian, fractional start, span) alone, so
time-1-periodicity of the family holds bitwise, also for a matrix rebuilt
after the cache, which drops the least recently used matrices beyond a byte
bound, let it go. The Lax-Oleinik operator T_{s,t} of an H that does not
depend on t depends on t - s alone, so an autonomous closed form's matrices
are built at fractional start 0 and keyed by (Hamiltonian, span), which
every start shares; a custom callable, whose autonomy is a sampled test,
keeps its start. Cached entries are read-only. The critical value and the
Peierls barrier are exact on the grid: minus the minimum cycle mean of the
one-period matrix, and the Kleene star of that matrix, normalized by it,
through its critical nodes. A solvable family's minimum cycle mean is its
O(n) closed form, `least_cycle_mean`, which builds no matrix; the others
take Karp's formula on the matrix.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import DivergenceDetected, GridMismatch, MaximizerNotFound, NonpositiveDuration
from .grids import GridFunction
from .hamiltonians import Family, TonelliHamiltonian, wrap_unit

SINGLE_STEP_SPAN = 0.25
QUAD_NODES = 8  # midpoint nodes of a straight single step
SPAN_RTOL = 1e-9  # the 12-digit key takes float noise off t - s; a larger move changes the span


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


def _excess(b: np.ndarray) -> np.ndarray:
    """excess[z] = max_x b[z, x] - min_z' b[z', x], the row bound _candidates reads."""
    return np.max(b - np.min(b, axis=0), axis=1)


def _candidates(a: np.ndarray, excess: np.ndarray, b_scale: float) -> np.ndarray:
    """Mask of the z that can attain min_z a[y, z] + b[z, x] for some x, for
    each row y of a, from b's _excess and b_scale = max|b|.

    With z0 = argmin a[y, :], a[y, z0] + b[z0, x] is one of the sums, so the
    minimiser z has fl(a[y, z] + b[z, x]) <= fl(a[y, z0] + b[z0, x]), hence
    a[y, z] <= a[y, z0] + b[z0, x] - min_z' b[z', x] <= a[y, z0] + excess[z0],
    up to rounding. With S = max|a| + max|b| and u = eps/2, the two sums err
    by u S each, excess by 2u S, and adding excess and then the slack by 2u S
    each (to first order), so a slack of 4 eps S = 8u S covers all of them.
    Non-finite input keeps every z.
    """
    scale = float(np.max(np.abs(a))) + b_scale
    if not np.isfinite(scale):
        return np.ones(a.shape, dtype=bool)
    z0 = np.argmin(a, axis=1)
    bound = a[np.arange(len(a)), z0] + excess[z0] + 4.0 * _EPS * scale
    return a <= bound[:, None]


def minplus_compose(a: PotentialMatrix, b: PotentialMatrix) -> PotentialMatrix:
    """(a ⊗ b)[y, x] = min_z a[y, z] + b[z, x], bitwise as over every z.

    A min of floats is exact and each entry is the same float sum whatever
    order z is visited in, so a minimum over any superset of the minimising
    z is the full minimum. Each block of COMPOSE_ROWS rows visits only the
    union of its rows' candidates (_candidates), in tensors of at most
    COMPOSE_BLOCK entries. Potentials spanning a period or more keep well
    under 1 % of the z; short spans and free flow keep nearly all of them,
    and then each tensor holds whole rows, as in a dense compose.
    """
    if a.resolution != b.resolution:
        raise GridMismatch("composing matrices of different resolutions")
    n = a.resolution
    aa, bb = a.entries, b.entries
    out = np.empty((n, n))
    keep = _candidates(aa, _excess(bb), float(np.max(np.abs(bb))))
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
        pm.entries.flags.writeable = False  # one array serves every later lookup
        self._items[key] = pm
        self.nbytes += pm.entries.nbytes
        while self.nbytes > self.max_bytes:
            _, old = self._items.popitem(last=False)
            self.nbytes -= old.entries.nbytes
            self.evictions += 1


# a 512-point barrier and its 1024-point weak-KAM residual hold 70 MB
_POTENTIAL_CACHE = _PotentialCache(max_bytes=128 * 2**20)


def _single_step(h, s, t, n):
    """Midpoint-rule action of the straight segments y -> x + w, least over w.

    Node i of a segment sits at (1 - f_i) y + f_i (x + w), an outer sum of a
    start-point and an end-point term, which the family sums over the
    QUAD_NODES nodes in one pass (`segment_lagrangian`). Tonelli minimisers
    of a family without drift have bounded speed, so the useful w form one
    range around 0: each side walks out from 0 and stops at the first w that
    improves no entry.

    A custom L clipped at the momentum-box edge only lowers it, so a clipped loser
    loses unclipped too; a clipped winner raises MaximizerNotFound.
    """
    grid = np.arange(n) / n
    span = t - s
    taus = s + (np.arange(QUAD_NODES) + 0.5) * span / QUAD_NODES
    fracs = (taus - s) / span
    start = (1.0 - fracs)[:, None] * grid

    def action(w):
        vel = (grid[None, :] - grid[:, None] + w) / span
        acc, edge = h.ops.segment_lagrangian(h, taus, start, fracs[:, None] * (grid + w), vel)
        acc *= span / QUAD_NODES
        return acc, edge

    best, clipped = action(0)
    for side in (-1, 1):
        for w in count(side, side):
            acc, edge = action(w)
            better = acc < best
            if not better.any():
                break
            best = np.where(better, acc, best)
            if edge is not None:  # None: the family's L is never clipped
                clipped = np.where(better, edge, clipped)
    if np.any(clipped):
        raise MaximizerNotFound(f"{np.count_nonzero(clipped)} entries over [{s}, {t}] have an edge maximizer")
    return PotentialMatrix(s, t, best)


def _halving(h, s, t, max_span):
    """potential's key times (fractional start, span), and the midpoint it
    halves at, or None for one leaf: a single step, or a solvable family's."""
    fs, span = round(s - np.floor(s), 12), round(t - s, 12)
    leaf = h.ops.solvable(h) or span <= max_span + 1e-12
    return fs, span, None if leaf else fs + 0.5 * span


def potential(
    h: TonelliHamiltonian,
    s: float,
    t: float,
    n: int = 256,
    max_span: float = SINGLE_STEP_SPAN,
) -> PotentialMatrix:
    """Action potential matrix between times s < t on the n-point grid.

    Keyed and built at (Hamiltonian, fractional start of s, span t - s), both
    rounded to 12 digits; a span that rounding moves by more than SPAN_RTOL
    is refused. A solvable family's matrix is its closed form; the others
    compose single steps of at most max_span. A mechanical or shifted-quadratic
    H that does not depend on t is keyed and built at fractional start 0, so
    every start of a span shares one matrix. A custom callable keeps its
    start: its `autonomous` is a sampled test. The result carries the
    caller's s and t, and its entries are read-only.
    """
    if t <= s:
        raise NonpositiveDuration(f"need t > s, got [{s}, {t}]")
    if not max_span > 0:  # max_span <= 0 never reaches a single step
        raise ValueError(f"need max_span > 0, got {max_span}")
    fs, span, mid = _halving(h, s, t, max_span)
    if abs(span - (t - s)) > SPAN_RTOL * (t - s):  # a span keyed as 0 too, which a single step divides by
        raise NonpositiveDuration(f"the span t - s = {t - s!r} of [{s}, {t}] rounds to {span:.12g} at 12 digits")
    if h.family is not Family.CUSTOM and h.autonomous:  # T_{s,t} depends on t - s alone
        fs, span, mid = _halving(h, 0.0, span, max_span)
    key = (h, fs, span, n, max_span)
    hit = _POTENTIAL_CACHE.get(key)
    if hit is None:
        # built from the key alone, so an evicted matrix comes back with the same bits
        if mid is not None:
            hit = minplus_compose(potential(h, fs, mid, n, max_span), potential(h, mid, fs + span, n, max_span))
        elif h.ops.solvable(h):
            hit = PotentialMatrix(fs, fs + span, h.ops.potential(h, fs, fs + span, n))
        else:
            hit = _single_step(h, fs, fs + span, n)
        _POTENTIAL_CACHE.put(key, hit)
    return PotentialMatrix(s, t, hit.entries)


def _single_steps(h, s, t, n, max_span) -> list[PotentialMatrix]:
    """The leaves potential(h, s, t, ...) composes, in time order.

    Halves as `potential` does and fetches each leaf through it, with the
    arguments `potential` would pass, so the leaves share its cache keys and
    bits. Applying them one by one costs O(k n^2), against O(n^3) per compose.
    """
    fs, span, mid = _halving(h, s, t, max_span)
    if mid is None:
        return [potential(h, s, t, n, max_span)]
    return _single_steps(h, fs, mid, n, max_span) + _single_steps(h, mid, fs + span, n, max_span)


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


def _karp(a: np.ndarray) -> float:
    """The minimum cycle mean of the min-plus matrix a, by Karp's formula.

    D_k(x) is the least weight of a k-edge walk to x from anywhere (D_0 = 0,
    Karp's source joined to every node by a free edge), and the mean is
    min_x max_{k < n} (D_n(x) - D_k(x)) / (n - k) (Karp, Discrete Math. 23,
    1978): n vector-matrix products. Each visits only the z that can attain
    a minimum (_candidates, with D_k as the one row and a as the matrix),
    so it gives the same bits as visiting every z: one z for the pendulum's
    one-period potential, every z under free flow.
    """
    n = len(a)
    d = np.zeros((n + 1, n))
    excess, scale = _excess(a), float(np.max(np.abs(a)))
    for k in range(n):
        zs = np.flatnonzero(_candidates(d[k, None], excess, scale)[0])
        d[k + 1] = np.min(d[k, zs, None] + (a if len(zs) == n else a[zs]), axis=0)
    return float(np.min(np.max((d[n] - d[:n]) / (n - np.arange(n))[:, None], axis=0)))


def _star_barrier(a: np.ndarray, lam: float) -> np.ndarray:
    """min over critical c of A+[y, c] + A+[c, x], A+ the Kleene plus of a - lam.

    Floyd-Warshall forms A+ in place, n passes of n^2. An entry of A+ is a
    float sum of at most n terms of size at most M = max|a - lam|, which errs
    by less than (n - 1) (eps / 2) n M; n^2 eps M covers that twice. The
    entries of a and lam round on their own scale, max|a| + |lam|, which a
    constant offset of H inflates while M stays: a cycle of at most n steps
    gathers n eps (max|a| + |lam|) of that, the rest of the slack. The
    critical c, on a cycle of mean lam, have A+[c, c] within the slack of 0;
    a diagonal below it is a cycle of smaller mean, and none near 0 means lam
    is below every mean.
    """
    n = len(a)
    star = a - lam
    slack = n * _EPS * (n * float(np.max(np.abs(star))) + float(np.max(np.abs(a))) + abs(lam))
    for k in range(n):
        np.minimum(star, star[:, k, None] + star[k], out=star)
    diag = np.diag(star)
    least = float(diag.min())
    if not abs(least) <= slack:
        raise DivergenceDetected(f"A+ of a - {lam!r} has least diagonal {least!r}, beyond the slack {slack:.3g}")
    out = np.full((n, n), np.inf)
    for c in np.flatnonzero(diag <= slack):
        np.minimum(out, star[:, c, None] + star[c], out=out)
    return out


def _least_cycle_mean(h: TonelliHamiltonian, n: int, a: np.ndarray | None = None) -> float:
    """lambda, the minimum cycle mean of h's one-period potential on the
    n-point grid. A solvable family gives its closed form (its
    `least_cycle_mean` op), which no start moves and which builds no matrix;
    the others take Karp's formula on a, the one-period matrix, built from 0
    when None."""
    if h.ops.solvable(h):
        return h.ops.least_cycle_mean(h, n)
    return _karp(potential(h, 0.0, 1.0, n).entries if a is None else a)


def mane_critical_value(h: TonelliHamiltonian, n: int = 256) -> float:
    """The critical constant: minus the minimum cycle mean of the one-period
    potential (_least_cycle_mean), the least mean action per period of a grid
    cycle. A solvable family builds no potential for it."""
    return -_least_cycle_mean(h, n)


@dataclass(frozen=True)
class BarrierResult:
    matrix: PotentialMatrix
    alpha0: float  # the critical constant of the one-period potential, -lambda
    max_span: float  # the single-step span that built it


def peierls_barrier(h: TonelliHamiltonian, t: float, n: int = 256, max_span: float = SINGLE_STEP_SPAN) -> BarrierResult:
    """Peierls barrier from fractional time t to itself.

    With A the one-period potential from t and lambda its minimum cycle mean
    (_least_cycle_mean: the closed form for a solvable family, so lambda is
    the one mane_critical_value negates, bit for bit; Karp's formula on A
    otherwise), the liminf over integer horizons k of (A - lambda)^k, the
    critically normalized potentials from t to t + k, is
    min over critical c of A+[y, c] + A+[c, x] (_star_barrier): the discrete
    form of h(y, x) = min over the Aubry set of Phi(y, z) + Phi(z, x). Raises
    DivergenceDetected if rounding hides the critical cycles.
    """
    if not 0 <= t < 1:
        raise ValueError("fractional time t must lie in [0, 1)")
    a = potential(h, t, t + 1.0, n, max_span).entries
    lam = _least_cycle_mean(h, n, a)
    return BarrierResult(PotentialMatrix(t, t, _star_barrier(a, lam)), -lam, max_span)


def positive_weak_kam(
    h: TonelliHamiltonian,
    alpha0: float,
    anchor: int,
    t: float = 0.0,
    n: int = 256,
    barrier: BarrierResult | None = None,
):
    """Weak solution u(t, .) = -barrier(. -> anchor) + alpha0 * t.

    Without a barrier, builds the n-point one with the default single-step
    span; a given barrier sets the resolution, and n is unused. Returns the
    grid function and the fixed-point residual of the one-period positive
    operator on twice that resolution, built with the barrier's own
    single-step span, which vanishes for the exact barrier. The anchor is
    a grid index, 0 <= anchor < resolution.
    """
    resolution = n if barrier is None else barrier.matrix.resolution
    if not 0 <= anchor < resolution:
        raise ValueError(f"anchor {anchor} is not a grid index below {resolution}")
    if barrier is None:
        barrier = peierls_barrier(h, wrap_unit(t), n=n)
    u = GridFunction(-barrier.matrix.entries[:, anchor] + alpha0 * t)
    # fixed-point residual measured against a refined application of the
    # operator (doubled grid, cubic-interpolated input): the same-grid
    # identity is saturated by construction and would report only roundoff
    fine = 2 * resolution
    u_fine = GridFunction(u.eval(np.arange(fine) / fine))
    # the one-period operator applied leaf by leaf, latest first, by the
    # semigroup property T_{s,t} = T_{tau,t} o T_{s,tau}: no 2n-point compose
    leaves = _single_steps(h, wrap_unit(t), wrap_unit(t) + 1.0, fine, barrier.max_span)
    image = u_fine
    for leaf in reversed(leaves):
        image = lax_positive(image, leaf, alpha0)
    residual = float(np.max(np.abs(image.values - u_fine.values)))
    return u, residual


def clear_potential_cache() -> None:
    """Drop every cached potential and reset the counters."""
    _POTENTIAL_CACHE.clear()
