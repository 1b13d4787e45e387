"""Exact Lagrangian curves in T*T^1 as closed polylines with primitives.

Curves wind once around the base, as Lagrangians Hamiltonianly isotopic to the
zero section do: the lift closes one unit up, and storing it beside the wrapped
coordinate makes fold detection exact. Evolution flows nodes individually,
advances primitives by the per-node action integral, and resamples by
bisecting in the initial-condition parameter and re-flowing (never by
interpolating in phase space at the final time).

`points_to_curve_distance` and `directed_hausdorff` import `scipy.spatial` on
first use, so a process that flows curves but never measures a distance
between them does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInput,
    ExactnessLost,
    ResamplingBudgetExceeded,
    TooFewSamples,
)
from .flow import FlowSettings, integrate_batch
from .grids import GridFunction
from .hamiltonians import TonelliHamiltonian, wrap_unit
from .textio import write_csv

MIN_NODES = 16
NODE_CAP = 2**16  # a curve stretched past this is reported as a blow-up, not refined
PAIR_BLOCK = 2**14  # candidate point-segment pairs evaluated at once


@dataclass(frozen=True)
class LagrangianCurve:
    """Closed polyline (q_lift, p) with its primitive, winding once."""

    q_lift: np.ndarray
    p: np.ndarray
    primitive: np.ndarray

    def __post_init__(self):
        ql = np.asarray(self.q_lift, dtype=float)
        pp = np.asarray(self.p, dtype=float)
        h = np.asarray(self.primitive, dtype=float)
        object.__setattr__(self, "q_lift", ql)
        object.__setattr__(self, "p", pp)
        object.__setattr__(self, "primitive", h)
        if len(ql) < MIN_NODES:
            raise TooFewSamples(f"curve needs >= {MIN_NODES} nodes, got {len(ql)}")
        if len(ql) != len(pp):
            raise ValueError("q and p lengths differ")
        if len(h) != len(ql):
            raise ValueError("primitive length differs from node count")

    @property
    def n_nodes(self) -> int:
        return len(self.q_lift)

    @property
    def q(self) -> np.ndarray:
        return wrap_unit(self.q_lift)

    def closed_lift(self) -> np.ndarray:
        """Lift with the first node repeated one turn up (length n+1)."""
        return np.append(self.q_lift, self.q_lift[0] + 1)

    def closed_p(self) -> np.ndarray:
        return np.append(self.p, self.p[0])

    def length(self) -> float:
        dl = np.diff(self.closed_lift())
        dp = np.diff(self.closed_p())
        return float(np.sum(np.hypot(dl, dp)))


@dataclass(frozen=True)
class FoldReport:
    is_graph: bool
    fold_parameters: tuple[int, ...]
    min_projection_jacobian: float


def loop_integral(curve: LagrangianCurve) -> float:
    """Trapezoidal circulation of p dq around the closed polyline."""
    dl = np.diff(curve.closed_lift())
    pc = curve.closed_p()
    return float(np.sum(0.5 * (pc[:-1] + pc[1:]) * dl))


def exactness_defects(curve: LagrangianCurve) -> np.ndarray:
    """Per-segment residuals of the discrete identity dh = p dq (trapezoid)."""
    dl = np.diff(curve.closed_lift())
    pc = curve.closed_p()
    hc = np.append(curve.primitive, curve.primitive[0])
    return (hc[1:] - hc[:-1]) - 0.5 * (pc[:-1] + pc[1:]) * dl


def oscillation(values: Sequence[float]) -> float:
    """max - min of a nonempty sequence."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("oscillation of an empty sequence")
    return float(np.max(arr) - np.min(arr))


def from_potential(u: GridFunction, derivative: str = "spectral") -> LagrangianCurve:
    """Graph of du with primitive u sampled on the grid of u.

    Uses trigonometric-interpolation differentiation by default (exact for
    trig polynomials below Nyquist); central differences are more robust for
    kinked inputs.
    """
    if u.resolution < MIN_NODES:
        raise TooFewSamples(f"need >= {MIN_NODES} samples, got {u.resolution}")
    if derivative == "spectral":
        du = u.spectral_derivative()
    elif derivative == "central":
        du = u.central_derivative()
    else:
        raise ValueError(f"unknown derivative rule {derivative!r}")
    return LagrangianCurve(q_lift=u.nodes.copy(), p=du, primitive=u.values.copy())


def graph_check(curve: LagrangianCurve) -> FoldReport:
    """Scan forward differences of the lift for direction reversals."""
    diffs = np.diff(curve.closed_lift())
    min_jac = float(np.min(diffs))
    signs = np.sign(diffs)
    prev = np.roll(signs, 1)
    folds = tuple(int(i) for i in np.nonzero((signs * prev <= 0) | (signs == 0))[0])
    return FoldReport(is_graph=(min_jac > 0), fold_parameters=folds, min_projection_jacobian=min_jac)


def reduced_complexity_gauge(curve: LagrangianCurve, limit_potential: GridFunction) -> float:
    """Oscillation of the transported primitive against the limit potential.

    For a limit Lagrangian that is the graph of du, the fiber shear by du is
    the Hamiltonian map carrying it to the zero section, and the transported
    primitive of the curve is node-wise h - u(q); its oscillation is the
    convergence gauge, independent of either additive constant.
    """
    u_at_nodes = limit_potential.eval(curve.q)
    return oscillation(curve.primitive - u_at_nodes)


# ---------------------------------------------------------------------------
# evolution


def _initial_state(curve: LagrangianCurve, thetas: np.ndarray):
    """Piecewise-linear state of the initial polyline at parameters in [0,1).

    Primitives are extended trapezoid-consistently along each segment.
    """
    n = curve.n_nodes
    lift = curve.closed_lift()
    p = curve.closed_p()
    x = np.asarray(thetas) * n
    j = np.minimum(x.astype(int), n - 1)
    frac = x - j
    l0, l1 = lift[j], lift[j + 1]
    p0, p1 = p[j], p[j + 1]
    li = l0 + frac * (l1 - l0)
    pi = p0 + frac * (p1 - p0)
    return li, pi, curve.primitive[j] + 0.5 * (p0 + pi) * (li - l0)


def _coarsened(lift_c, p_c, gaps, spacing: float) -> list[int]:
    """The nodes evolve's coarsening drops, from the closed arrays and gaps.

    Only a node whose gap to the next is under spacing/3 can go, and no drop
    changes that gap. The last node kept before i is i - 1 unless that went.
    """
    drop: list[int] = []
    prev = 0
    for i in (np.flatnonzero(gaps[1:] < spacing / 3) + 1).tolist():
        if len(gaps) - len(drop) <= MIN_NODES:
            break
        if not drop or drop[-1] != i - 1:
            prev = i - 1
        gap_prev = np.hypot(lift_c[i] - lift_c[prev], p_c[i] - p_c[prev])
        gap_join = np.hypot(lift_c[i + 1] - lift_c[prev], p_c[i + 1] - p_c[prev])
        if gap_prev < spacing / 3 and gap_join <= spacing:
            drop.append(i)
    return drop


def evolve(
    h: TonelliHamiltonian,
    curve: LagrangianCurve,
    s: float,
    t: float,
    settings: FlowSettings = FlowSettings(),
    spacing: float = 0.02,
) -> LagrangianCurve:
    """Flow the curve from time s to t, transporting the primitive.

    Each node follows the Hamiltonian flow and its primitive value advances by
    the action integral along its own trajectory. Adjacent nodes whose
    phase-space gap exceeds `spacing` trigger midpoint insertion: the midpoint
    is taken on the *initial* curve (parameter bisection) and re-flowed, which
    keeps inserted nodes on the evolved invariant curve under stretching.
    Then one scan in node order coarsens: it drops node i >= 1 when its gap to
    the last node kept before it and its gap to node i + 1 (node 0 one turn
    up, after the last node) are under spacing/3, the gap from that kept node
    to node i + 1 is at most `spacing`, and more than MIN_NODES nodes remain.
    Resampling past NODE_CAP nodes raises ResamplingBudgetExceeded, a loop
    integral off zero ExactnessLost.
    """
    thetas = np.arange(curve.n_nodes) / curve.n_nodes
    lift_t, p_t, act = integrate_batch(h, curve.q_lift, curve.p, s, t, settings)
    h_t = curve.primitive + act

    for _round in range(64):
        lift_c, p_c = np.append(lift_t, lift_t[0] + 1), np.append(p_t, p_t[0])
        gaps = np.hypot(np.diff(lift_c), np.diff(p_c))
        need = np.nonzero(gaps > spacing)[0]
        if len(need) == 0:
            break
        if len(thetas) + len(need) > NODE_CAP:
            raise ResamplingBudgetExceeded(
                f"resampling wants {len(thetas) + len(need)} nodes (cap {NODE_CAP})"
            )
        mid_thetas = 0.5 * (thetas[need] + np.append(thetas, thetas[0] + 1.0)[need + 1])
        li, pi, hi = _initial_state(curve, wrap_unit(mid_thetas))
        lm, pm, am = integrate_batch(h, li + np.floor(mid_thetas), pi, s, t, settings)
        pairs = ((thetas, mid_thetas), (lift_t, lm), (p_t, pm), (h_t, hi + am))
        thetas, lift_t, p_t, h_t = (np.insert(x, need + 1, m) for x, m in pairs)  # after the node bisected from
    else:
        raise ResamplingBudgetExceeded("refinement did not settle in 64 rounds")

    drop = _coarsened(lift_c, p_c, gaps, spacing)
    lift_t, p_t, h_t = (np.delete(x, drop) for x in (lift_t, p_t, h_t))

    out = LagrangianCurve(lift_t - np.floor(lift_t[0]), p_t, h_t)
    tol = 1e-6 * max(1.0, out.length()) * (1.0 + float(np.max(np.abs(out.p))))
    if abs(loop_integral(out)) > 50 * tol:
        raise ExactnessLost("exactness lost during evolution; refine spacing or steps")
    return out


# ---------------------------------------------------------------------------
# Hausdorff distance


def _point_segment_sq(dx1, dy1, dx2, dy2):
    """Squared distance from the origin to segments (dx1,dy1)-(dx2,dy2)."""
    ex, ey = dx2 - dx1, dy2 - dy1
    ee = ex * ex + ey * ey
    tt = np.where(ee > 0, -(dx1 * ex + dy1 * ey) / np.where(ee > 0, ee, 1.0), 0.0)
    tt = np.clip(tt, 0.0, 1.0)
    px, py = dx1 + tt * ex, dy1 + tt * ey
    return px * px + py * py


def _segment_tree(b: LagrangianCurve):
    """Segment ends (l1, p1), (l2, p2) and lifted midpoints of b, and a
    KD-tree on the wrapped midpoints and their images at q +- 1."""
    # imported here: scipy.spatial takes about half a second to import, and
    # only points_to_curve_distance and directed_hausdorff need it
    from scipy.spatial import cKDTree

    lb = b.closed_lift()
    pb = b.closed_p()
    l1, l2 = lb[:-1], lb[1:]
    p1, p2 = pb[:-1], pb[1:]
    mid = 0.5 * (l1 + l2)
    mq = wrap_unit(mid)
    tree = cKDTree(np.column_stack([np.concatenate([mq - 1.0, mq, mq + 1.0]), np.tile(0.5 * (p1 + p2), 3)]))
    return (l1, p1, l2, p2, mid), tree


def _pair_sq(segments, j, qs, ps) -> np.ndarray:
    """Squared distances from wrapped points (qs, ps) to segments j of b,
    each unwrapped into the point's chart and the two adjacent ones."""
    l1, p1, l2, p2, mid = segments
    w = np.round(mid[j] - qs)
    d2 = np.full(len(j), np.inf)
    for dw in (-1.0, 0.0, 1.0):
        sh = w + dw
        d2 = np.minimum(d2, _point_segment_sq(l1[j] - sh - qs, p1[j] - ps, l2[j] - sh - qs, p2[j] - ps))
    return d2


def points_to_curve_distance(q: np.ndarray, p: np.ndarray, b: LagrangianCurve) -> np.ndarray:
    """Exact distances from phase points to the closed polyline b.

    Each distance is the minimum, over the segments of b, of the exact
    point-to-segment distance (torus metric in q, Euclidean in p), with each
    segment unwrapped into the chart of the query point: the winding image
    whose midpoint is nearest in q and the two adjacent ones.

    Only candidate segments are projected onto. The wrapped segment midpoints
    and their images at q +- 1 are indexed in a KD-tree. The distance d_nn
    from the point to the nearest midpoint image bounds the answer, since a
    midpoint lies on its segment. A segment none of whose midpoint images lies
    within d_nn + (largest segment half-length) of the point is farther than
    d_nn, so it is skipped. The projections are the same float expressions as
    over all segments, so the distances are bitwise those of the all-pairs
    search.
    """
    qa = wrap_unit(np.asarray(q, dtype=float))
    pa = np.asarray(p, dtype=float)
    best = np.full(len(qa), np.inf)
    if len(qa) == 0:
        return best
    segments, tree = _segment_tree(b)
    l1, p1, l2, p2, _ = segments
    m = len(l1)
    points = np.column_stack([qa, pa])
    d_nn = tree.query(points)[0]
    half = 0.5 * float(np.max(np.hypot(l2 - l1, p2 - p1)))
    # the slack covers rounding in every distance involved: a few ulps of
    # coordinates bounded by 3 in q and by |p| in p
    radius = (d_nn + half) * (1.0 + 1e-9) + 1e-12 * (1.0 + np.abs(pa) + np.max(np.abs(p1)))
    # blocks of points with at most PAIR_BLOCK candidate pairs (plus one
    # point's) keep memory bounded whatever the curve
    pairs = np.cumsum(tree.query_ball_point(points, radius, return_length=True))
    cuts = np.searchsorted(pairs, np.arange(PAIR_BLOCK, pairs[-1], PAIR_BLOCK), side="right")
    for i0, i1 in zip([0, *cuts], [*cuts, len(qa)]):
        near = tree.query_ball_point(points[i0:i1], radius[i0:i1], return_sorted=False)
        counts = np.fromiter(map(len, near), np.intp, len(near))
        i = np.repeat(np.arange(i0, i1), counts)
        j = np.fromiter(chain.from_iterable(near), np.intp, int(counts.sum())) % m
        np.minimum.at(best, i, _pair_sq(segments, j, qa[i], pa[i]))
    return np.sqrt(best)


def directed_hausdorff(q: np.ndarray, p: np.ndarray, b: LagrangianCurve) -> float:
    """max(points_to_curve_distance(q, p, b)), taking exact distances only
    for the points that can raise it.

    A point's nearest midpoint image belongs to one of its candidate
    segments, so its distance to that segment, in the same float expressions,
    is at least its exact distance, bitwise. Points are visited in decreasing
    order of this bound, in blocks that double from 64, until no bound left
    exceeds the running max (Taha & Hanbury, IEEE TPAMI 37, 2015). Raises
    EmptyInput on an empty point set.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(q) == 0:
        raise EmptyInput("directed Hausdorff distance from an empty point set")
    # points_to_curve_distance wraps q itself, and wrapping twice can move a
    # point: wrap_unit(-1e-17) is 1.0, and wrap_unit(1.0) is 0.0
    qa = wrap_unit(q)
    segments, tree = _segment_tree(b)
    j = tree.query(np.column_stack([qa, p]))[1] % len(segments[0])
    bound = np.sqrt(_pair_sq(segments, j, qa, p))
    order = np.argsort(-bound, kind="stable")
    best, i0, size = -np.inf, 0, 64
    while i0 < len(order) and bound[order[i0]] > best:
        block = order[i0 : i0 + size]
        best = max(best, float(np.max(points_to_curve_distance(q[block], p[block], b))))
        i0, size = i0 + size, 2 * size
    return best


def hausdorff_distance(a: LagrangianCurve, b: LagrangianCurve) -> float:
    """Symmetric Hausdorff distance between closed polylines, taken at nodes.

    The value is the maximum, over the nodes of either curve, of the exact
    node-to-polyline distance to the other curve (directed_hausdorff).
    Points inside segments are not visited, so the value can fall below the
    Hausdorff distance of the polylines as sets, by at most half the longest
    segment.
    """
    return max(directed_hausdorff(a.q, a.p, b), directed_hausdorff(b.q, b.p, a))


# ---------------------------------------------------------------------------
# serialization


def curve_to_csv(curve: LagrangianCurve, path) -> None:
    """Write `index,q,p,h` rows."""
    write_csv(path, ["index", "q", "p", "h"], [np.arange(curve.n_nodes), curve.q, curve.p, curve.primitive])


def curve_from_csv(path) -> LagrangianCurve:
    """Read a curve written by curve_to_csv: rows in index order.

    Raises ValueError on another header, a blank or malformed cell, or an
    index column that does not read 0, 1, ..., n - 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "index,q,p,h":
            raise ValueError(f"unexpected curve CSV header {header!r}")
        row = np.dtype([("index", np.int64), ("q", float), ("p", float), ("h", float)])
        rows = np.loadtxt(fh, delimiter=",", dtype=row, ndmin=1)
    wrong = np.flatnonzero(rows["index"] != np.arange(len(rows)))
    if len(wrong):
        k = wrong[0]
        raise ValueError(
            f"{path}: row {k} holds index {rows['index'][k]}; the rows must list indices "
            f"0 to {len(rows) - 1} in order, none missing or repeated"
        )
    return LagrangianCurve(_lift_from_wrapped(rows["q"]), rows["p"].copy(), rows["h"].copy())


def _lift_from_wrapped(q: np.ndarray) -> np.ndarray:
    """Continuous lift of wrapped samples, assuming steps shorter than 1/2."""
    dq = np.diff(q)
    jumps = np.round(dq)
    lift = np.concatenate([[q[0]], q[0] + np.cumsum(dq - jumps)])
    return lift
