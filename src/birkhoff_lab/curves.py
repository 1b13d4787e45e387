"""Exact Lagrangian curves in T*T^1 as closed polylines with primitives.

Curves wind once around the base, as Lagrangians Hamiltonianly isotopic to the
zero section do: the lift closes one unit up, and storing it beside the wrapped
coordinate makes fold detection exact. Evolution flows nodes individually,
advances primitives by the per-node action integral, and resamples by
bisecting in the initial-condition parameter and re-flowing (never by
interpolating in phase space at the final time).

Distances to a curve are exact and need no spatial index from outside numpy:
`points_to_curve_distance` and `directed_hausdorff` search a hierarchy of
boxes over runs of consecutive segments, in the polyline's own order, from an
upper bound seeded by the segments whose midpoints bracket each point in q.
Boxes farther than the bound are dropped, and `directed_hausdorff` also drops
every point whose bound is under a lower bound on the largest distance.
"""

from __future__ import annotations

from dataclasses import dataclass
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
SPACING = 2e-3  # phase-space resampling gap of every evolved curve
NODE_CAP = 2**16  # a curve stretched past this is reported as a blow-up, not refined
PAIR_BLOCK = 2**14  # candidate point-box pairs taken at once
FAN = 4  # runs of segments, or segments, under each box of the hierarchy


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


def graph_selector(curve: LagrangianCurve, n: int) -> GridFunction:
    """The least primitive over the sheets of the curve above each point of
    the n-point grid.

    For an exact curve flowed from graph(dv) under a Tonelli H, with its
    primitive advanced by the action, this is the Lax-Oleinik value T^- v,
    folds included: the minimax graph selector (Viterbo, "Solutions of
    Hamilton-Jacobi equations and symplectic geometry", 1996). Each segment
    of the closed lift covers a run of grid points, in any winding; the runs
    are laid out by np.repeat over their lengths, in O(nodes + crossings)
    memory. The primitive is extended along each segment as _initial_state
    does, and np.minimum.at keeps the least value above each point.
    """
    lift = curve.closed_lift()
    p = curve.closed_p()
    l0, l1 = lift[:-1], lift[1:]
    first = np.ceil(np.minimum(l0, l1) * n).astype(np.intp)
    count = np.maximum(np.floor(np.maximum(l0, l1) * n).astype(np.intp) - first + 1, 0)
    j = np.repeat(np.arange(len(l0)), count)
    k = first[j] + np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count)
    x, dl = k / n, l1[j] - l0[j]
    frac = np.where(dl != 0, (x - l0[j]) / np.where(dl != 0, dl, 1.0), 0.0)
    pi = p[j] + frac * (p[j + 1] - p[j])
    least = np.full(n, np.inf)
    np.minimum.at(least, k % n, curve.primitive[j] + 0.5 * (p[j] + pi) * (x - l0[j]))
    return GridFunction(least)


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
    changes that gap. The last node kept before i is i - 1 unless that went:
    then its gap is gaps[i - 1], and its join over i - 1 is one vectorised
    np.hypot for every candidate. A node after a drop takes its own pair from
    the last node kept, the same np.hypot on scalars.
    """
    third = spacing / 3
    cand = np.flatnonzero(gaps[1:] < third) + 1
    gap_join = np.hypot(lift_c[cand + 1] - lift_c[cand - 1], p_c[cand + 1] - p_c[cand - 1])
    goes = ((gaps[cand - 1] < third) & (gap_join <= spacing)).tolist()
    drop: list[int] = []
    prev = 0
    for i, go in zip(cand.tolist(), goes):
        if len(gaps) - len(drop) <= MIN_NODES:
            break
        if not drop or drop[-1] != i - 1:
            prev = i - 1
        else:
            gap_prev = np.hypot(lift_c[i] - lift_c[prev], p_c[i] - p_c[prev])
            go = gap_prev < third and np.hypot(lift_c[i + 1] - lift_c[prev], p_c[i + 1] - p_c[prev]) <= spacing
        if go:
            drop.append(i)
    return drop


def evolve(
    h: TonelliHamiltonian,
    curve: LagrangianCurve,
    s: float,
    t: float,
    settings: FlowSettings = FlowSettings(),
) -> LagrangianCurve:
    """Flow the curve from time s to t, transporting the primitive.

    Each node follows the Hamiltonian flow and its primitive value advances by
    the action integral along its own trajectory. Adjacent nodes whose
    phase-space gap exceeds SPACING trigger midpoint insertion: the midpoint
    is taken on the *initial* curve (parameter bisection) and re-flowed, which
    keeps inserted nodes on the evolved invariant curve under stretching.
    Then one scan in node order coarsens: it drops node i >= 1 when its gap to
    the last node kept before it and its gap to node i + 1 (node 0 one turn
    up, after the last node) are under SPACING/3, the gap from that kept node
    to node i + 1 is at most SPACING, and more than MIN_NODES nodes remain.
    Resampling past NODE_CAP nodes raises ResamplingBudgetExceeded, a loop
    integral off zero ExactnessLost.
    """
    thetas = np.arange(curve.n_nodes) / curve.n_nodes
    lift_t, p_t, act = integrate_batch(h, curve.q_lift, curve.p, s, t, settings)
    h_t = curve.primitive + act

    for _round in range(64):
        lift_c, p_c = np.append(lift_t, lift_t[0] + 1), np.append(p_t, p_t[0])
        gaps = np.hypot(np.diff(lift_c), np.diff(p_c))
        need = np.nonzero(gaps > SPACING)[0]
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

    drop = _coarsened(lift_c, p_c, gaps, SPACING)
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


def _segment_index(b: LagrangianCurve):
    """Segment ends (l1, p1), (l2, p2) and lifted midpoints of b, a box
    hierarchy over them, and the segments in order of wrapped midpoint q.

    levels[k] holds the boxes (lo_q, hi_q, lo_p, hi_p), in lifted q and in p,
    of the runs of FAN**k consecutive segments in b's own order, so the
    hierarchy needs no sort; the last level is one box over every segment.
    """
    lb = b.closed_lift()
    pb = b.closed_p()
    l1, l2 = lb[:-1], lb[1:]
    p1, p2 = pb[:-1], pb[1:]
    mid = 0.5 * (l1 + l2)
    boxes = (np.minimum(l1, l2), np.maximum(l1, l2), np.minimum(p1, p2), np.maximum(p1, p2))
    levels = [boxes]
    while len(boxes[0]) > 1:
        runs = np.arange(0, len(boxes[0]), FAN)
        boxes = tuple(f.reduceat(x, runs) for f, x in zip((np.minimum, np.maximum) * 2, boxes))
        levels.append(boxes)
    return (l1, p1, l2, p2, mid), levels, np.argsort(wrap_unit(mid), kind="stable")


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


def _box_gap(boxes, c, qs, ps) -> np.ndarray:
    """Distances from wrapped points (qs, ps) to boxes c: the torus gap to
    the box in q (0 once the box spans a turn) and the gap in p."""
    lo_q, hi_q, lo_p, hi_p = boxes
    r = wrap_unit(qs - lo_q[c])
    gap_q = np.maximum(np.minimum(r - (hi_q[c] - lo_q[c]), 1.0 - r), 0.0)
    gap_p = np.maximum(np.maximum(lo_p[c] - ps, ps - hi_p[c]), 0.0)
    return np.hypot(gap_q, gap_p)


def _node_bound(segments, j, qs, ps, slack) -> np.ndarray:
    """Upper bounds on the distances from wrapped points (qs, ps) to b: the
    distance to the first node of segment j, in the chart of the segment's
    midpoint (at least the distance to segment j), times 1 + 1e-9 plus the
    slack."""
    l1, p1, _, _, mid = segments
    return np.hypot(l1[j] - np.round(mid[j] - qs) - qs, p1[j] - ps) * (1.0 + 1e-9) + slack


def _groups(i: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of i starts."""
    new = np.empty(len(i), bool)
    new[:1] = True
    np.not_equal(i[1:], i[:-1], out=new[1:])
    return np.flatnonzero(new)


def _nearest_sq(q, p, b: LagrangianCurve, farthest: bool = False) -> np.ndarray:
    """Squared distances from phase points (q, p) to b, bitwise those of the
    all-pairs search; with `farthest`, a point that cannot hold the largest
    distance reads -inf instead. Raises ValueError unless the points and the
    nodes of b are finite.

    Each point carries an upper bound u on its distance, and (point, box)
    pairs descend the hierarchy of _segment_index from its one top box. A
    box's gap to the point is at most its distance to any segment in the
    box, so a box whose gap exceeds u holds no nearest segment and is
    dropped; the first node of each box kept tightens u. At the bottom the
    boxes are segments, projected onto by _pair_sq, the same float
    expressions as over all segments, over a superset of the nearest ones.
    u starts at the distance to the first node of b or to either segment
    whose wrapped midpoint brackets the point in q, whichever is less. Every
    upper bound is scaled by 1 + 1e-9 and given 1e-12 (1 + |p| + max |p_b|)
    of slack, which covers rounding in each distance: a few ulps of
    coordinates bounded by a few units in q and by |p| in p.

    With `farthest`, points are taken in decreasing order of u, in batches
    that double from 64, and a point's least box gap, less the same slack,
    bounds its distance from below. A point whose u is under the largest
    such bound or exact distance seen so far cannot hold the largest
    distance, and its search stops (Taha & Hanbury, IEEE TPAMI 37, 2015).

    The pairs of each point stay together, and a batch whose children
    would exceed PAIR_BLOCK pairs is halved between points first, so memory
    is bounded whatever the curve.
    """
    q = np.asarray(q, dtype=float)
    pa = np.asarray(p, dtype=float)
    segments, levels, by_q = _segment_index(b)
    if not all(np.isfinite(x).all() for x in (q, pa, segments[0], segments[1])):
        raise ValueError("phase points and curve nodes must be finite")
    qa = wrap_unit(q)
    m = len(segments[0])
    slack = 1e-12 * (1.0 + np.abs(pa) + np.max(np.abs(segments[1])))
    mq = wrap_unit(segments[4])[by_q]
    batch = PAIR_BLOCK // FAN
    u = np.empty(len(qa))
    for i0 in range(0, len(qa), batch):
        i = slice(i0, i0 + batch)
        k = np.searchsorted(mq, qa[i])
        near = np.minimum(_pair_sq(segments, by_q[k - 1], qa[i], pa[i]), _pair_sq(segments, by_q[k % m], qa[i], pa[i]))
        first = _node_bound(segments, np.zeros(len(k), np.intp), qa[i], pa[i], slack[i])
        u[i] = np.minimum(np.sqrt(near) * (1.0 + 1e-9) + slack[i], first)
    order, edges, size = np.arange(len(qa)), [0], batch
    if farthest:
        order, size = np.argsort(-u, kind="stable"), 64
    while edges[-1] < len(qa):
        edges.append(min(edges[-1] + size, len(qa)))
        size = min(2 * size, batch)
    stack = [(len(levels) - 1, order[a:z], np.zeros(z - a, np.intp)) for a, z in zip(edges[-2::-1], edges[:0:-1])]
    best = np.full(len(qa), np.inf)
    floor = -np.inf  # with farthest: at most the largest distance
    while stack:
        level, i, c = stack.pop()
        if farthest:
            gone = u[i] < floor
            best[i[gone]] = -np.inf
            i, c = i[~gone], c[~gone]
        if len(i) == 0:
            continue
        if len(i) > batch and i[0] != i[-1]:
            starts = _groups(i)[1:]
            cut = starts[min(np.searchsorted(starts, len(i) // 2), len(starts) - 1)]
            stack += [(level, i[cut:], c[cut:]), (level, i[:cut], c[:cut])]
            continue
        level -= 1
        boxes = levels[level]
        i = np.repeat(i, FAN)
        c = (FAN * c[:, None] + np.arange(FAN)).ravel()
        real = c < len(boxes[0])
        i, c = i[real], c[real]
        gap = _box_gap(boxes, c, qa[i], pa[i])
        keep = gap <= u[i]
        i, c, gap = i[keep], c[keep], gap[keep]
        starts = _groups(i)
        pts = i[starts]
        if level == 0:
            best[pts] = np.minimum.reduceat(_pair_sq(segments, c, qa[i], pa[i]), starts)
            if farthest:
                floor = max(floor, float(np.sqrt(np.max(best[pts]))))
            continue
        anchor = _node_bound(segments, c * FAN**level, qa[i], pa[i], slack[i])
        u[pts] = np.minimum(u[pts], np.minimum.reduceat(anchor, starts))
        keep = gap <= u[i]
        i, c, gap = i[keep], c[keep], gap[keep]
        if farthest:
            starts = _groups(i)
            floor = max(floor, float(np.max(np.minimum.reduceat(gap, starts) * (1.0 - 1e-9) - slack[i[starts]])))
        stack.append((level, i, c))
    return best


def points_to_curve_distance(q: np.ndarray, p: np.ndarray, b: LagrangianCurve) -> np.ndarray:
    """Exact distances from phase points to the closed polyline b.

    Each distance is the minimum, over the segments of b, of the exact
    point-to-segment distance (torus metric in q, Euclidean in p), with each
    segment unwrapped into the chart of the query point: the winding image
    whose midpoint is nearest in q and the two adjacent ones.

    Only candidate segments are projected onto: a box hierarchy over runs of
    consecutive segments of b drops every run whose box lies farther from the
    point than an upper bound on its distance (_nearest_sq). The candidates
    left include every nearest segment, and the projections are the same
    float expressions as over all segments, so the distances are bitwise
    those of the all-pairs search.
    """
    return np.sqrt(_nearest_sq(q, p, b))


def directed_hausdorff(q: np.ndarray, p: np.ndarray, b: LagrangianCurve) -> float:
    """max(points_to_curve_distance(q, p, b)), taking exact distances only
    for the points that can raise it.

    The search of points_to_curve_distance also bounds each point's
    distance from below by its least box gap. A point whose upper bound is
    under the largest lower bound, or under an exact distance already taken,
    cannot raise the max, so its search stops (_nearest_sq). The point that
    holds the max never stops, and its distance is the one of the all-pairs
    search, bitwise. Raises EmptyInput on an empty point set.
    """
    if len(q) == 0:
        raise EmptyInput("directed Hausdorff distance from an empty point set")
    return float(np.sqrt(np.max(_nearest_sq(q, p, b, farthest=True))))


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
