import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from birkhoff_lab.curves import (
    MIN_NODES,
    LagrangianCurve,
    curve_from_csv,
    curve_to_csv,
    directed_hausdorff,
    evolve,
    exactness_defects,
    from_potential,
    graph_check,
    graph_selector,
    hausdorff_distance,
    loop_integral,
    oscillation,
    points_to_curve_distance,
    reduced_complexity_gauge,
    _coarsened,
    _point_segment_sq,
)
from birkhoff_lab.errors import (
    EmptyInput,
    ResamplingBudgetExceeded,
    TooFewSamples,
)
from birkhoff_lab.flow import FlowSettings
from birkhoff_lab.grids import GridFunction, grid_from_trig
from birkhoff_lab.hamiltonians import TrigPolynomial, free_hamiltonian, shifted_quadratic, wrap_unit

FREE = free_hamiltonian()


def sine_potential(amp, n=1024, harmonic=1):
    return grid_from_trig(TrigPolynomial.from_coeffs([(0, harmonic, 0.0, amp)]), n)


def zero_section(n=64):
    return LagrangianCurve(np.arange(n) / n, np.zeros(n), np.zeros(n))


def test_from_potential_zero():
    c = from_potential(GridFunction(np.zeros(64)))
    assert np.all(c.p == 0) and np.all(c.primitive == 0)
    assert graph_check(c).is_graph


def test_from_potential_sine():
    a = 0.1
    u = sine_potential(a, 64)
    c = from_potential(u)
    expect = 2 * np.pi * a * np.cos(2 * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(c.p - expect)) <= 1e-12
    assert abs(loop_integral(c)) <= 1e-10
    assert oscillation(c.primitive) == pytest.approx(u.oscillation(), abs=1e-12)


def test_from_potential_too_few():
    with pytest.raises(TooFewSamples):
        from_potential(GridFunction(np.zeros(8)))


def test_oscillation():
    assert oscillation([3.0, 3.0, 3.0]) == 0.0
    assert oscillation(np.sin(2 * np.pi * np.arange(16) / 16)) == pytest.approx(2.0)
    assert oscillation([-1.0, 3.0, 0.5]) == 4.0
    with pytest.raises(EmptyInput):
        oscillation([])


def test_evolve_matches_characteristics():
    a = 0.1
    c0 = from_potential(sine_potential(a, 2048))
    c1 = evolve(FREE, c0, 0, 0.2, FlowSettings(), spacing=1e-3)
    qs = np.arange(8192) / 8192
    du = 2 * np.pi * a * np.cos(2 * np.pi * qs)
    char = LagrangianCurve(qs + 0.2 * du, du, np.zeros(8192))
    assert hausdorff_distance(c1, char) <= 1e-5


SHOCK_AMP = 1 / (2 * np.pi**2)  # v = SHOCK_AMP sin(2 pi q) folds under free flow before t = 1


def _hopf_lax(x, k):
    """min over y of v(y) + (x - y)^2 / (2k), v the shock profile: the time-k
    free-flow value. Every minimiser lies within k max|v'| = k/pi of x, so
    y = x + s with |s| <= 1 for k <= 3 covers every winding. Each sample of
    s is polished by Newton steps, and any y bounds the min from above."""
    s = np.linspace(-1.0, 1.0, 2049)
    y = x[:, None] + s
    for _ in range(8):
        dv = 2 * np.pi * SHOCK_AMP * np.cos(2 * np.pi * y)
        d2v = -4 * np.pi**2 * SHOCK_AMP * np.sin(2 * np.pi * y)
        y = y - (dv - (x[:, None] - y) / k) / (d2v + 1 / k)
    y = np.concatenate([x[:, None] + s, y], axis=1)
    return np.nanmin(SHOCK_AMP * np.sin(2 * np.pi * y) + (x[:, None] - y) ** 2 / (2 * k), axis=1)


@pytest.mark.parametrize("n", [64, 256])
def test_graph_selector_is_the_hopf_lax_value_through_folds(n):
    x = np.arange(n) / n
    cur = from_potential(sine_potential(SHOCK_AMP))
    for k in (1, 2, 3):
        cur = evolve(FREE, cur, k - 1.0, float(k), FlowSettings(), spacing=2e-3)
        assert not graph_check(cur).is_graph
        assert np.max(np.abs(graph_selector(cur, n).values - _hopf_lax(x, k))) <= 1e-8


def test_graph_selector_of_a_graph_is_its_primitive():
    # each grid point is a node, reached at its own primitive and at the
    # trapezoid extension of the segment before it, which differs from it
    # by that segment's exactness defect
    u = sine_potential(0.1, 64, harmonic=3)
    c = from_potential(u)
    sel = graph_selector(c, 64).values
    assert np.all(sel <= u.values)
    assert np.max(u.values - sel) <= np.max(np.abs(exactness_defects(c))) * (1 + 1e-9)
    assert np.array_equal(graph_selector(c, 16).values, sel[::4])


def test_graph_selector_takes_the_least_sheet():
    # the time-1 free flow of the shock profile has three sheets over an
    # arc, and the greatest is minus the selector of the curve with p and h
    # negated
    c = evolve(FREE, from_potential(sine_potential(SHOCK_AMP)), 0.0, 1.0, FlowSettings(), spacing=2e-3)
    neg = LagrangianCurve(c.q_lift, -c.p, -c.primitive)
    least, greatest = graph_selector(c, 256).values, -graph_selector(neg, 256).values
    assert np.all(least <= greatest)
    assert np.max(greatest - least) > 1e-3
    dense = graph_selector(c, 2**14).values
    assert np.array_equal(dense[::64], least)


def test_curve_requires_primitive():
    with pytest.raises(TypeError):
        LagrangianCurve(np.arange(32) / 32, np.zeros(32))


def test_evolve_zero_section_fixed():
    c = evolve(FREE, zero_section(), 0, 1)
    assert np.max(np.abs(c.p)) == 0.0
    assert np.max(np.abs(c.primitive)) == 0.0


def test_shifted_period_invariance():
    h = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3)
    u = grid_from_trig(h.shift_profile, 1024)
    c0 = from_potential(u)
    c1 = evolve(h, c0, 0, 1, FlowSettings(), spacing=2e-3)
    assert hausdorff_distance(c1, c0) <= 1e-6


def test_evolution_consistency_grid_aligned():
    # spacing chosen so node gaps stay inside [delta/3, delta]: the two
    # evolution routes then share their node set and macro grid exactly
    a = 0.02
    c0 = from_potential(sine_potential(a, 1024))
    st = FlowSettings()
    direct = evolve(FREE, c0, 0, 0.2, st, spacing=2e-3)
    half = evolve(FREE, c0, 0, 0.1, st, spacing=2e-3)
    composed = evolve(FREE, half, 0.1, 0.2, st, spacing=2e-3)
    assert direct.n_nodes == composed.n_nodes
    assert hausdorff_distance(direct, composed) <= 1e-6
    assert np.max(np.abs(direct.primitive - composed.primitive)) <= 1e-6


def test_discrete_exactness_after_evolution():
    rng = np.random.default_rng(5)
    for _ in range(3):
        terms = [(0, k, rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)) for k in (1, 2)]
        u = grid_from_trig(TrigPolynomial.from_coeffs(terms), 4096)
        c = evolve(FREE, from_potential(u), 0, 0.25, FlowSettings(), spacing=4e-4)
        bound = 1e-6 * (1 + np.max(np.abs(c.p))) * np.max(np.diff(c.closed_lift()))
        assert np.max(np.abs(exactness_defects(c))) <= bound


def test_resampling_budget(monkeypatch):
    monkeypatch.setattr("birkhoff_lab.curves.NODE_CAP", 256)
    c0 = from_potential(sine_potential(0.2, 64))
    with pytest.raises(ResamplingBudgetExceeded):
        evolve(FREE, c0, 0, 2.0, FlowSettings(), spacing=1e-3)


def _coarsen_oracle(lift, p, spacing):
    """evolve's coarsening as a scan over every node: the indices it keeps."""
    n = len(lift)
    keep, kept = [0], n
    for i in range(1, n):
        prev = keep[-1]
        nxt = (i + 1) % n
        lift_nxt = lift[nxt] + (1.0 if nxt == 0 else 0.0)
        gap_prev = np.hypot(lift[i] - lift[prev], p[i] - p[prev])
        gap_next = np.hypot(lift_nxt - lift[i], p[nxt] - p[i])
        gap_join = np.hypot(lift_nxt - lift[prev], p[nxt] - p[prev])
        if kept > MIN_NODES and gap_prev < spacing / 3 and gap_next < spacing / 3 and gap_join <= spacing:
            kept -= 1
            continue
        keep.append(i)
    return keep


def _coarsen_kept(lift, p, spacing):
    """The indices evolve's coarsening keeps, from the arrays its refinement leaves."""
    lift_c, p_c = np.append(lift, lift[0] + 1), np.append(p, p[0])
    gaps = np.hypot(np.diff(lift_c), np.diff(p_c))
    return np.delete(np.arange(len(lift)), _coarsened(lift_c, p_c, gaps, spacing)).tolist()


def _closed_polyline(ratios, angles, origin=0j):
    """(lift, p, spacing) of a polyline that closes one turn up and whose gaps
    are `ratios` times spacing, the last one the closing gap."""
    steps = np.asarray(ratios) * np.exp(1j * np.asarray(angles, dtype=float))
    total = steps.sum()
    steps = steps * (abs(total) / total)  # rotated to add up along the lift
    spacing = 1 / abs(total)
    z = origin + spacing * np.concatenate([[0], np.cumsum(steps[:-1])])
    return z.real, z.imag, spacing


@st.composite
def tiny_gap_polylines(draw):
    """Closed polylines with runs of gaps under spacing/3 (some of them zero)."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 8)), min_size=2, max_size=24))
    tiny = np.repeat([t for t, _ in runs], [k for _, k in runs])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(tiny)
    ratios = np.where(tiny, rng.uniform(0, 1 / 3, n) * (rng.random(n) > 0.1), rng.uniform(1 / 3, 1.5, n))
    angles = rng.uniform(-1, 1, n) * draw(st.floats(0, np.pi))
    assume(abs(np.sum(ratios * np.exp(1j * angles))) > 1e-3)
    return _closed_polyline(ratios, angles, complex(*rng.normal(size=2)))


@settings(max_examples=400, deadline=None)
@given(tiny_gap_polylines())
def test_coarsening_keeps_what_the_scan_over_every_node_keeps(case):
    lift, p, spacing = case
    assert _coarsen_kept(lift, p, spacing) == _coarsen_oracle(lift, p, spacing)


@pytest.mark.parametrize("ratios, dropped", [
    # node 0 stays though both its gaps are tiny; the closing node n - 1 goes
    ([0.1] + [0.9] * 20 + [0.1, 0.1], [22]),
    # node 22 is measured from node 20, the last kept before it, and stays
    ([0.9] * 20 + [0.2] * 4, [21, 23]),
    # drops stop once MIN_NODES nodes are left
    ([0.9] * 4 + [0.1] * 16, [5, 6, 7, 9]),
])
def test_coarsening_cases(ratios, dropped):
    lift, p, spacing = _closed_polyline(ratios, np.zeros(len(ratios)))
    kept = [i for i in range(len(ratios)) if i not in dropped]
    assert _coarsen_oracle(lift, p, spacing) == kept
    assert _coarsen_kept(lift, p, spacing) == kept


def test_hausdorff_examples():
    z = zero_section(256)
    assert hausdorff_distance(z, z) == 0.0
    ze = LagrangianCurve(np.arange(256) / 256, np.full(256, 0.25), np.zeros(256))
    assert hausdorff_distance(z, ze) == pytest.approx(0.25, abs=1e-12)
    g = from_potential(grid_from_trig(TrigPolynomial.from_coeffs([(0, 1, 0.1, 0.0)]), 8192))
    z2 = zero_section(8192)
    # brute-force dense-sampling oracle value: max |p| = 0.2 pi
    assert hausdorff_distance(g, z2) == pytest.approx(0.2 * np.pi, abs=1e-6)


def _brute_points_to_curve_distance(q, p, b, chunk=512):
    """Every point against every segment, three winding images each: the oracle."""
    lb = b.closed_lift()
    pb = b.closed_p()
    l1, l2 = lb[:-1], lb[1:]
    p1, p2 = pb[:-1], pb[1:]
    mid = 0.5 * (l1 + l2)
    qa = wrap_unit(np.asarray(q, dtype=float))
    pa = np.asarray(p, dtype=float)
    out = np.empty(len(qa))
    for i0 in range(0, len(qa), chunk):
        qs = qa[i0 : i0 + chunk, None]
        ps = pa[i0 : i0 + chunk, None]
        w = np.round(mid[None, :] - qs)
        best = np.full(qs.shape[0], np.inf)
        for dw in (-1.0, 0.0, 1.0):
            sh = w + dw
            d2 = _point_segment_sq(l1[None, :] - sh - qs, p1[None, :] - ps, l2[None, :] - sh - qs, p2[None, :] - ps)
            best = np.minimum(best, d2.min(axis=1))
        out[i0 : i0 + chunk] = best
    return np.sqrt(out)


@functools.cache
def _folded(t):
    """Free flow of the shock potential to time t: folded for |t| = 1."""
    amp = 1.0 / (2 * np.pi**2)
    return evolve(FREE, from_potential(sine_potential(amp, 256)), 0, t, spacing=8e-3)


@st.composite
def _curve_and_points(draw):
    kind = draw(st.sampled_from(["graph", "folded", "repeated", "lifted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(16, 200))
    terms = [(0, k, rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for k in (1, 2, 3)]
    u = grid_from_trig(TrigPolynomial.from_coeffs(terms), 16 * 2 ** draw(st.integers(0, 3)))
    if kind == "folded":
        b = _folded(draw(st.sampled_from([1.0, -1.0])))
    else:
        b = from_potential(u)
    if kind == "repeated":  # zero-length segments between repeated nodes
        reps = rng.integers(1, 4, b.n_nodes)
        b = LagrangianCurve(np.repeat(b.q_lift, reps), np.repeat(b.p, reps), np.repeat(b.primitive, reps))
    if kind == "lifted":  # winding-1 lift that starts outside [0, 1)
        b = LagrangianCurve(b.q_lift + draw(st.integers(-3, 3)) + rng.uniform(-1, 1), b.p, b.primitive)
    other = from_potential(grid_from_trig(TrigPolynomial.from_coeffs([(0, 1, *rng.uniform(-0.1, 0.1, 2))]), 64))
    seam = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), -1e-17, 2.0, -1.0])
    q = np.concatenate([other.q, rng.uniform(-1.5, 2.5, n), seam, b.q_lift[: n // 4]])
    p = np.concatenate([other.p, rng.uniform(-0.5, 0.5, n), rng.uniform(-0.3, 0.3, len(seam)), b.p[: n // 4]])
    return q, p, b


@given(case=_curve_and_points())
@settings(max_examples=200, deadline=None)
def test_points_to_curve_distance_matches_all_pairs_oracle(case):
    q, p, b = case
    assert np.array_equal(points_to_curve_distance(q, p, b), _brute_points_to_curve_distance(q, p, b))


def test_points_to_curve_distance_empty_query():
    out = points_to_curve_distance(np.array([]), np.array([]), zero_section())
    assert out.shape == (0,)


def test_points_to_curve_distance_memory_is_bounded():
    # the all-pairs search holds 512 x 4000 doubles (16 MB) per temporary
    n = 4000
    grid = np.arange(n) / n
    b = LagrangianCurve(grid, 0.3 * np.sin(2 * np.pi * grid), np.zeros(n))
    q = grid + 0.5 / n
    p = 0.25 * np.cos(2 * np.pi * q)
    points_to_curve_distance(q, p, b)
    tracemalloc.start()
    try:
        points_to_curve_distance(q, p, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@st.composite
def _hausdorff_case(draw):
    kind = draw(st.sampled_from(["points", "coincident", "tied", "seam"]))
    if kind == "points":  # graphs, folded, repeated and lifted curves; seam points
        return draw(_curve_and_points())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    if kind == "coincident":  # every distance is 0: most bounds tie with the max
        b = _folded(1.0) if draw(st.booleans()) else from_potential(sine_potential(0.05, 64 * 2 ** draw(st.integers(0, 3))))
        return b.q_lift, b.p, b
    if kind == "tied":  # points at one height over a level curve: distances and bounds tie
        level = rng.uniform(-0.5, 0.5)
        m = 16 * 2 ** draw(st.integers(0, 4))
        b = LagrangianCurve(np.arange(m) / m, np.full(m, level), np.zeros(m))
        return rng.uniform(-1.0, 2.0, n), np.full(n, level + draw(st.sampled_from([0.0, 0.125, -0.3]))), b
    b = from_potential(sine_potential(rng.uniform(-0.05, 0.05), 64))
    b = LagrangianCurve(b.q_lift + rng.uniform(-1.0, 1.0), b.p, b.primitive)
    seam = np.array([-1e-17, 1.0 - 2.0**-53, -1e-17, 0.0, 1.0 - 2.0**-53])
    return seam, rng.uniform(-0.3, 0.3, len(seam)), b


@given(case=_hausdorff_case())
@settings(max_examples=200, deadline=None)
def test_directed_hausdorff_is_the_exact_max(case):
    q, p, b = case
    want = np.max(_brute_points_to_curve_distance(q, p, b))
    assert np.float64(directed_hausdorff(q, p, b)).tobytes() == want.tobytes()


def test_directed_hausdorff_visits_past_a_first_block_of_loose_bounds():
    # b runs along p = 0 with a spike up to p = 0.1 at q = 0.8. The 100 points
    # just above p = 0 left of the spike have the spike's midpoint nearest, so
    # their bounds (0.02 to 0.1, the distance to the spike) rank first, yet
    # they lie 0.002 from b. The farthest point, 0.01 above the densely
    # sampled arc, ranks 101st with a tight bound: evaluating only the first
    # 64 points would report 0.002.
    lift = np.concatenate([np.linspace(0.0, 0.3, 13), [0.8, 0.8, 0.8]])
    p_b = np.concatenate([np.zeros(13), [0.0, 0.1, 0.0]])
    b = LagrangianCurve(lift, p_b, np.zeros(16))
    q = np.append(np.linspace(0.70, 0.78, 100), 0.1)
    p = np.append(np.full(100, 0.002), 0.01)
    exact = _brute_points_to_curve_distance(q, p, b)
    assert np.argmax(exact) == 100 and np.max(exact[:100]) < 0.0021
    assert directed_hausdorff(q, p, b) == np.max(exact) == pytest.approx(0.01)


def _graph_4000():
    """The 4 000-node curve of the memory test, and query q between its nodes."""
    n = 4000
    grid = np.arange(n) / n
    return LagrangianCurve(grid, 0.3 * np.sin(2 * np.pi * grid), np.zeros(n)), grid + 0.5 / n


def _traced_peak(distance, q, p, b):
    distance(q, p, b)
    tracemalloc.start()
    try:
        distance(q, p, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_directed_hausdorff_memory_is_bounded():
    b, q = _graph_4000()
    assert _traced_peak(directed_hausdorff, q, 0.25 * np.cos(2 * np.pi * q), b) < 8e6


@pytest.mark.parametrize("distance", [points_to_curve_distance, directed_hausdorff])
def test_far_points_memory_is_bounded(distance):
    # at p = 1e6 the rounding slack of every bound, 1e-9 of the distance,
    # exceeds the gaps between the nearest segments, so each point keeps
    # scores of candidate segments
    b, q = _graph_4000()
    assert _traced_peak(distance, q, np.full(len(q), 1e6), b) < 8e6


@pytest.mark.parametrize("n, t", [(4097, 1.0), (5000, -1.0), (4097, 0.0), (5000, 0.0)])
def test_deep_hierarchies_match_all_pairs_oracle(n, t):
    # the strategies above reach about 1 000 segments; here b has 4 097 or
    # 5 000, neither a power of the fan-out: the graph of v' for the shock
    # potential v = sin(2 pi q) / (2 pi^2) (t = 0), or its free flow to
    # t = +-1, folded. The points are the nodes of both evolved folded
    # iterates and points between the nodes of the 4 000-node graph.
    theta = np.arange(n) / n
    dv = np.cos(2 * np.pi * theta) / np.pi
    b = LagrangianCurve(theta + t * dv, dv, np.zeros(n))
    graph, q_graph = _graph_4000()
    q = np.concatenate([_folded(1.0).q_lift, _folded(-1.0).q_lift, q_graph])
    p = np.concatenate([_folded(1.0).p, _folded(-1.0).p, 0.25 * np.cos(2 * np.pi * q_graph)])
    want = _brute_points_to_curve_distance(q, p, b, chunk=64)
    assert np.array_equal(points_to_curve_distance(q, p, b), want)
    assert np.float64(directed_hausdorff(q, p, b)).tobytes() == np.max(want).tobytes()


def test_directed_hausdorff_of_no_points():
    with pytest.raises(EmptyInput, match="empty point set"):
        directed_hausdorff(np.array([]), np.array([]), zero_section())


def test_hausdorff_metric_properties():
    rng = np.random.default_rng(9)
    curves = []
    for _ in range(3):
        terms = [(0, k, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)) for k in (1, 2)]
        curves.append(from_potential(grid_from_trig(TrigPolynomial.from_coeffs(terms), 512)))
    a, b, c = curves
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    assert hausdorff_distance(a, c) <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-9


def test_graph_check_fold_oracle():
    amp = 1.0 / (2 * np.pi**2)
    c0 = from_potential(sine_potential(amp, 2048))
    quarter = evolve(FREE, c0, 0, 0.25, spacing=2e-3)
    assert graph_check(quarter).is_graph
    one = evolve(FREE, c0, 0, 1.0, spacing=2e-3)
    fr = graph_check(one)
    assert not fr.is_graph
    assert fr.min_projection_jacobian <= 0
    fold_qs = sorted({round(float(one.q[i]), 3) for i in fr.fold_parameters})
    oracle = sorted((th + np.cos(2 * np.pi * th) / np.pi) % 1 for th in (1 / 12, 5 / 12))
    assert np.allclose(fold_qs, oracle, atol=2 / 256)


def test_graph_check_fold_at_closing_segment():
    # a lift spanning two turns closes one turn up from its first node, so the
    # closing segment runs backwards: a fold there and where the lift restarts
    c = LagrangianCurve(2.0 * np.arange(32) / 32, np.zeros(32), np.zeros(32))
    fr = graph_check(c)
    assert not fr.is_graph
    assert fr.fold_parameters == (0, 31)
    assert fr.min_projection_jacobian == 1.0 - 62 / 32


def test_gauge_examples():
    u = sine_potential(0.05, 512)
    c = from_potential(u)
    assert reduced_complexity_gauge(c, u) == 0.0
    shifted17 = GridFunction(u.values + 17.0)
    assert reduced_complexity_gauge(c, shifted17) == pytest.approx(0.0, abs=1e-9)
    eps, k = 0.01, 3
    pert = GridFunction(u.values + eps * np.sin(2 * np.pi * k * np.arange(512) / 512))
    cp = from_potential(pert)
    assert reduced_complexity_gauge(cp, u) == pytest.approx(2 * eps, abs=1e-6)


@given(shift=st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_gauge_constant_invariance(shift):
    u = sine_potential(0.05, 64)
    c0 = from_potential(u)
    c = LagrangianCurve(c0.q_lift, c0.p, c0.primitive + shift)
    base = reduced_complexity_gauge(c0, u)
    assert abs(reduced_complexity_gauge(c, u) - base) <= 1e-12 * (1 + abs(shift))


def test_curve_csv_roundtrip(tmp_path):
    c = from_potential(sine_potential(0.05, 128))
    path = tmp_path / "curve.csv"
    curve_to_csv(c, path)
    with open(path) as fh:
        assert fh.readline().strip() == "index,q,p,h"
    c2 = curve_from_csv(path)
    assert np.array_equal(c2.p, c.p)
    assert np.array_equal(c2.primitive, c.primitive)
    assert np.max(np.abs(c2.q - c.q)) == 0.0


def test_curve_csv_rows_placed_by_index(tmp_path):
    c = from_potential(sine_potential(0.05, 32))
    path = tmp_path / "curve.csv"
    curve_to_csv(c, path)
    header, *rows = path.read_text().splitlines()
    # curve_to_csv writes rows in index order, and no other order is read
    path.write_text("\n".join([header, *rows[::-1]]) + "\n")
    with pytest.raises(ValueError, match="row 0 holds index 31"):
        curve_from_csv(path)
    path.write_text("\n".join([header, *rows[:-1], rows[3]]) + "\n")
    with pytest.raises(ValueError, match="repeat"):
        curve_from_csv(path)


def test_curve_csv_blank_primitive(tmp_path):
    path = tmp_path / "c.csv"
    curve_to_csv(zero_section(32), path)
    header, *rows = path.read_text().splitlines()
    rows[5] = rows[5].rsplit(",", 1)[0] + ","
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ValueError):
        curve_from_csv(path)
