import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from birkhoff_lab import lax_oleinik
from birkhoff_lab.errors import (
    BarrierNotConverged,
    DivergenceDetected,
    GridMismatch,
    NonpositiveDuration,
)
from birkhoff_lab.grids import GridFunction, constant_grid
from birkhoff_lab.hamiltonians import free_hamiltonian, mechanical, pendulum, shifted_quadratic, wrap_unit
from birkhoff_lab.lax_oleinik import (
    PotentialMatrix,
    _critical_value_from_matrix,
    clear_potential_cache,
    lagrangian_batch,
    lax_negative,
    lax_positive,
    mane_critical_value,
    minplus_compose,
    peierls_barrier,
    positive_weak_kam,
    potential,
)

FREE = free_hamiltonian()
PEND = pendulum()
SHIFT = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.0)
N = 256
QS = np.arange(N) / N


def torus_distance(a, b):
    """Distance on the unit circle: min(|d|, 1 - |d|)."""
    d = np.abs(wrap_unit(a) - wrap_unit(b))
    return np.minimum(d, 1.0 - d)


def test_potential_free_hopf_lax():
    pm = potential(FREE, 0, 1, N)
    d = torus_distance(QS[:, None], QS[None, :])
    assert np.max(np.abs(pm.entries - d**2 / 2)) <= 2e-3
    assert np.max(np.abs(np.diag(pm.entries))) == 0.0


def test_potential_composition_consistency():
    pm2 = potential(PEND, 0, 2, N)
    comp = minplus_compose(potential(PEND, 0, 1, N), potential(PEND, 1, 2, N))
    assert np.max(np.abs(pm2.entries - comp.entries)) <= 1e-6


def test_potential_rejects_nonpositive_span():
    with pytest.raises(NonpositiveDuration):
        potential(FREE, 1, 1, N)


@pytest.mark.parametrize("max_span, quad_nodes", [(0.0, 8), (-0.25, 8), (float("nan"), 8), (0.25, 0)])
def test_potential_rejects_bad_settings_before_any_work(monkeypatch, max_span, quad_nodes):
    # max_span <= 0 halves the span without end; quad_nodes = 0 gives an inf/NaN matrix
    def single_step(*args):
        raise AssertionError("a single-step potential was built")

    monkeypatch.setattr(lax_oleinik, "_single_step", single_step)
    with pytest.raises(ValueError):
        potential(FREE, 0, 1, 16, max_span=max_span, quad_nodes=quad_nodes)


def test_potential_lower_bound_by_min_lagrangian():
    pm = potential(PEND, 0, 0.25, N)
    # sampled velocities stay in the winding window |v| <= (1 + 2W) / span
    vmax = (1 + 2 * 2) / 0.25
    vs = np.linspace(-vmax, vmax, 201)
    lmin = min(
        float(np.min(lagrangian_batch(PEND, t, QS, np.full(N, v))))
        for v in vs
        for t in (0.0, 0.125, 0.25)
    )
    assert np.min(pm.entries) >= 0.25 * lmin - 1e-9


def test_one_period_time_periodicity_bitwise():
    a = potential(PEND, 0, 1, N)
    b = potential(PEND, 1, 2, N)
    assert np.array_equal(a.entries, b.entries)


def test_lax_negative_constants_fixed():
    pm = potential(FREE, 0, 1, N)
    u = constant_grid(0.7, N)
    out = lax_negative(u, pm)
    assert np.max(np.abs(out.values - 0.7)) <= 1e-12


def test_lax_negative_brute_force_hopf_lax():
    pm = potential(FREE, 0, 0.1, N)
    u = GridFunction(np.cos(2 * np.pi * QS))
    out = lax_negative(u, pm)
    ys = np.arange(10_000) / 10_000
    for i in range(0, N, 37):
        d = np.abs(ys - QS[i])
        d = np.minimum(d, 1 - d)
        brute = np.min(np.cos(2 * np.pi * ys) + d**2 / 0.2)
        assert abs(out.values[i] - brute) <= 1e-4


def test_lax_monotone():
    pm = potential(PEND, 0, 1, N)
    rng = np.random.default_rng(0)
    u = GridFunction(rng.uniform(-1, 1, N))
    v = GridFunction(u.values + rng.uniform(0, 1, N))
    a, b = lax_negative(u, pm), lax_negative(v, pm)
    assert np.all(a.values <= b.values + 1e-12)


def test_lax_positive_duality_even_hamiltonian():
    pm = potential(PEND, 0, 0.5, N)  # autonomous, even in p
    rng = np.random.default_rng(1)
    u = GridFunction(np.cos(2 * np.pi * QS) + 0.3 * rng.uniform(-1, 1, N))
    lhs = lax_positive(GridFunction(-u.values), pm)
    rhs = lax_negative(u, pm)
    assert np.max(np.abs(lhs.values + rhs.values)) <= 1e-9


def test_lax_grid_mismatch():
    pm = potential(FREE, 0, 1, N)
    with pytest.raises(GridMismatch):
        lax_negative(constant_grid(0.0, 2 * N), pm)


def test_nonexpansive_and_shift_equivariance():
    pm = potential(PEND, 0, 1, N)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = GridFunction(rng.uniform(-2, 2, N))
        v = GridFunction(rng.uniform(-2, 2, N))
        du = float(np.max(np.abs(u.values - v.values)))
        for op in (lax_negative, lax_positive):
            a, b = op(u, pm), op(v, pm)
            assert float(np.max(np.abs(a.values - b.values))) <= du + 1e-12
        c = float(rng.uniform(-5, 5))
        shifted = lax_negative(GridFunction(u.values + c), pm)
        assert np.max(np.abs(shifted.values - (lax_negative(u, pm).values + c))) <= 1e-12


def test_semigroup_property():
    rng = np.random.default_rng(3)
    u = GridFunction(rng.uniform(-1, 1, N))
    a = lax_negative(u, potential(PEND, 0, 2, N))
    b = lax_negative(lax_negative(u, potential(PEND, 0, 1, N)), potential(PEND, 1, 2, N))
    assert np.max(np.abs(a.values - b.values)) <= 1e-6


def test_positive_uniform_boundedness_plateau():
    pm = potential(PEND, 0, 1, N)
    alpha0 = 1.0
    u = GridFunction(np.cos(2 * np.pi * QS))
    sups, running = [], -np.inf
    for _ in range(64):
        u = lax_positive(u, pm, alpha0)
        running = max(running, float(np.max(np.abs(u.values))))
        sups.append(running)
    assert sups[-1] - sups[-16] < 1e-3


def test_mane_free_and_pendulum(monkeypatch):
    monkeypatch.setattr(lax_oleinik, "ALPHA0_HORIZON", 64)
    est = mane_critical_value(FREE, N)
    assert abs(est.alpha0) <= 1e-3
    est = mane_critical_value(PEND, N)
    assert abs(est.alpha0 - 1.0) <= 5e-3
    assert est.half_width >= 0


def test_mane_constant_shift_equivariance(monkeypatch):
    monkeypatch.setattr(lax_oleinik, "ALPHA0_HORIZON", 32)
    base = mane_critical_value(PEND, 128)
    shifted = mane_critical_value(mechanical([(0, 1, 1.0, 0.0)], offset=0.37), 128)
    assert abs(shifted.alpha0 - base.alpha0 - 0.37) <= 1e-6


def test_mane_divergence_guard():
    # adversarial min-plus matrix with a two-cycle optimum: increments oscillate
    n = 8
    p = np.full((n, n), 5.0)
    for i in range(n):
        p[i, (i + 1) % n] = -1.0 if i % 2 == 0 else 1.0
    with pytest.raises(DivergenceDetected):
        _critical_value_from_matrix(p, 32)


def test_barrier_free_vanishes():
    res = peierls_barrier(FREE, 0.0, 0, 8, 64, 512)
    assert res.converged
    assert np.max(np.abs(res.matrix.entries)) <= 2e-3


def test_barrier_pendulum_diagonal_and_triangle():
    res = peierls_barrier(PEND, 1.0, 0, 8, 64, N)
    assert res.converged
    assert abs(res.matrix.entries[0, 0]) <= 1e-2
    b = res.matrix.entries
    h1 = potential(PEND, 0, 1, N).entries + 1.0
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y, z = rng.integers(0, N, 3)
        assert b[x, y] <= h1[x, z] + b[z, y] + 1e-3


def test_barrier_off_critical_constant_reported_not_asserted():
    res = peierls_barrier(FREE, -0.5, 0, 8, 32, 64)
    assert not res.converged  # entries keep dropping linearly


def test_weak_kam_free_and_pendulum():
    bfree = peierls_barrier(FREE, 0.0, 0, 8, 64, 512)
    u, res = positive_weak_kam(FREE, 0.0, 0, 0.0, 512, barrier=bfree)
    assert np.max(np.abs(u.values)) <= 2e-3
    assert res <= 2e-3
    bp = peierls_barrier(PEND, 1.0, 0, 8, 64, N)
    up, resp = positive_weak_kam(PEND, 1.0, 0, 0.0, N, barrier=bp)
    assert resp <= 1e-2


def test_weak_kam_residual_grid_follows_the_barrier():
    # a given barrier sets the grid; n only sizes a barrier built inside, so a
    # smaller n must not move the residual onto the barrier's own grid, where
    # the fixed-point identity holds to roundoff
    bp = peierls_barrier(PEND, 1.0, 0, 8, 64, 64)
    _, coarse_n = positive_weak_kam(PEND, 1.0, 0, 0.0, 32, barrier=bp)
    _, same_n = positive_weak_kam(PEND, 1.0, 0, 0.0, 64, barrier=bp)
    assert coarse_n == same_n
    assert same_n > 1e-4


def test_weak_kam_residual_composes_nothing_on_the_doubled_grid(monkeypatch):
    # the residual applies the one-period operator single step by single step
    # (semigroup property), so no matrix is composed at twice the resolution
    bp = peierls_barrier(PEND, 1.0, 0, 8, 64, 64)
    clear_potential_cache()
    composed = []

    def spy(a, b):
        composed.append(a.resolution)
        return minplus_compose(a, b)

    monkeypatch.setattr(lax_oleinik, "minplus_compose", spy)
    _, res = positive_weak_kam(PEND, 1.0, 0, 0.0, 64, barrier=bp)
    assert 128 not in composed
    u = GridFunction(-bp.matrix.entries[:, 0])
    u_fine = GridFunction(u.eval(np.arange(128) / 128))
    image = lax_positive(u_fine, potential(PEND, 0, 1, 128), 1.0)
    assert abs(res - float(np.max(np.abs(image.values - u_fine.values)))) <= 1e-14


def test_weak_kam_matches_manufactured_solution(monkeypatch):
    h = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.0)
    monkeypatch.setattr(lax_oleinik, "ALPHA0_HORIZON", 32)
    est = mane_critical_value(h, N, quad_nodes=16)
    assert abs(est.alpha0) <= 2e-3
    res = peierls_barrier(h, 0.0, 0, 8, 48, N)
    u, _ = positive_weak_kam(h, 0.0, 0, 0.0, N, barrier=res)
    target = 0.05 * np.sin(2 * np.pi * QS)
    diff = u.values - (target - target[0])
    assert np.max(diff) - np.min(diff) <= 5e-3


def test_weak_kam_requires_converged_barrier():
    trunc = peierls_barrier(FREE, -0.5, 0, 8, 16, 64)
    with pytest.raises(BarrierNotConverged):
        positive_weak_kam(FREE, -0.5, 0, 0.0, 64, barrier=trunc)


@given(c=st.floats(-10, 10))
@settings(max_examples=30, deadline=None)
def test_shift_equivariance_property(c):
    pm = potential(FREE, 0, 1, 64)
    u = GridFunction(np.sin(2 * np.pi * np.arange(64) / 64))
    out = lax_negative(GridFunction(u.values + c), pm)
    base = lax_negative(u, pm)
    assert np.max(np.abs(out.values - (base.values + c))) <= 1e-12


def test_potential_custom_family_matches_closed_form():
    from birkhoff_lab.hamiltonians import Family, TonelliHamiltonian

    hc = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.5 * p**2,
        momentum_box=(-8.0, 8.0),
    )
    a = potential(hc, 0, 0.25, 64)
    b = potential(FREE, 0, 0.25, 64)
    assert np.max(np.abs(a.entries - b.entries)) <= 1e-3


@pytest.mark.parametrize("anchor", [-1, 64])
def test_weak_kam_anchor_must_be_a_grid_index(anchor):
    with pytest.raises(ValueError):  # before any barrier is built
        positive_weak_kam(FREE, 0.0, anchor, 0.0, 64)
    barrier = peierls_barrier(FREE, 0.0, 0, 8, 16, 64)
    with pytest.raises(ValueError):
        positive_weak_kam(FREE, 0.0, anchor, 0.0, 64, barrier=barrier)


def test_potential_cache_counts_lookups():
    clear_potential_cache()
    potential(PEND, 0, 1, 16)  # the period, two halves and four quarters
    potential(PEND, 1, 2, 16)  # the same fractional start and span
    cache = lax_oleinik._POTENTIAL_CACHE
    assert (cache.hits, cache.misses, cache.evictions) == (1, 7, 0)
    assert cache.nbytes == 7 * 16 * 16 * 8


def test_potential_cache_bounded_in_bytes(monkeypatch):
    cache = lax_oleinik._POTENTIAL_CACHE
    monkeypatch.setattr(cache, "max_bytes", 2**20)
    clear_potential_cache()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(40):  # 40 matrices of 128 KiB: five times the bound
            potential(FREE, i / 40, i / 40 + 0.25, 128)
            held = tracemalloc.get_traced_memory()[0] - base
            assert held <= cache.max_bytes + 2**14  # entries plus keys and bookkeeping
    finally:
        tracemalloc.stop()
    assert cache.nbytes <= cache.max_bytes == 2**20
    assert cache.evictions == 40 - 8
    clear_potential_cache()


@pytest.mark.parametrize("span", [0.25, 1.0])  # a single step and a compose
def test_potential_rebuilt_after_eviction_is_bitwise_periodic(monkeypatch, span):
    # 1.3 - 1 is 0.30000000000000004, not 0.3
    h = mechanical([(1, 1, 0.5, 0.2)])
    cache = lax_oleinik._POTENTIAL_CACHE
    monkeypatch.setattr(cache, "max_bytes", 0)  # every matrix is dropped once built
    clear_potential_cache()
    a = potential(h, 0.3, 0.3 + span, 64).entries
    b = potential(h, 1.3, 1.3 + span, 64).entries
    assert cache.hits == 0 and cache.nbytes == 0
    assert np.array_equal(a, b)
    clear_potential_cache()


# ---------------------------------------------------------------------------
# Oracles: the dense single step and the row-by-row compose, which the
# separable single step and the pruned compose replaced.


def _dense_minplus_compose(a: PotentialMatrix, b: PotentialMatrix) -> PotentialMatrix:
    """(a ⊗ b)[y, x] = min_z a[y, z] + b[z, x]; rows reduce sequentially."""
    if a.resolution != b.resolution:
        raise GridMismatch("composing matrices of different resolutions")
    n = a.resolution
    out = np.empty((n, n))
    bb = b.entries
    for y in range(n):
        out[y, :] = np.min(a.entries[y, :, None] + bb, axis=0)
    return PotentialMatrix(a.s, b.t, out)


# wide enough for every Hamiltonian the tests draw: at drift -12 a quarter
# period attains windings down to -4
ORACLE_WINDINGS = range(-6, 7)


def _dense_single_step(h, s, t, n, quad_nodes):
    grid = np.arange(n) / n
    span = t - s
    best = None
    taus = s + (np.arange(quad_nodes) + 0.5) * span / quad_nodes
    fracs = (taus - s) / span
    for w in ORACLE_WINDINGS:
        delta = grid[None, :] - grid[:, None] + w
        vel = delta / span
        acc = np.zeros((n, n))
        for tau, frac in zip(taus, fracs):
            pos = grid[:, None] + frac * delta
            acc += lagrangian_batch(h, float(tau), pos, vel)
        acc *= span / quad_nodes
        best = acc if best is None else np.where(acc < best, acc, best)
    return PotentialMatrix(s, t, best)


def _tied(rng, n, offset, levels):
    """One-decimal matrix with at most `levels` distinct values."""
    return np.round((offset + rng.integers(0, levels, (n, n))) / 10, 1)


def _funnel(rng, n, offset, levels):
    """One-decimal matrix shaped like a long-horizon potential: cheapest
    through one grid point, plus tied noise, so that few z stay candidates."""
    q = np.arange(n) / n
    well = 40.0 * torus_distance(q, 0.5) ** 2
    return np.round(well[:, None] + well + (offset + rng.integers(0, levels, (n, n))) / 10, 1)


# (0.1 + 0.4) - 0.4 rounds below 0.1: a constant 0.1 and a constant 0.4
# matrix need the rounding slack
@example(seed=0, n=8, shape=_tied, offsets=(1, 4), levels=1)
# a negative column of b lets a[y, z] exceed every upper bound ub[y, x]
@example(seed=0, n=8, shape=_tied, offsets=(0, -30), levels=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 8, 64, 256]),
    shape=st.sampled_from([_tied, _funnel]),
    offsets=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    levels=st.integers(1, 60),
)
@settings(max_examples=120, deadline=None)
def test_pruned_compose_bitwise_on_tied_matrices(seed, n, shape, offsets, levels):
    rng = np.random.default_rng(seed)
    a = PotentialMatrix(0.0, 0.5, shape(rng, n, offsets[0], levels))
    b = PotentialMatrix(0.5, 1.0, shape(rng, n, offsets[1], levels))
    assert np.array_equal(minplus_compose(a, b).entries, _dense_minplus_compose(a, b).entries)


@given(
    h=st.sampled_from([PEND, FREE, SHIFT]),
    n=st.sampled_from([8, 64, 256]),
    s=st.sampled_from([0.0, 0.25, 0.5]),
    spans=st.sampled_from([(0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (8.0, 1.0)]),
)
@settings(max_examples=30, deadline=None)
def test_pruned_compose_bitwise_on_potentials(h, n, s, spans):
    a = potential(h, s, s + spans[0], n)
    b = potential(h, s + spans[0], s + spans[0] + spans[1], n)
    assert np.array_equal(minplus_compose(a, b).entries, _dense_minplus_compose(a, b).entries)


_MECHANICAL_TERMS = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.floats(-1, 1), st.floats(-1, 1)),
    min_size=1, max_size=3,
)
# shift profiles stay small, as in the configs: the product of du/dq with the
# velocity amplifies the rounding of the phases, in the dense step as well
_SHIFT_TERMS = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
    min_size=1, max_size=3,
)


@st.composite
def _closed_form_hamiltonians(draw):
    offset = draw(st.floats(-1, 1))
    if draw(st.booleans()):
        return mechanical(draw(_MECHANICAL_TERMS), kinetic=draw(st.floats(0.25, 4)), offset=offset)
    return shifted_quadratic(draw(_SHIFT_TERMS), drift=draw(st.floats(-12, 12)), offset=offset)


# drift 10 needs windings beyond +-2 (every entry was up to 4 too high)
@example(h=shifted_quadratic([(1, 1, 0.0, 0.05)], drift=10.0), s=0.0, span=0.25, n=64, quad_nodes=8)
@given(
    h=_closed_form_hamiltonians(),
    s=st.floats(0, 1, exclude_max=True),
    span=st.floats(1 / 32, 0.25),
    n=st.sampled_from([16, 64, 256]),
    quad_nodes=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_separable_single_step_matches_dense(h, s, span, n, quad_nodes):
    dense = _dense_single_step(h, s, s + span, n, quad_nodes).entries
    fast = lax_oleinik._single_step(h, s, s + span, n, quad_nodes).entries
    assert np.all(np.abs(fast - dense) <= 1e-13 * (1 + np.abs(dense)))


# a non-finite offset is refused, so finite inputs that overflow stand in for
# the offsets inf (action -inf), -inf (action +inf) and nan (action inf - inf)
@pytest.mark.parametrize("kinetic, terms, offset, action", [
    pytest.param(1.0, [], 1e308, -np.inf, id="1.0-inf"),
    pytest.param(1.0, [], -1e308, np.inf, id="1.0--inf"),
    pytest.param(1.0, [(0, 0, 1e308, 0.0)], -1e308, np.nan, id="1.0-nan"),
    pytest.param(1e40, [], 0.3, None, id="1e+40-0.3"),
])
def test_single_step_walk_ends_on_ties(monkeypatch, kinetic, terms, offset, action):
    # every winding ties at the same action (infinite, NaN, or -offset once
    # v^2 / 2 kinetic rounds away): a tie improves no entry, so each side
    # stops after one winding
    h = mechanical(terms, kinetic=kinetic, offset=offset)
    calls = []
    segment_lagrangian = type(h.ops).segment_lagrangian
    monkeypatch.setattr(type(h.ops), "segment_lagrangian", lambda *a: calls.append(1) or segment_lagrangian(*a))
    with np.errstate(over="ignore", invalid="ignore"):
        best = lax_oleinik._single_step(h, 0.0, 0.25, 16, 4).entries
    assert len(calls) == 3
    if action is not None:
        assert np.array_equal(best, np.full_like(best, action), equal_nan=True)


def test_single_step_walk_starts_at_the_drift_winding(monkeypatch):
    # a walk out from winding 0 takes about |drift| * span windings, 250 000
    # here; from the winding nearest drift * span it takes a few
    h = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=1e6)
    calls = []
    segment_lagrangian = type(h.ops).segment_lagrangian

    def counted(*args):
        calls.append(1)
        if len(calls) > 10:
            raise AssertionError("more than 10 windings walked")
        return segment_lagrangian(*args)

    monkeypatch.setattr(type(h.ops), "segment_lagrangian", counted)
    fast = lax_oleinik._single_step(h, 0.0, 0.25, 64, 8).entries
    monkeypatch.setitem(globals(), "ORACLE_WINDINGS", range(250_000 - 6, 250_000 + 7))
    dense = _dense_single_step(h, 0.0, 0.25, 64, 8).entries
    assert np.all(np.abs(fast - dense) <= 1e-6 * (1 + np.abs(dense)))


def test_custom_single_step_matches_dense():
    from birkhoff_lab.hamiltonians import Family, TonelliHamiltonian

    hc = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.25 * p**4 + 0.5 * p**2 + 0.3 * np.cos(2 * np.pi * (q - t)),
        momentum_box=(-8.0, 8.0),
    )
    dense = _dense_single_step(hc, 0.1, 0.35, 16, 4).entries
    fast = lax_oleinik._single_step(hc, 0.1, 0.35, 16, 4).entries
    assert np.all(np.abs(fast - dense) <= 1e-12 * (1 + np.abs(dense)))


def test_weak_kam_residual_uses_the_barrier_potential_settings():
    # the refined residual applies the one-period operator built with the
    # settings that built the barrier, not the default single-step span
    bp = peierls_barrier(PEND, 1.0, 0, 8, 64, 64, max_span=1 / 16)
    assert (bp.max_span, bp.quad_nodes) == (1 / 16, lax_oleinik.QUAD_NODES)
    _, res = positive_weak_kam(PEND, 1.0, 0, 0.0, 64, barrier=bp)
    u = GridFunction(-bp.matrix.entries[:, 0])
    u_fine = GridFunction(u.eval(np.arange(128) / 128))
    for max_span, same in ((1 / 16, True), (lax_oleinik.SINGLE_STEP_SPAN, False)):
        image = lax_positive(u_fine, potential(PEND, 0, 1, 128, max_span=max_span), 1.0)
        by_hand = float(np.max(np.abs(image.values - u_fine.values)))
        assert (res == by_hand) is same
