import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from birkhoff_lab import lax_oleinik
from birkhoff_lab.errors import DivergenceDetected, GridMismatch, MaximizerNotFound, NonpositiveDuration
from birkhoff_lab.flow import FlowSettings, integrate_batch
from birkhoff_lab.grids import GridFunction, constant_grid
from birkhoff_lab.hamiltonians import (
    Family,
    TonelliHamiltonian,
    free_hamiltonian,
    legendre_transform,
    mechanical,
    pendulum,
    shifted_quadratic,
    wrap_unit,
)
from birkhoff_lab.lax_oleinik import (
    PotentialMatrix,
    _karp,
    _star_barrier,
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
WAVE = mechanical([(1, 1, 0.5, 0.2)])  # depends on t: one matrix per fractional start
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


@pytest.mark.parametrize("max_span", [0.0, -0.25, float("nan")])
def test_potential_rejects_bad_settings_before_any_work(monkeypatch, max_span):
    # max_span <= 0 halves the span without end
    def single_step(*args):
        raise AssertionError("a single-step potential was built")

    monkeypatch.setattr(lax_oleinik, "_single_step", single_step)
    with pytest.raises(ValueError):
        potential(PEND, 0, 1, 16, max_span=max_span)


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


def test_mane_free_and_pendulum():
    assert abs(mane_critical_value(FREE, N)) <= 1e-3
    assert abs(mane_critical_value(PEND, N) - 1.0) <= 5e-3


def test_mane_constant_shift_equivariance():
    base = mane_critical_value(PEND, 128)
    shifted = mane_critical_value(mechanical([(0, 1, 1.0, 0.0)], offset=0.37), 128)
    assert abs(shifted - base - 0.37) <= 1e-6


def test_mane_divergence_guard():
    # adversarial min-plus matrix whose value iteration oscillates with
    # period two: its cheapest cycle is the 8-cycle of mean 0, which Karp's
    # formula finds exactly
    n = 8
    p = np.full((n, n), 5.0)
    for i in range(n):
        p[i, (i + 1) % n] = -1.0 if i % 2 == 0 else 1.0
    assert _karp(p) == 0.0


# the solvable families of the closed-form sweep, with the rest each one's
# one-period potential subtracts: shifted quadratics over drift, with a time
# harmonic in the shift and an offset, and a mechanical V(t) (its id names
# the kinetic coefficient 1 of every mechanical H)
_SOLVABLE_SWEEP = [
    *[pytest.param(shifted_quadratic([(1, 1, 0.0, 0.05), (0, 2, 0.02, 0.0)], drift=drift, offset=0.1), 0.1,
                   id=f"shift-drift{drift:.3g}") for drift in (0.0, 0.3, 1 / 3, 0.5, -0.7)],
    pytest.param(mechanical([(0, 0, 0.25, 0.0), (1, 0, 0.3, -0.2), (2, 0, 0.0, 0.1)], offset=-0.4),
                 0.25 - 0.4, id="vt-kinetic1.0"),
]
VT = _SOLVABLE_SWEEP[-1].values[0]


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("h, rest", _SOLVABLE_SWEEP)
def test_closed_form_cycle_mean_matches_karp(h, rest, n):
    # Karp's formula on the closed-form matrix is the oracle, within the
    # rounding bound that hamiltonians._ShiftedQuadratic.least_cycle_mean derives
    a = potential(h, 0, 1, n).entries
    closed = h.ops.least_cycle_mean(h, n)
    scale = np.max(np.abs(a)) + abs(rest) + 2 + abs(h.drift)
    assert abs(closed - _karp(a)) <= n * n * np.finfo(float).eps * scale


def test_closed_form_cycle_mean_on_the_autonomous_config():
    # a cycle of 77-cell steps misses the drift 0.3 by 0.2 cells
    h = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.3)
    assert abs(h.ops.least_cycle_mean(h, N) - (0.2 / N) ** 2 / 2) <= 1e-20
    assert -mane_critical_value(h, N) == h.ops.least_cycle_mean(h, N)


@pytest.mark.parametrize("h", [FREE, SHIFT, shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3), VT])
def test_mane_of_a_solvable_family_builds_no_potential(h):
    clear_potential_cache()
    mane_critical_value(h, N)
    assert (lax_oleinik._POTENTIAL_CACHE.misses, lax_oleinik._POTENTIAL_CACHE.hits) == (0, 0)


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("h", [shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3), VT], ids=["shift", "vt"])
def test_barrier_of_a_solvable_family_at_the_closed_form(h, t, monkeypatch):
    # the closed-form lambda passes _star_barrier's least-diagonal check, also
    # at t = 0.3, where the time-dependent terms at t + 1 and t round
    # differently: u(t + 1, x) - u(t, x) for the shifted quadratic and for the
    # V(t)'s gauge, whose profile u = -W has dW/dt = V - c
    if t:
        grid = np.arange(64) / 64
        u = (h._gauge or h).shift_profile
        assert np.any(u.value(t + 1.0, grid) != u.value(t, grid))
    monkeypatch.setattr(lax_oleinik, "_karp", mock.Mock(side_effect=AssertionError("Karp on a solvable family")))
    res = peierls_barrier(h, t, 64)
    assert res.alpha0 == mane_critical_value(h, 64) == -h.ops.least_cycle_mean(h, 64)
    assert np.all(np.isfinite(res.matrix.entries))


@pytest.mark.parametrize("n", [2, 16, 256])
@pytest.mark.parametrize("offset", [1e3, 1e6, -1e6])
@pytest.mark.parametrize("shift", [(1, 1, 0.0, 0.05), (0, 1, 0.0, 0.05)], ids=["default", "autonomous"])
def test_barrier_under_a_large_constant_offset(shift, offset, n):
    # a constant added to H shifts alpha0 by it and leaves the barrier, though
    # it inflates the rounding of a and lambda while max|a - lambda| stays
    h0 = shifted_quadratic([shift], drift=0.3)
    hc = shifted_quadratic([shift], drift=0.3, offset=offset)
    base, shifted = peierls_barrier(h0, 0.0, n), peierls_barrier(hc, 0.0, n)
    eps = np.finfo(float).eps
    assert shifted.alpha0 == mane_critical_value(hc, n)
    assert abs(shifted.alpha0 - (base.alpha0 + offset)) <= 4 * eps * abs(offset)
    assert np.max(np.abs(shifted.matrix.entries - base.matrix.entries)) <= 4 * n * eps * abs(offset)


@functools.cache
def _free_barrier_512():
    """The free barrier on the 512-point grid, built once for the tests that
    read it."""
    return peierls_barrier(FREE, 0, 512)


def test_barrier_free_vanishes():
    res = _free_barrier_512()
    assert np.max(np.abs(res.matrix.entries)) <= 2e-3


def _pendulum_barrier_closed_form(n):
    """h(y, x) = g(y) + g(x) for H = p^2/2 + cos 2 pi q: the Aubry set is
    q = 0, and g(x) = (2 / pi)(1 - cos pi d), d the torus distance from x to 0,
    is the Mane potential from 0, the integral of sqrt(2 (1 - cos 2 pi q))."""
    g = 2 / np.pi * (1 - np.cos(np.pi * torus_distance(np.arange(n) / n, 0.0)))
    return g[:, None] + g


def test_pendulum_barrier_matches_closed_form():
    # the error follows the single-step span, not n
    exact = _pendulum_barrier_closed_form(N)
    fine = np.max(np.abs(peierls_barrier(PEND, 0, N, max_span=1 / 16).matrix.entries - exact))
    coarse = np.max(np.abs(peierls_barrier(PEND, 0, N).matrix.entries - exact))
    assert fine <= 5e-3  # 3.27e-3
    assert fine < coarse  # 4.75e-2 at span 1/4


def test_critical_set_is_well_separated_from_rounding():
    # a time-dependent pendulum has one critical node, and the least
    # diagonal of A+ off it (5.7e-5) stands far above the slack that
    # _star_barrier leaves for rounding (n^2 eps max|A - lambda|)
    h = mechanical([(0, 1, 1.0, 0.0), (1, 1, 0.2, 0.1)])
    a = potential(h, 0, 1, N).entries
    lam = _karp(a)
    star = a - lam
    slack = N * N * np.finfo(float).eps * np.max(np.abs(star))
    for k in range(N):
        star = np.minimum(star, star[:, k, None] + star[k])
    diag = np.diag(star)
    critical = np.flatnonzero(np.abs(diag) <= slack)
    assert len(critical) == 1
    assert np.min(np.delete(diag, critical)) >= 1e6 * slack
    c = critical[0]
    assert np.array_equal(peierls_barrier(h, 0, N).matrix.entries, star[:, c, None] + star[c])


def test_barrier_pendulum_diagonal_and_triangle():
    res = peierls_barrier(PEND, 0, N)
    assert abs(res.matrix.entries[0, 0]) <= 1e-2
    b = res.matrix.entries
    h1 = potential(PEND, 0, 1, N).entries + 1.0
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y, z = rng.integers(0, N, 3)
        assert b[x, y] <= h1[x, z] + b[z, y] + 1e-3


def test_weak_kam_free_and_pendulum():
    bfree = _free_barrier_512()
    u, res = positive_weak_kam(FREE, 0.0, 0, 0.0, 512, barrier=bfree)
    assert np.max(np.abs(u.values)) <= 2e-3
    assert res <= 2e-3
    bp = peierls_barrier(PEND, 0, N)
    up, resp = positive_weak_kam(PEND, 1.0, 0, 0.0, N, barrier=bp)
    assert resp <= 1e-2


def test_weak_kam_residual_grid_follows_the_barrier():
    # a given barrier sets the grid; n only sizes a barrier built inside, so a
    # smaller n must not move the residual onto the barrier's own grid, where
    # the fixed-point identity holds to roundoff
    bp = peierls_barrier(PEND, 0, 64)
    _, coarse_n = positive_weak_kam(PEND, 1.0, 0, 0.0, 32, barrier=bp)
    _, same_n = positive_weak_kam(PEND, 1.0, 0, 0.0, 64, barrier=bp)
    assert coarse_n == same_n
    assert same_n > 1e-4


def test_weak_kam_residual_composes_nothing_on_the_doubled_grid(monkeypatch):
    # the residual applies the one-period operator single step by single step
    # (semigroup property), so no matrix is composed at twice the resolution
    bp = peierls_barrier(PEND, 0, 64)
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


def test_weak_kam_matches_manufactured_solution():
    h = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.0)
    assert abs(mane_critical_value(h, N)) <= 2e-3
    res = peierls_barrier(h, 0, N)
    u, _ = positive_weak_kam(h, 0.0, 0, 0.0, N, barrier=res)
    target = 0.05 * np.sin(2 * np.pi * QS)
    diff = u.values - (target - target[0])
    assert np.max(diff) - np.min(diff) <= 5e-3


@given(c=st.floats(-10, 10))
@settings(max_examples=30, deadline=None)
def test_shift_equivariance_property(c):
    pm = potential(FREE, 0, 1, 64)
    u = GridFunction(np.sin(2 * np.pi * np.arange(64) / 64))
    out = lax_negative(GridFunction(u.values + c), pm)
    base = lax_negative(u, pm)
    assert np.max(np.abs(out.values - (base.values + c))) <= 1e-12


def test_potential_custom_family_matches_closed_form():
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
    barrier = peierls_barrier(FREE, 0, 64)
    with pytest.raises(ValueError):
        positive_weak_kam(FREE, 0.0, anchor, 0.0, 64, barrier=barrier)


def test_potential_cache_counts_lookups():
    clear_potential_cache()
    potential(WAVE, 0, 1, 16)  # the period, two halves and four quarters
    potential(WAVE, 1, 2, 16)  # the same fractional start and span
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
            potential(WAVE, i / 40, i / 40 + 0.25, 128)
            held = tracemalloc.get_traced_memory()[0] - base
            assert held <= cache.max_bytes + 2**14  # entries plus keys and bookkeeping
    finally:
        tracemalloc.stop()
    assert cache.nbytes <= cache.max_bytes == 2**20
    assert cache.evictions == 40 - 8
    clear_potential_cache()


def test_autonomous_potentials_share_span_keys():
    cache = lax_oleinik._POTENTIAL_CACHE
    clear_potential_cache()
    potential(PEND, 0, 1, 16)  # one quarter serves all four, one half both
    assert (cache.hits, cache.misses, cache.evictions) == (2, 3, 0)
    potential(PEND, 1, 2, 16)
    assert (cache.hits, cache.misses, cache.evictions) == (3, 3, 0)
    assert cache.nbytes == 3 * 16 * 16 * 8
    potential(PEND, 0.3, 0.55, 16)  # the quarter again, at another start
    assert (cache.hits, cache.misses) == (4, 3)
    # a custom callable's autonomy is a sampled test, so it keeps its starts
    custom = TonelliHamiltonian(family=Family.CUSTOM, custom_fn=lambda t, q, p: 0.5 * p**2)
    assert custom.autonomous and not WAVE.autonomous
    for h in (WAVE, custom):
        clear_potential_cache()
        potential(h, 0, 0.25, 16)
        potential(h, 0.25, 0.5, 16)
        assert (cache.hits, cache.misses) == (0, 2)
    clear_potential_cache()


@pytest.mark.parametrize("s", [0.1, 0.3, 0.7 + 1e-9])
@pytest.mark.parametrize("h", [FREE, PEND, shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.3)], ids=["free", "pendulum", "shift"])
def test_autonomous_potential_matches_the_per_start_build(h, s):
    # a matrix built at fractional start 0 serves the span at any start; the
    # build at the true start stays the oracle: the closed form for a
    # solvable family, single steps and composes for the pendulum
    def close(fast, slow):
        return np.all(np.abs(fast - slow) <= 1e-13 * (1 + np.abs(slow)))

    if h.ops.solvable(h):
        for span in (0.25, 1.0):
            assert close(potential(h, s, s + span, 64).entries, h.ops.potential(h, s, s + span, 64))
        return
    steps = [lax_oleinik._single_step(h, s + k / 4, s + (k + 1) / 4, 64) for k in range(4)]
    assert close(potential(h, s, s + 0.25, 64).entries, steps[0].entries)
    halves = minplus_compose(steps[0], steps[1]), minplus_compose(steps[2], steps[3])
    assert close(potential(h, s, s + 1, 64).entries, minplus_compose(*halves).entries)


def test_span_rule_holds_under_span_keys():
    # 1.4e-12 rounds to 1e-12 at 12 digits: the key would change the span
    with pytest.raises(NonpositiveDuration):
        potential(pendulum(), 0.3, 0.3 + 1.4e-12, 8)


def test_cached_potential_entries_are_read_only():
    # one array serves every later lookup of the key, at every start
    pm = potential(PEND, 0.3, 0.55, 16)
    with pytest.raises(ValueError):
        pm.entries[0, 0] = 0.0


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
# Oracles: the dense single step, the row-by-row compose and the windowed
# barrier, which the separable single step, the pruned compose and the
# Kleene-star barrier replaced.


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


def _window_barrier(h, alpha0, t, n):
    """Running minimum of A^k + k alpha0 over the horizons k = 8..64, with A
    the one-period potential from t: the windowed barrier the Kleene star
    replaced."""
    one_period = current = potential(h, t, t + 1.0, n)
    running = None
    for k in range(1, 65):
        if k > 1:
            current = minplus_compose(current, one_period)
        if k >= 8:
            cand = current.entries + alpha0 * k
            running = cand if running is None else np.minimum(running, cand)
    return running


def _free_grid_barrier(n):
    """The free barrier on the n-point grid: a path of |d| one-cell steps,
    each (1/n)^2 / 2, and steps of 0 cells, d the torus distance in cells."""
    cells = np.arange(n)
    d = np.abs(cells - cells[:, None])
    return np.minimum(d, n - d) / (2.0 * n * n)


@pytest.mark.parametrize("h, tol", [
    (FREE, 0.0),
    (PEND, 1e-13),
    (shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3), 1e-3),  # the default config's
])
def test_star_barrier_matches_the_window(h, tol):
    if h is FREE:
        # the exact free potential d^2 / 2 reaches the liminf only at a
        # horizon of |d| one-period steps, 128 for a half-turn at n = 256,
        # beyond the window's 64; the grid's exact barrier is the oracle
        for n in (64, N):
            assert np.max(np.abs(peierls_barrier(h, 0, n).matrix.entries - _free_grid_barrier(n))) <= tol
        return
    res = peierls_barrier(h, 0, N)
    window = _window_barrier(h, res.alpha0, 0, N)
    assert np.max(np.abs(res.matrix.entries - window)) <= tol


def _simple_cycle_means(a):
    """The mean weight of every simple cycle of the min-plus matrix a, each
    listed once, from its least node."""
    n = len(a)
    for length in range(1, n + 1):
        for cycle in itertools.permutations(range(n), length):
            if cycle[0] == min(cycle):
                yield sum(a[y, x] for y, x in zip(cycle, cycle[1:] + cycle[:1])) / length


_SMALL_MATRICES = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.floats(-10, 10), min_size=n * n, max_size=n * n)
).map(lambda xs: np.reshape(xs, (math.isqrt(len(xs)),) * 2))


@given(a=_SMALL_MATRICES)
@settings(max_examples=100, deadline=None)
def test_karp_is_the_least_simple_cycle_mean(a):
    assert abs(_karp(a) - min(_simple_cycle_means(a))) <= 1e-12


def _minplus_power_window(a, k0, width):
    """a^k0, the entrywise minimum of a^k over k0 <= k < k0 + width, and
    a^(k0 + width)."""
    power = a
    for _ in range(k0 - 1):
        power = np.min(power[:, :, None] + a, axis=1)
    first = low = power
    for _ in range(width):
        low = np.minimum(low, power)
        power = np.min(power[:, :, None] + a, axis=1)
    return first, low, power


STAR_TRANSIENT = 300  # powers past this have reached their periodic regime
STAR_PERIODS = 840  # lcm(1..8): a whole period of every cyclicity up to 8


@given(n=st.integers(1, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_star_barrier_is_the_liminf_of_normalized_powers(n, data):
    # tie-heavy small integers: many critical cycles of unequal lengths
    a = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)), float).reshape(n, n)
    lam = _karp(a)
    first, low, last = _minplus_power_window(a - lam, STAR_TRANSIENT, STAR_PERIODS)
    # a^(K + 840) = a^K: K lies past the transient, so the window spans the
    # periodic regime and its minimum is the liminf
    assert np.max(np.abs(last - first)) <= 1e-9
    assert np.max(np.abs(_star_barrier(a, lam) - low)) <= 1e-9


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_star_barrier_refuses_a_constant_off_the_cycle_mean(shift):
    # above the minimum cycle mean a cycle has negative weight, below it no
    # cycle has weight zero: either way there is no barrier
    a = np.array([[1.0, 3.0, 0.5], [0.0, 2.0, 4.0], [1.5, 1.0, 2.5]])
    with pytest.raises(DivergenceDetected):
        _star_barrier(a, _karp(a) + shift)


# wide enough for every Hamiltonian the tests draw, and for the default
# config's drift 0.3 over a quarter period
ORACLE_WINDINGS = range(-6, 7)


def _dense_winding(h, s, t, n, quad_nodes, w):
    """Midpoint-rule action of every straight segment y -> x + w, node by node."""
    grid = np.arange(n) / n
    span = t - s
    taus = s + (np.arange(quad_nodes) + 0.5) * span / quad_nodes
    fracs = (taus - s) / span
    delta = grid[None, :] - grid[:, None] + w
    vel = delta / span
    acc = np.zeros((n, n))
    for tau, frac in zip(taus, fracs):
        pos = grid[:, None] + frac * delta
        acc += lagrangian_batch(h, float(tau), pos, vel)
    acc *= span / quad_nodes
    return acc


def _dense_single_step(h, s, t, n, quad_nodes, windings=ORACLE_WINDINGS):
    """The single step of any family, the solvable ones included: the least
    midpoint-rule segment action over the windings."""
    best = None
    for w in windings:
        acc = _dense_winding(h, s, t, n, quad_nodes, w)
        best = acc if best is None else np.where(acc < best, acc, best)
    return PotentialMatrix(s, t, best)


DEFAULT_SHIFT = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3)  # the default config's H
AUTONOMOUS_SHIFT = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.3)  # the invariance config's


@pytest.mark.parametrize("s, t", [(0.1, 0.35), (0.3, 1.7)])
@pytest.mark.parametrize("h", [
    FREE,
    DEFAULT_SHIFT,
    shifted_quadratic([(0, 1, 0.0, 0.05), (2, -1, 0.03, 0.01)], drift=-1.7, offset=0.4),
    mechanical([(0, 0, 0.3, 0.0), (2, 0, 0.5, -0.2)], offset=-0.6),
], ids=["free", "default", "shift", "time-wave"])
def test_closed_form_potential_is_the_least_flow_action(h, s, t):
    # entry [y, x] is the family's own closed-form flow action from y at s,
    # with the momentum that lands on x + w at t, least over the windings w
    n = 64
    pm = potential(h, s, t, n)
    grid = np.arange(n) / n
    y, x = np.meshgrid(grid, grid, indexing="ij")
    span = t - s
    best = np.full((n, n), np.inf)
    w0 = round(h.drift * span)
    for w in range(w0 - 3, w0 + 4):
        v = (x + w - y) / span
        if h.family is Family.SHIFTED_QUADRATIC:
            p = v - h.drift + h.shift_profile.deriv(s, y, 0, 1)
        else:
            p = v
        q1, _, action, _ = h.ops.flow(h, y, p, s, t)
        assert np.max(np.abs(q1 - (x + w))) <= 1e-12
        best = np.minimum(best, action)
    assert np.max(np.abs(pm.entries - best)) <= 1e-12


def _midpoint_u_error(u, tau, quad_nodes, speed):
    """Bound on the composite midpoint rule's error for the integral of
    g(t) = d/dt u(t, q(t)) along a straight segment of span tau and speed at
    most `speed`: tau h^2 / 24 max|g''|, h = tau / quad_nodes, where g'' is
    the third total derivative of u, at most amplitude (2 pi (|j| + |k| speed))^3
    per term."""
    g2 = sum(math.hypot(a, b) * (2 * math.pi * (abs(j) + abs(k) * speed)) ** 3 for j, k, a, b in u.terms)
    return tau * (tau / quad_nodes) ** 2 / 24 * g2


@pytest.mark.parametrize("h, n", [(FREE, 256), (DEFAULT_SHIFT, 128), (AUTONOMOUS_SHIFT, 128)],
                         ids=["free", "default", "autonomous"])
def test_closed_form_potential_agrees_with_single_steps_and_composes(h, n):
    # the one-period build of the straight single steps: k = 4 quarter
    # periods of QUAD_NODES midpoint nodes each, composed by halving. With
    # T = 1 and tau = T / k, two sources part it from the closed form A:
    # - the composes put the intermediate points on the grid. In the shear
    #   frame the steps' kinetic sum_i (d_i - drift tau)^2 / (2 tau) is
    #   least, (D - drift T)^2 / (2 T), at d_i = D / k; grid steps of
    #   whole cells summing to D, the floors and ceilings of D / k, exceed it
    #   by sum_i (d_i - D / k)^2 / (2 tau) <= k (1 / (2n))^2 / (2 tau)
    #   = k^2 / (8 n^2 T), 3.05e-5 for free flow at n = 256, and never
    #   fall below A. The u terms telescope along any path.
    # - the midpoint rule integrates d/dt u(t, q(t)) along each step within
    #   E = _midpoint_u_error at the step's speed, at most |drift| + 1 / (2 tau)
    #   on the nearest winding (profiles of amplitude 0.05 alias no other);
    #   a min-plus compose moves by at most the sum of its factors' moves,
    #   so k steps move the oracle by at most k E.
    # So oracle - A lies in [-k E, k E + k^2 / (8 n^2 T)], up to rounding
    k, tau = 4, 0.25
    steps = [_dense_single_step(h, i * tau, (i + 1) * tau, n, lax_oleinik.QUAD_NODES, range(-3, 4)) for i in range(k)]
    halves = _dense_minplus_compose(steps[0], steps[1]), _dense_minplus_compose(steps[2], steps[3])
    oracle = _dense_minplus_compose(*halves).entries
    gap = oracle - potential(h, 0, 1, n).entries
    e = _midpoint_u_error(h.shift_profile, tau, lax_oleinik.QUAD_NODES, abs(h.drift) + 1 / (2 * tau))
    rounding = 1e-12
    assert np.min(gap) >= -k * e - rounding
    assert np.max(gap) <= k * e + k * k / (8 * n * n) + rounding


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


def _dense_karp(a):
    """Karp's formula with every z visited in each product."""
    n = len(a)
    d = np.zeros((n + 1, n))
    for k in range(n):
        d[k + 1] = np.min(d[k][:, None] + a, axis=0)
    return float(np.min(np.max((d[n] - d[:n]) / (n - np.arange(n))[:, None], axis=0)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 8, 64]),
    shape=st.sampled_from([_tied, _funnel]),
    offset=st.integers(-30, 30),
    levels=st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_pruned_karp_bitwise_on_tied_matrices(seed, n, shape, offset, levels):
    a = shape(np.random.default_rng(seed), n, offset, levels)
    assert _karp(a) == _dense_karp(a)


@pytest.mark.parametrize("h", [PEND, FREE, SHIFT, WAVE])
def test_pruned_karp_bitwise_on_potentials(h):
    a = potential(h, 0, 1, 128).entries
    assert _karp(a) == _dense_karp(a)


# V depends on q: the first term has a position harmonic, so no drawn H is
# solvable, and each reaches _single_step through potential
_Q_DEPENDENT_TERMS = st.tuples(
    st.tuples(st.integers(-8, 8), st.integers(1, 8), st.floats(-1, 1), st.floats(-1, 1)),
    st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.floats(-1, 1), st.floats(-1, 1)), max_size=2),
).map(lambda drawn: [drawn[0], *drawn[1]])


@given(
    terms=_Q_DEPENDENT_TERMS,
    offset=st.floats(-1, 1),
    s=st.floats(0, 1, exclude_max=True),
    span=st.floats(1 / 32, 0.25),
    n=st.sampled_from([16, 64, 256]),
    quad_nodes=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_separable_single_step_matches_dense(terms, offset, s, span, n, quad_nodes):
    h = mechanical(terms, offset=offset)
    dense = _dense_single_step(h, s, s + span, n, quad_nodes).entries
    with mock.patch.object(lax_oleinik, "QUAD_NODES", quad_nodes):
        fast = lax_oleinik._single_step(h, s, s + span, n).entries
    assert np.all(np.abs(fast - dense) <= 1e-13 * (1 + np.abs(dense)))


def test_single_step_walk_skips_a_midpoint_alias(monkeypatch):
    # three k = 3 shift terms of summed amplitude 0.31, as a custom callable,
    # which takes straight single steps: entry [10, 5] of the 8-node rule is
    # 0.359 at winding 0, where the walk stays, and 0.176 at winding 3. The
    # latter is an alias of the 8 nodes: 16 nodes put winding 3 at 15.96
    # (64 nodes: 15.90), so the walk's entry is the segment action's minimum
    terms = [(0, 3, 0.046875, 0.09375), (0, 3, 0.046875, 0.0859375), (0, 3, 0.0546875, 0.09375)]
    drift = 0.0625

    def u_q(q):
        return sum(2 * np.pi * k * (b * np.cos(2 * np.pi * k * q) - a * np.sin(2 * np.pi * k * q)) for _, k, a, b in terms)

    h = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.5 * (p - u_q(q)) ** 2 + drift * (p - u_q(q)),
        momentum_box=(-32.0, 32.0),
    )
    span, n = 0.2265625, 16
    monkeypatch.setattr(lax_oleinik, "QUAD_NODES", 8)
    fast = lax_oleinik._single_step(h, 0.0, span, n).entries[10, 5]
    winding_0 = _dense_winding(h, 0.0, span, n, 8, 0)[10, 5]
    assert abs(fast - winding_0) <= 1e-13 * (1 + abs(winding_0))
    assert _dense_winding(h, 0.0, span, n, 8, 3)[10, 5] < fast  # the alias
    assert _dense_winding(h, 0.0, span, n, 16, 3)[10, 5] > 40 * fast


# a non-finite offset is refused, so finite inputs that overflow stand in for
# the offsets inf (action -inf), -inf (action +inf) and nan (action inf - inf);
# an offset of 1e20 is a finite tie, as every v^2 / 2 <= 32 rounds away
# beside it (ids lead with the kinetic coefficient 1 of every mechanical H)
@pytest.mark.parametrize("terms, offset, action", [
    pytest.param([], 1e308, -np.inf, id="1.0-inf"),
    pytest.param([], -1e308, np.inf, id="1.0--inf"),
    pytest.param([(0, 0, 1e308, 0.0)], -1e308, np.nan, id="1.0-nan"),
    pytest.param([], 1e20, -1e20 * 0.25, id="1.0-1e+20"),
])
def test_single_step_walk_ends_on_ties(monkeypatch, terms, offset, action):
    # every winding ties at the same action (infinite, NaN, or -offset times
    # the span once v^2 / 2 rounds away): a tie improves no entry, so each
    # side stops after one winding
    h = mechanical(terms, offset=offset)
    calls = []
    segment_lagrangian = type(h.ops).segment_lagrangian
    monkeypatch.setattr(type(h.ops), "segment_lagrangian", lambda *a: calls.append(1) or segment_lagrangian(*a))
    with np.errstate(over="ignore", invalid="ignore"):
        best = lax_oleinik._single_step(h, 0.0, 0.25, 16).entries
    assert len(calls) == 3
    assert np.array_equal(best, np.full_like(best, action), equal_nan=True)


def test_custom_single_step_matches_dense(monkeypatch):
    hc = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.25 * p**4 + 0.5 * p**2 + 0.3 * np.cos(2 * np.pi * (q - t)),
        momentum_box=(-8.0, 8.0),
    )
    dense = _dense_single_step(hc, 0.1, 0.35, 16, 4).entries
    monkeypatch.setattr(lax_oleinik, "QUAD_NODES", 4)
    fast = lax_oleinik._single_step(hc, 0.1, 0.35, 16).entries
    assert np.all(np.abs(fast - dense) <= 1e-12 * (1 + np.abs(dense)))


def test_a_maximizer_on_the_box_edge_raises_on_every_path():
    # H = p^2/2 in the box (-1, 1): at v = 3 the maximizer p = 3 lies outside,
    # and the bisection's clipped L(3) = 2.5 would stand for 4.5. A quarter
    # period at n = 16 needs speeds up to 4, so winners of the single step clip
    h = TonelliHamiltonian(family=Family.CUSTOM, custom_fn=lambda t, q, p: 0.5 * p**2, momentum_box=(-1.0, 1.0))
    with pytest.raises(MaximizerNotFound, match="v=3.0"):
        legendre_transform(h, 0.0, 0.0, 3.0)
    with pytest.raises(MaximizerNotFound, match="v=3.0"):
        lagrangian_batch(h, 0.0, np.zeros(3), np.array([0.5, 3.0, -0.25]))
    assert lagrangian_batch(h, 0.0, np.zeros(2), np.array([0.5, -0.25])) == pytest.approx([0.125, 0.03125], abs=1e-12)
    with pytest.raises(MaximizerNotFound, match="144 entries"):
        potential(h, 0.0, 0.25, 16)


def test_a_zero_term_changes_nothing():
    # free flow with a zero position term and a zero time term is the empty
    # potential's closed form, bit for bit
    zero, empty = mechanical([(0, 1, 0.0, 0.0), (1, 2, 0.0, 0.0)]), mechanical([])
    assert zero.ops.solvable(zero) and zero.autonomous
    for n in (64, 256):
        a, b = peierls_barrier(zero, 0.0, n), peierls_barrier(empty, 0.0, n)
        assert a.matrix.entries.tobytes() == b.matrix.entries.tobytes() and a.alpha0 == b.alpha0
        assert potential(zero, 0.3, 0.55, n).entries.tobytes() == potential(empty, 0.3, 0.55, n).entries.tobytes()
        assert mane_critical_value(zero, n) == mane_critical_value(empty, n)
    q, p = np.array([0.1, 0.7, -0.4]), np.array([0.5, -1.2, 0.0])
    (*ends_a, rec_a), (*ends_b, rec_b) = (integrate_batch(h, q, p, 0.2, 1.3, FlowSettings(), record_knots=True)
                                          for h in (zero, empty))
    for x, y in [*zip(ends_a, ends_b), *((rec_a[key], rec_b[key]) for key in rec_a)]:
        assert x.tobytes() == y.tobytes()


def test_a_time_only_potential_is_its_gauge_bitwise():
    # V = c + dW/dt with W's terms (j, 0, -b/(2 pi j), a/(2 pi j)) is free
    # flow plus a function of t: the shifted quadratic with profile -W, no
    # drift and offset c + offset, built here from the same floats
    waves = [(1, 0, 0.3, -0.2), (2, 0, 0.0, 0.1)]
    vt = mechanical([(0, 0, 0.25, 0.0), *waves], offset=-0.4)
    gauge = shifted_quadratic([(j, 0, b / (2 * math.pi * j), -a / (2 * math.pi * j)) for j, _, a, b in waves],
                              drift=0.0, offset=0.25 + -0.4)
    assert vt._gauge == gauge
    for s, t in ((0.0, 1.0), (0.3, 1.3)):
        assert np.array_equal(potential(vt, s, t, 64).entries, potential(gauge, s, t, 64).entries)
    assert mane_critical_value(vt, 64) == mane_critical_value(gauge, 64)
    a, b = peierls_barrier(vt, 0.3, 64), peierls_barrier(gauge, 0.3, 64)
    assert np.array_equal(a.matrix.entries, b.matrix.entries) and a.alpha0 == b.alpha0
    q, p = np.array([0.1, 0.7, -0.4]), np.array([0.5, -1.2, 0.0])
    (*ends_a, rec_a), (*ends_b, rec_b) = (integrate_batch(h, q, p, 0.2, 1.3, FlowSettings(), record_knots=True)
                                          for h in (vt, gauge))
    for x, y in [*zip(ends_a, ends_b), *((rec_a[key], rec_b[key]) for key in rec_a)]:
        assert np.array_equal(x, y)


def test_dead_terms_of_a_position_dependent_potential_change_nothing(monkeypatch):
    # zero terms are skipped where V is evaluated, so the pendulum written with
    # two of them takes the pendulum's cos passes, on the same arrays, and its
    # potential, barrier and Strang flow are the pendulum's, bit for bit
    dead = mechanical([(0, 1, 1.0, 0.0), (0, 2, 0.0, 0.0), (0, 3, 0.0, 0.0)])
    assert not dead.ops.solvable(dead)
    cos, passes = np.cos, []
    monkeypatch.setattr(np, "cos", lambda x, *args, **kwargs: passes.append(np.shape(x)) or cos(x, *args, **kwargs))
    q, p = np.array([0.1, 0.7, -0.4]), np.array([0.5, -1.2, 0.0])
    runs = []
    for h in (dead, PEND):
        clear_potential_cache()
        passes.clear()
        barrier = peierls_barrier(h, 0.0, 64)
        arrays = [potential(h, 0.3, 0.55, 64).entries, barrier.matrix.entries, np.array(barrier.alpha0)]
        *ends, rec = integrate_batch(h, q, p, 0.2, 1.3, FlowSettings(), record_knots=True)
        runs.append(([x.tobytes() for x in (*arrays, *ends, *rec.values())], list(passes)))
    assert runs[0] == runs[1]


def test_weak_kam_residual_uses_the_barrier_potential_settings():
    # the refined residual applies the one-period operator built with the
    # single-step span that built the barrier, not the default one
    bp = peierls_barrier(PEND, 0, 64, max_span=1 / 16)
    assert bp.max_span == 1 / 16
    _, res = positive_weak_kam(PEND, 1.0, 0, 0.0, 64, barrier=bp)
    u = GridFunction(-bp.matrix.entries[:, 0])
    u_fine = GridFunction(u.eval(np.arange(128) / 128))
    for max_span, same in ((1 / 16, True), (lax_oleinik.SINGLE_STEP_SPAN, False)):
        image = lax_positive(u_fine, potential(PEND, 0, 1, 128, max_span=max_span), 1.0)
        by_hand = float(np.max(np.abs(image.values - u_fine.values)))
        assert (res == by_hand) is same
