import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from birkhoff_lab import lax_oleinik
from birkhoff_lab.errors import DivergenceDetected, GridMismatch, NonpositiveDuration
from birkhoff_lab.grids import GridFunction, constant_grid
from birkhoff_lab.hamiltonians import free_hamiltonian, mechanical, pendulum, shifted_quadratic, wrap_unit
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
    assert abs(mane_critical_value(h, N, quad_nodes=16)) <= 2e-3
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
    from birkhoff_lab.hamiltonians import Family, TonelliHamiltonian

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
    # build at the true start stays the oracle
    def close(fast, slow):
        return np.all(np.abs(fast - slow) <= 1e-13 * (1 + np.abs(slow)))

    steps = [lax_oleinik._single_step(h, s + k / 4, s + (k + 1) / 4, 64, lax_oleinik.QUAD_NODES) for k in range(4)]
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


@pytest.mark.parametrize("h, tol", [
    (FREE, 0.0),
    (PEND, 1e-13),
    (shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3), 1e-3),  # the default config's
])
def test_star_barrier_matches_the_window(h, tol):
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


# wide enough for every Hamiltonian the tests draw: at drift -12 a quarter
# period attains windings down to -4
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


def _dense_single_step(h, s, t, n, quad_nodes):
    best = None
    for w in ORACLE_WINDINGS:
        acc = _dense_winding(h, s, t, n, quad_nodes, w)
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


_MECHANICAL_TERMS = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.floats(-1, 1), st.floats(-1, 1)),
    min_size=1, max_size=3,
)
SHIFT_AMPLITUDE = 0.1  # cap on the sum of hypot(a, b) over a drawn shift profile


def _capped(terms):
    """The terms scaled down so that their amplitudes sum to SHIFT_AMPLITUDE at most."""
    total = sum(math.hypot(a, b) for _, _, a, b in terms)
    scale = min(1.0, SHIFT_AMPLITUDE / total) if total else 1.0
    return [(j, k, a * scale, b * scale) for j, k, a, b in terms]


# shift profiles stay small, as in the configs (amplitude 0.05): the product
# of du/dq with the velocity amplifies the rounding of the phases, in the
# dense step as well. The amplitude is capped in sum, not per term: terms of
# one harmonic add up, and a profile of amplitude 0.31 in k = 3 makes the
# 8-node midpoint rule alias at winding 3, a velocity of about 13, where the
# dense oracle then finds an action far below the integral's
# (test_single_step_walk_skips_a_midpoint_alias)
_SHIFT_TERMS = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
    min_size=1, max_size=3,
).map(_capped)


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


def test_single_step_walk_skips_a_midpoint_alias():
    # three k = 3 shift terms of summed amplitude 0.31 (a hypothesis draw
    # that _SHIFT_TERMS caps): entry [10, 5] of the 8-node rule is 0.359
    # at winding 0, where the walk stays, and 0.176 at winding 3. The latter
    # is an alias of the 8 nodes: 16 nodes put winding 3 at 15.96 (64 nodes:
    # 15.90), so the walk's entry is the segment action's minimum
    h = shifted_quadratic(
        [(0, 3, 0.046875, 0.09375), (0, 3, 0.046875, 0.0859375), (0, 3, 0.0546875, 0.09375)], drift=0.0625
    )
    span, n = 0.2265625, 16
    fast = lax_oleinik._single_step(h, 0.0, span, n, 8).entries[10, 5]
    winding_0 = _dense_winding(h, 0.0, span, n, 8, 0)[10, 5]
    assert abs(fast - winding_0) <= 1e-13 * (1 + abs(winding_0))
    assert _dense_winding(h, 0.0, span, n, 8, 3)[10, 5] < fast  # the alias
    assert _dense_winding(h, 0.0, span, n, 16, 3)[10, 5] > 40 * fast


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
    bp = peierls_barrier(PEND, 0, 64, max_span=1 / 16)
    assert (bp.max_span, bp.quad_nodes) == (1 / 16, lax_oleinik.QUAD_NODES)
    _, res = positive_weak_kam(PEND, 1.0, 0, 0.0, 64, barrier=bp)
    u = GridFunction(-bp.matrix.entries[:, 0])
    u_fine = GridFunction(u.eval(np.arange(128) / 128))
    for max_span, same in ((1 / 16, True), (lax_oleinik.SINGLE_STEP_SPAN, False)):
        image = lax_positive(u_fine, potential(PEND, 0, 1, 128, max_span=max_span), 1.0)
        by_hand = float(np.max(np.abs(image.values - u_fine.values)))
        assert (res == by_hand) is same
