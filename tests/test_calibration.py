
import tracemalloc

import numpy as np
import pytest

from birkhoff_lab import calibration
from birkhoff_lab.calibration import (
    SpaceTimeFunction,
    calibrated_curve,
    calibration_defect,
    domination_check,
    spacetime_from_grid,
    spacetime_from_lax,
)
from birkhoff_lab.errors import DomainExceeded, KinkAtSeed, NonpositiveDuration
from birkhoff_lab.flow import PhasePoint, simpson_pattern, trajectory
from birkhoff_lab.grids import GridFunction, constant_grid, grid_from_trig, periodic_spline
from birkhoff_lab.hamiltonians import fenchel_gap, free_hamiltonian, pendulum, shifted_quadratic, wrap_unit
from birkhoff_lab.lax_oleinik import lagrangian_batch, potential

FREE = free_hamiltonian()
PEND = pendulum()
AUTON_SQ = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.3)


def star_candidate(t1=2.0):
    return spacetime_from_grid(grid_from_trig(AUTON_SQ.shift_profile, 256), 0.0, t1, 0.0)


def test_defect_stationary_zero():
    u = spacetime_from_grid(constant_grid(0.0, 256), 0.0, 1.0, 0.0)
    tr = trajectory(FREE, PhasePoint(0.3, 0.0), 0, 1)
    assert calibration_defect(u, tr, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_defect_pure_action():
    u = spacetime_from_grid(constant_grid(0.0, 256), 0.0, 1.0, 0.0)
    tr = trajectory(FREE, PhasePoint(0.1, 0.7), 0, 1)
    assert calibration_defect(u, tr, 0.0, 1.0) == pytest.approx(0.7**2 / 2, abs=1e-12)


def test_defect_additivity_exact():
    u = spacetime_from_grid(constant_grid(0.0, 256), 0.0, 1.0, 0.0)
    tr = trajectory(PEND, PhasePoint(0.2, 1.3), 0, 1)
    d1 = calibration_defect(u, tr, 0.0, 0.5)
    d2 = calibration_defect(u, tr, 0.5, 1.0)
    d = calibration_defect(u, tr, 0.0, 1.0)
    assert d1 + d2 == pytest.approx(d, abs=1e-15)


def test_defect_domain_errors():
    u = spacetime_from_grid(constant_grid(0.0, 256), 0.0, 1.0, 0.0)
    tr = trajectory(FREE, PhasePoint(0.0, 1.0), 0, 1)
    with pytest.raises(DomainExceeded):
        calibration_defect(u, tr, 0.0, 2.0)
    with pytest.raises(DomainExceeded):
        calibration_defect(u, tr, 0.0, 0.5004)  # off the macro knots


def test_manufactured_calibrated_curve():
    rep = calibrated_curve(star_candidate(), AUTON_SQ, 0.0, 0.3, 2.0)
    assert abs(rep.defect) <= 1e-5
    assert rep.max_momentum_residual <= 1e-4
    assert rep.max_hj_residual <= 1e-4
    assert set(rep.to_dict()) == {"defect", "momentum_residual", "hj_residual", "seed_t", "seed_q"}


def test_free_zero_candidate_constant_curve():
    u = spacetime_from_grid(constant_grid(0.0, 256), 0.0, 1.0, 0.0)
    rep = calibrated_curve(u, FREE, 0.0, 0.4, 1.0)
    assert rep.defect == pytest.approx(0.0, abs=1e-14)
    assert rep.max_momentum_residual <= 1e-12
    assert rep.max_hj_residual <= 1e-12


def test_fenchel_equality_along_calibrated_curve():
    rep = calibrated_curve(star_candidate(), AUTON_SQ, 0.0, 0.55, 1.0)
    tr = rep.curve
    u = star_candidate()
    worst = 0.0
    for k in range(0, len(tr.times), 25):
        t, q = float(tr.times[k]), float(tr.q[k])
        v = float(AUTON_SQ.ops.vector_field(AUTON_SQ, t, q, float(tr.p[k]))[0])
        gap = fenchel_gap(AUTON_SQ, t, q, v, float(u.jet(t, q)[1]))
        worst = max(worst, gap)
    assert worst <= rep.max_momentum_residual + 1e-12


def test_calibration_implies_minimization():
    # action between the endpoints is within 2 tol of the optimal cost
    rep = calibrated_curve(star_candidate(), AUTON_SQ, 0.0, 0.3, 1.0)
    tr = rep.curve
    n = 256
    pm = potential(AUTON_SQ, 0.0, 1.0, n)
    y = int(round(float(tr.q[0]) * n)) % n
    x = int(round(float(tr.q[-1]) * n)) % n
    action = float(np.sum(tr.action_increments))
    tol = max(abs(rep.defect), 1e-5)
    snap = (1.0 + float(np.max(np.abs(tr.p)))) / n  # endpoints rounded to the grid
    assert action <= pm.entries[y, x] + 2 * tol + snap


def test_domination_of_manufactured_solution():
    rep = domination_check(star_candidate(), AUTON_SQ, count=1000, seed=1)
    assert rep.min_defect >= -1e-4
    assert rep.count == 1000


def test_domination_of_lax_evolved_free():
    u = spacetime_from_lax(FREE, constant_grid(0.0, 256), 0.0, 1.0, 0.0)
    rep = domination_check(u, FREE, count=1000, seed=3)
    assert rep.min_defect >= -5e-3


@pytest.mark.parametrize("t1", [0.0, -1.0])
def test_spacetime_from_lax_nonpositive_span_is_a_duration_error(t1):
    # an empty or reversed span, not a knot step that fails to divide it
    with pytest.raises(NonpositiveDuration, match=rf"need t1 > t0, got \[0.0, {t1}\]"):
        spacetime_from_lax(FREE, constant_grid(0.0, 16), 0.0, t1, 0.0)


def test_domination_fails_for_non_solution():
    bad = spacetime_from_grid(
        GridFunction(10 * np.sin(2 * np.pi * np.arange(256) / 256)), 0.0, 1.0, 1.0
    )
    rep = domination_check(bad, PEND, count=500, seed=5)
    assert rep.min_defect < -1.0


def test_domination_deterministic():
    u = star_candidate(1.0)
    a = domination_check(u, AUTON_SQ, count=200, seed=11)
    b = domination_check(u, AUTON_SQ, count=200, seed=11)
    assert a.min_defect == b.min_defect and a.argmin == b.argmin


def _domination_all_at_once(u, h, count, seed):
    """domination_check with every loop drawn from one generator before the
    first is evaluated, and one argmin over all defects: the reference for
    its block-by-block draws."""
    degree, m = calibration.TEST_LOOP_DEGREE, calibration.TEST_LOOP_INTERVALS
    t0, t1 = float(u.times[0]), float(u.times[-1])
    span = t1 - t0
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.0, 1.0, size=count)
    coef = rng.uniform(-1.0, 1.0, size=(count, degree, 2))
    norm = np.sum(np.abs(coef), axis=(1, 2))
    scale = calibration.TEST_LOOP_AMPLITUDE * rng.uniform(0.2, 1.0, size=count) / np.maximum(norm, 1e-12)
    coef *= scale[:, None, None]
    taus = t0 + span * np.arange(m + 1) / m
    d = np.arange(1, degree + 1)
    ang = np.pi * d[None, :, None] * ((taus - t0) / span)[None, None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    gamma = q0[:, None] + np.sum(coef[:, :, 0:1] * cos + coef[:, :, 1:2] * sin, axis=1)
    dgamma = np.sum((np.pi / span) * d[None, :, None] * (-coef[:, :, 0:1] * sin + coef[:, :, 1:2] * cos), axis=1)
    lag = np.stack([lagrangian_batch(h, float(tau), gamma[:, j], dgamma[:, j]) for j, tau in enumerate(taus)], axis=1)
    actions = lag @ (simpson_pattern(m) * (span / (3.0 * m))) + u.alpha0 * span
    u_start, u_end = u.jet(np.array([[t0], [t1]]), gamma[:, [0, -1]].T)[0]
    defects = actions - (u_end - u_start)
    k = int(np.argmin(defects))
    return calibration.DominationReport(float(defects[k]), k, count)


@pytest.mark.parametrize("block", [5000, 333])
@pytest.mark.parametrize("candidate, h", [
    (lambda: star_candidate(1.0), AUTON_SQ),
    (lambda: spacetime_from_grid(GridFunction(np.cos(2 * np.pi * np.arange(64) / 64)), 0.0, 1.0, 1.0), PEND),
], ids=["manufactured", "pendulum-grid"])
def test_domination_in_blocks_equals_one_pass(monkeypatch, candidate, h, block):
    # each block draws its loops where drawing them all at once would, so the
    # report does not depend on the block size and is the one-pass report
    u = candidate()
    blocked = domination_check(u, h, count=5003, seed=3)
    assert blocked == _domination_all_at_once(u, h, 5003, 3)
    monkeypatch.setattr(calibration, "TEST_LOOP_BLOCK", block)
    assert domination_check(u, h, count=5003, seed=3) == blocked


def test_domination_memory_does_not_grow_with_the_count(monkeypatch):
    # loops are drawn and evaluated a block at a time, so the traced peak
    # does not grow with the count: at 50 000 loops it stays within 1 MB of
    # the one at 5 000, where drawing every loop before the first block
    # would add 3.6 MB
    monkeypatch.setattr(calibration, "TEST_LOOP_BLOCK", 256)
    u = star_candidate(1.0)
    domination_check(u, FREE, count=5_000, seed=0)  # first-call allocations stay out of the peaks
    peaks = []
    for count in (5_000, 50_000):
        tracemalloc.start()
        try:
            domination_check(u, FREE, count=count, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6


def test_kink_at_seed_refused_and_forward_calibration():
    # forward-calibrated curves belong to the positive weak solution (its
    # graph is the branch the forward flow preserves)
    from birkhoff_lab.lax_oleinik import peierls_barrier, positive_weak_kam

    barrier = peierls_barrier(PEND, 0, 256, max_span=1 / 16)
    u, _ = positive_weak_kam(PEND, 1.0, 0, 0.0, 256, barrier=barrier)
    st = spacetime_from_grid(u, 0.0, 1.0, 1.0)
    qs = np.arange(256) / 256
    d2 = np.abs(np.roll(u.values, -1) - 2 * u.values + np.roll(u.values, 1))
    kink_q = float(qs[int(np.argmax(d2))])
    with pytest.raises(KinkAtSeed):
        calibrated_curve(st, PEND, 0.0, kink_q, 1.0)
    # quarter-period self-consistency: the saddle exponent of the pendulum
    # amplifies the O(1e-3) derivative jitter of the discrete solution by
    # e^(2 pi t), so longer shots leave the declared resolution
    rep = calibrated_curve(st, PEND, 0.0, (kink_q + 0.15) % 1.0, 0.25)
    assert abs(rep.defect) <= 1e-2
    assert rep.max_momentum_residual <= 5e-2
    assert rep.max_hj_residual <= 5e-2


def test_spacetime_validation():
    SpaceTimeFunction(np.array([0.0, 0.25]), np.zeros((2, 16)))  # fine
    with pytest.raises(ValueError):
        SpaceTimeFunction(np.array([0.0, 0.6]), np.zeros((2, 16)))  # spacing too wide
    with pytest.raises(ValueError):
        SpaceTimeFunction(np.array([0.0, 0.25]), np.zeros((3, 16)))  # length mismatch
    with pytest.raises(ValueError):
        SpaceTimeFunction(np.array([0.0]), np.zeros((1, 16)))  # one knot
    with pytest.raises(ValueError):
        SpaceTimeFunction(np.array([0.0, 0.25]), np.where(np.eye(2, 16), np.inf, 0.0))  # non-finite knots
    with pytest.raises(ValueError):
        SpaceTimeFunction(np.array([0.0, 0.25]), np.zeros((2, 12)))  # resolution not a power of two


def _per_row_jet(u, t, q):
    """(u, dq u, dt u) at one time from one periodic spline per knot row:
    the formulas jet reproduces bitwise."""
    splines = [periodic_spline(row) for row in u.knots]
    ts = u.times
    j = min(max(int(np.searchsorted(ts, t, side="right") - 1), 0), len(ts) - 2)
    w = float(np.clip((t - ts[j]) / (ts[j + 1] - ts[j]), 0.0, 1.0))
    qw = wrap_unit(q)
    lo, hi = splines[j](qw), splines[j + 1](qw)
    dlo, dhi = splines[j](qw, 1), splines[j + 1](qw, 1)
    value = lo if w == 0.0 else (1 - w) * lo + w * hi
    slope = dlo if w == 0.0 else (1 - w) * dlo + w * dhi
    return value, slope, (hi - lo) / (ts[j + 1] - ts[j])


@pytest.mark.parametrize("n", [16, 256])
def test_jet_matches_per_row_splines_bitwise(n):
    rng = np.random.default_rng(n)
    times = np.array([0.0, 0.1, 0.3, 0.55, 0.8, 1.0])
    u = SpaceTimeFunction(times, rng.normal(size=(len(times), n)), 0.5)
    # both window ends, every knot, mid-interval times and a hair inside the ends
    ts = np.concatenate([times, 0.5 * (times[1:] + times[:-1]), [1e-12, 1.0 - 1e-12]])
    qs = np.concatenate([rng.uniform(-2.0, 3.0, 9), np.arange(4) / n, [1.0]])
    for t in ts:
        want = _per_row_jet(u, float(t), qs)
        for k, got in enumerate(u.jet(float(t), qs)):
            assert np.array_equal(got, want[k])
        for i, q in enumerate(qs):  # scalar arguments
            for k, got in enumerate(u.jet(float(t), float(q))):
                assert np.shape(got) == () and np.array_equal(got, want[k][i])
    grid = u.jet(ts[:, None], qs[None, :])  # times along one axis, positions along the other
    paired = u.jet(np.repeat(ts, len(qs)), np.tile(qs, len(ts)))  # one time per position
    for k in range(3):
        want = np.array([_per_row_jet(u, float(t), qs)[k] for t in ts])
        assert np.array_equal(grid[k], want)
        assert np.array_equal(paired[k], want.ravel())


def test_jet_names_the_first_time_outside_the_window():
    u = SpaceTimeFunction(np.array([0.0, 0.25]), np.zeros((2, 16)))
    with pytest.raises(DomainExceeded, match=r"^time 0\.5 outside \[0\.0, 0\.25\]$"):
        u.jet(np.array([0.1, 0.5, -1.0, 0.7]), 0.3)
