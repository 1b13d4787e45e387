
import numpy as np
import pytest

from birkhoff_lab import flow
from birkhoff_lab.errors import StepSizeUnderflow
from birkhoff_lab.flow import (
    FlowSettings,
    PhasePoint,
    Trajectory,
    flow_map,
    integrate_batch,
    trajectory,
)
from birkhoff_lab.hamiltonians import (
    TWO_PI,
    Family,
    TonelliHamiltonian,
    TrigPolynomial,
    free_hamiltonian,
    mechanical,
    pendulum,
    shifted_quadratic,
    wrap_unit,
)

# frozen Richardson-extrapolated RK4 oracle (fixed steps 2e-5 and 1e-5):
# pendulum H = p^2/2 + cos(2 pi q), x0 = (0, 2), t = 10
ORACLE_Q_LIFT = 23.968906656038648
ORACLE_P = 2.009489073148158

RK4_TIGHT = FlowSettings(integrator="rk4")
EPS = np.finfo(float).eps


def test_free_flow_exact():
    # closed form: q + (t - s) k p
    x = flow_map(free_hamiltonian(), PhasePoint(0.2, 0.5), 0, 1)
    assert x.q == wrap_unit(0.2 + (1.0 - 0.0) * (1.0 * 0.5))
    assert x.p == 0.5


def test_pendulum_equilibrium():
    x = flow_map(pendulum(), PhasePoint(0.5, 0.0), 0, 5)
    assert abs(x.q - 0.5) <= 1e-12
    assert abs(x.p) <= 1e-12


def test_pendulum_matches_richardson_oracle():
    tr = trajectory(pendulum(), PhasePoint(0.0, 2.0), 0, 10, RK4_TIGHT)
    assert abs(tr.q_lift[-1] - ORACLE_Q_LIFT) <= 1e-8
    assert abs(tr.p[-1] - ORACLE_P) <= 1e-8


def test_energy_drift_rk4_tight():
    tr = trajectory(pendulum(), PhasePoint(0.0, 2.0), 0, 10, RK4_TIGHT)
    assert tr.energy_drift(pendulum()) <= 1e-9


def test_strang_energy_error_second_order(monkeypatch):
    errs = []
    for macro in (1e-2, 5e-3):
        monkeypatch.setattr(FlowSettings, "macro_step", macro)
        st = FlowSettings()  # the pendulum takes Strang steps
        errs.append(trajectory(pendulum(), PhasePoint(0.0, 2.0), 0, 5, st).energy_drift(pendulum()))
    assert errs[1] <= errs[0] / 3.0  # order 2 halving


def test_group_law_and_reversibility():
    h = pendulum()
    rng = np.random.default_rng(42)
    for _ in range(4):
        x = PhasePoint(rng.uniform(0, 1), rng.uniform(-2, 2))
        s, m, t = sorted(rng.uniform(0, 3, 3))
        a = flow_map(h, x, s, t, RK4_TIGHT)
        b = flow_map(h, flow_map(h, x, s, m, RK4_TIGHT), m, t, RK4_TIGHT)
        assert abs(a.q - b.q) <= 1e-8 and abs(a.p - b.p) <= 1e-8
        r = flow_map(h, flow_map(h, x, s, t, RK4_TIGHT), t, s, RK4_TIGHT)
        assert min(abs(r.q - x.q), 1 - abs(r.q - x.q)) <= 1e-8
        assert abs(r.p - x.p) <= 1e-8


def test_shifted_flow_group_law_machine():
    h = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3)
    st = FlowSettings()
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = PhasePoint(rng.uniform(0, 1), rng.uniform(-1, 1))
        s, m, t = sorted(rng.uniform(0, 3, 3))
        a = flow_map(h, x, s, t, st)
        b = flow_map(h, flow_map(h, x, s, m, st), m, t, st)
        assert min(abs(a.q - b.q), 1 - abs(a.q - b.q)) <= 1e-12
        assert abs(a.p - b.p) <= 1e-12


def test_symplectic_area_probe():
    h = mechanical([(0, 1, 0.01, 0.0)])
    st = FlowSettings()  # Strang steps: the potential has a position harmonic
    eps = 1e-8
    pts = [(0.3, 0.3), (0.3 + eps, 0.3), (0.3, 0.3 + eps)]
    out = []
    for q0, p0 in pts:
        q, p, _ = integrate_batch(h, np.array([q0]), np.array([p0]), 0, 10, st)
        out.append((q[0], p[0]))
    (x0, y0), (x1, y1), (x2, y2) = out
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    assert abs(area - eps * eps / 2) / (eps * eps / 2) <= 1e-6


def test_action_zero_section_and_free_closed_form():
    h = free_hamiltonian()
    tr = trajectory(h, PhasePoint(0.3, 0.0), 0, 2)
    assert np.max(np.abs(tr.action_increments)) == 0.0
    # closed form: (k p^2 / 2 - offset)(t - s) over the span, and per knot interval
    q, p, action = integrate_batch(h, np.array([0.0]), np.array([0.7]), 0, 2, FlowSettings())
    assert q[0] == 0.0 + (2.0 - 0.0) * 0.7 and p[0] == 0.7
    assert action[0] == (0.5 * 0.7 * 0.7) * (2.0 - 0.0)
    tr = trajectory(h, PhasePoint(0.0, 0.7), 0, 2)
    assert np.array_equal(tr.action_increments, (0.5 * 0.7 * 0.7) * np.diff(tr.times))


def test_action_at_pendulum_equilibrium():
    # stationary point at the potential maximum: integrand is -H = -1
    tr = trajectory(pendulum(), PhasePoint(0.0, 0.0), 0, 3)
    assert tr.total_action == pytest.approx(-3.0, abs=1e-10)


def test_extended_trajectory_energy():
    # on the zero level of the extended Hamiltonian the energy E = -H of an
    # autonomous flow stays put
    free = free_hamiltonian()
    assert trajectory(free, PhasePoint(0.0, 1.0), 0, 10).energy_drift(free) <= 1e-12
    h = pendulum()
    assert trajectory(h, PhasePoint(0.0, 2.0), 0, 10, RK4_TIGHT).energy_drift(h) <= 1e-9


def test_rk4_lone_point_matches_batch_bitwise():
    # a lone point steps on scalars; two copies of it step as one array batch
    # under the same error control, so both must give the same bits
    for h in (pendulum(), shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3)):
        for s, t in ((0.0, 0.7), (0.4, -0.3)):
            one = integrate_batch(h, np.array([0.15]), np.array([1.4]), s, t, RK4_TIGHT)
            two = integrate_batch(h, np.full(2, 0.15), np.full(2, 1.4), s, t, RK4_TIGHT)
            for a, b in zip(one, two):
                assert a.shape == (1,) and np.array_equal(np.repeat(a, 2), b)


def test_rk4_step_underflow(monkeypatch):
    monkeypatch.setattr(flow, "RK4_TOL", 0.0)
    h = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.5 * p**2 + np.cos(2 * np.pi * q),
        momentum_box=(-10, 10),
    )
    st = FlowSettings(integrator="rk4")
    with pytest.raises(StepSizeUnderflow):
        flow_map(h, PhasePoint(0.1, 1.0), 0, 1, st)


def test_rk4_step_underflow_on_divergent_hamiltonian():
    # the cubic term sends this orbit to infinite momentum in finite time, near t = 0.18
    h = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.5 * p**2 + np.sin(2 * np.pi * q) * p**3,
        momentum_box=(-10, 10),
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepSizeUnderflow) as info:
        flow_map(h, PhasePoint(0.1, 1.0), 0, 1, FlowSettings(integrator="rk4"))
    assert 0.15 < float(str(info.value).rpartition("t=")[2]) < 0.2


def test_dormand_prince_tableau_is_scipys():
    from scipy.integrate import RK45

    assert np.array_equal(flow._C, RK45.C[1:])
    for row, want in zip(flow._A, RK45.A[1:], strict=True):
        assert np.array_equal(row, want[: len(row)]) and not np.any(want[len(row) :])
    assert np.array_equal(flow._B, RK45.B) and np.array_equal(flow._E, RK45.E)


def test_settings_validation():
    for integrator in ("leapfrog", "strang"):
        with pytest.raises(ValueError):
            FlowSettings(integrator=integrator)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            q=np.zeros(2),
            q_lift=np.zeros(2),
            p=np.zeros(2),
            action_increments=np.zeros(1),
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            q=np.zeros(2),
            q_lift=np.zeros(2),
            p=np.zeros(2),
            action_increments=np.zeros(2),
        )


@pytest.mark.parametrize("family", ["pendulum (Strang)", "custom quartic (RK4)"])
def test_action_does_not_depend_on_recording_knots(family, monkeypatch):
    # Each macro step's Simpson sum starts from the velocity at its first knot,
    # recorded or not; qdot varies along these orbits, so a stale one shows.
    h = pendulum() if family.startswith("pendulum") else TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.25 * p**4 + 0.5 * p**2 + 0.2 * np.cos(2 * np.pi * q),
        momentum_box=(-10, 10),
    )
    q, p = np.array([0.1, 0.3, 0.7]), np.array([0.5, 1.2, -0.4])
    monkeypatch.setattr(FlowSettings, "macro_step", 0.05)
    settings = FlowSettings()
    *_, plain = integrate_batch(h, q, p, 0.0, 1.0, settings)
    _, _, recorded, rec = integrate_batch(h, q, p, 0.0, 1.0, settings, record_knots=True)
    assert np.array_equal(plain, recorded)


@pytest.mark.parametrize("family", ["pendulum (Strang)", "shifted quadratic (shear)", "custom quartic (RK4)"])
def test_zero_span_returns_start_point(family):
    h = {
        "pendulum (Strang)": pendulum(),
        "shifted quadratic (shear)": shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3),
        "custom quartic (RK4)": TonelliHamiltonian(
            family=Family.CUSTOM,
            custom_fn=lambda t, q, p: 0.25 * p**4 + 0.2 * np.cos(2 * np.pi * q),
            momentum_box=(-10, 10),
        ),
    }[family]
    s = 0.35
    q, p = np.array([0.1, 1.3, -0.4]), np.array([0.5, -1.2, 0.0])
    q1, p1, action = integrate_batch(h, q, p, s, s, FlowSettings())
    assert np.array_equal(q1, q) and np.array_equal(p1, p) and np.array_equal(action, np.zeros(3))
    q2, p2, action2, rec = integrate_batch(h, q, p, s, s, FlowSettings(), record_knots=True)
    assert np.array_equal(q2, q) and np.array_equal(p2, p) and np.array_equal(action2, np.zeros(3))
    assert np.array_equal(rec["times"], [s])
    assert np.array_equal(rec["q_lift"], q[None, :]) and np.array_equal(rec["p"], p[None, :])
    assert rec["action_increments"].shape == (0, 3)

    x = PhasePoint(0.7, -0.45)
    assert flow_map(h, x, s, s) == x
    tr = trajectory(h, x, s, s)
    assert np.array_equal(tr.times, [s])
    assert np.array_equal(tr.q_lift, [x.q]) and np.array_equal(tr.p, [x.p])
    assert tr.action_increments.shape == (0,) and tr.total_action == 0.0


# ---------------------------------------------------------------------------
# Oracle for the jet path: the step loop before first-same-as-last, where each
# substep evaluated its trig polynomial at both ends and the integrand took
# dH/dp and H afresh at every point (5 deriv calls per substep for the shifted
# quadratic, 3 for the mechanical family). For the solvable families it is the
# Simpson loop that their closed-form flows replaced.


def _reference_value(h, t, q, p):
    if h.family is Family.CUSTOM:
        return h.value(t, q, p)
    if h.family is Family.MECHANICAL:
        return 0.5 * np.asarray(p) ** 2 + h.potential.value(t, q) + h.constant_offset
    r = np.asarray(p) - h.shift_profile.deriv(t, q, 0, 1)
    return 0.5 * r**2 + h.drift * r - h.shift_profile.deriv(t, q, 1, 0) + h.constant_offset


def _reference_dH_dp(h, t, q, p):
    if h.family is Family.CUSTOM:
        return h.ops.dH_dp(h, t, q, p)
    if h.family is Family.MECHANICAL:
        return np.asarray(p)
    return (np.asarray(p) - h.shift_profile.deriv(t, q, 0, 1)) + h.drift


def _reference_dH_dq(h, t, q, p):
    if h.family is Family.CUSTOM:
        return h.ops.dH_dq(h, t, q, p)
    if h.family is Family.MECHANICAL:
        return h.potential.deriv(t, q, 0, 1) + 0.0 * np.asarray(p)
    r = np.asarray(p) - h.shift_profile.deriv(t, q, 0, 1)
    return -(r + h.drift) * h.shift_profile.deriv(t, q, 0, 2) - h.shift_profile.deriv(t, q, 1, 1)


def _reference_substep(h, tau, q, p, dt):
    if h.family is Family.MECHANICAL:
        p1 = p - (0.5 * dt) * h.potential.deriv(tau, q, 0, 1)
        q1 = q + dt * p1
        return q1, p1 - (0.5 * dt) * h.potential.deriv(tau + dt, q1, 0, 1)
    big_p = p - h.shift_profile.deriv(tau, q, 0, 1)
    q1 = q + dt * (big_p + h.drift)
    return q1, big_p + h.shift_profile.deriv(tau + dt, q1, 0, 1)


def _reference_rk4_fixed(h, tau, q, p, dt):
    def f(t, q, p):
        return _reference_dH_dp(h, t, q, p), -_reference_dH_dq(h, t, q, p)

    k1q, k1p = f(tau, q, p)
    k2q, k2p = f(tau + 0.5 * dt, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
    k3q, k3p = f(tau + 0.5 * dt, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
    k4q, k4p = f(tau + dt, q + dt * k3q, p + dt * k3p)
    qn = q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    pn = p + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return qn, pn


def _reference_rk4_substep(h, tau, q, p, dt):
    """The RK4 substep before the Dormand-Prince pair: step doubling by
    recursive bisection, each piece's local budget scaled by its length, and
    StepSizeUnderflow below 1e-9. Nothing carries from one substep to the next."""
    stack = [(tau, dt)]
    while stack:
        t0, step = stack.pop()
        if abs(step) < 1e-9:
            raise StepSizeUnderflow(f"RK4 step fell below 1e-9 at t={t0}")
        qa, pa = _reference_rk4_fixed(h, t0, q, p, step)
        qh, ph = _reference_rk4_fixed(h, t0, q, p, 0.5 * step)
        qb, pb = _reference_rk4_fixed(h, t0 + 0.5 * step, qh, ph, 0.5 * step)
        err = max(np.max(np.abs(qa - qb)), np.max(np.abs(pa - pb)))
        if err <= flow.RK4_TOL * max(abs(step) / abs(dt), 1e-3):
            q, p = qb, pb
        else:
            stack.append((t0 + 0.5 * step, 0.5 * step))
            stack.append((t0, 0.5 * step))
    return q, p


def _reference_integrate_batch(h, q_lift, p, s, t, settings, substep=_reference_substep):
    q = np.array(q_lift, dtype=float)
    p = np.array(p, dtype=float)
    span = t - s
    n_macro = max(1, int(np.ceil(abs(span) / settings.macro_step - 1e-12))) if span else 0
    dt_macro = span / max(n_macro, 1)
    m = settings.substeps_per_macro
    dt_sub = dt_macro / m
    weights = flow.simpson_pattern(m) / 3.0 * dt_sub
    action = np.zeros_like(q)
    knot_times, knot_q, knot_p = [s], [q.copy()], [p.copy()]
    qdot = np.asarray(_reference_dH_dp(h, s, q, p), dtype=float) + np.zeros_like(q)
    knot_qdot, increments = [qdot], []
    for i in range(n_macro):
        tau0 = s + i * dt_macro
        inc = np.zeros_like(q)
        f = qdot * p - np.asarray(_reference_value(h, tau0, q, p))
        inc += weights[0] * f
        for j in range(m):
            tau = tau0 + j * dt_sub
            q, p = substep(h, tau, q, p, dt_sub)
            qdot = np.asarray(_reference_dH_dp(h, tau + dt_sub, q, p), dtype=float) + np.zeros_like(q)
            f = qdot * p - np.asarray(_reference_value(h, tau + dt_sub, q, p))
            inc += weights[j + 1] * f
        action += inc
        knot_times.append(tau0 + dt_macro)
        knot_q.append(q.copy())
        knot_p.append(p.copy())
        knot_qdot.append(qdot)
        increments.append(inc)
    rec = {
        "times": np.array(knot_times),
        "q_lift": np.array(knot_q),
        "p": np.array(knot_p),
        "qdot": np.array(knot_qdot),
        "action_increments": np.reshape(increments, (n_macro, len(q))),
    }
    return q, p, action, rec


ORACLE_FAMILIES = {
    "pendulum": pendulum(),
    "mechanical offset": mechanical([(0, 1, 0.3, -0.2), (0, 3, 0.0, 0.05)], offset=0.4),
    "free": free_hamiltonian(),
    "shifted quadratic": shifted_quadratic([(0, 1, 0.0, 0.05), (0, 2, 0.01, 0.0)], drift=0.3, offset=0.2),
    "mechanical time-dependent": mechanical([(1, 1, 0.3, 0.0), (2, 0, 0.0, 0.1)]),
    "shifted quadratic time-dependent": shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3),
    "mechanical time-only": mechanical([(1, 0, 0.3, -0.2), (2, 0, 0.0, 0.1), (0, 0, 0.25, 0.0)], offset=0.4),
    "custom quartic": TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.25 * p**4 + 0.5 * p**2 + 0.2 * np.cos(2 * np.pi * q),
        momentum_box=(-10, 10),
    ),
}
ORACLE_SPANS = [(0.0, 1.0), (0.35, 2.0), (1.0, 0.0), (0.8, -0.65)]


@pytest.fixture
def oracle_steps(monkeypatch):
    """Macro steps of 0.05, five times the default, for the oracle
    comparisons."""
    monkeypatch.setattr(FlowSettings, "macro_step", 0.05)


def _oracle_start():
    return np.array([0.1, 0.45, 1.3, -0.6, 0.0]), np.array([0.5, -1.2, 0.0, 2.1, -0.3])


def _oracle_pair(h, s, t, integrator="auto"):
    q, p = _oracle_start()
    settings = FlowSettings(integrator=integrator)
    substep = _reference_rk4_substep if integrator == "rk4" or h.family is Family.CUSTOM else _reference_substep
    return (
        integrate_batch(h, q, p, s, t, settings, record_knots=True),
        _reference_integrate_batch(h, q, p, s, t, settings, substep),
    )


def _fourth_derivative_bound(h, qdot):
    """A bound on the fourth time derivative of the action integrand along a
    solvable family's orbit of velocity qdot, one per point."""
    if h.family is Family.SHIFTED_QUADRATIC:
        # P^2/2 - offset + d/dt u(t, q0 + qdot t): five derivatives of u
        terms, power = h.shift_profile.terms, 5
    else:
        # p^2/2 - offset - V(t): four derivatives of V
        terms, power = h.potential.terms, 4
    return sum(np.hypot(a, b) * np.abs(TWO_PI * (j + k * qdot)) ** power for j, k, a, b in terms) + 0.0 * qdot


def _assert_near_simpson_loop(h, s, t, got, ref):
    """A solvable family's closed form against the Simpson loop it replaced.

    The loop rounds q and the shear momentum once per substep, so its knots
    drift from the closed form by about an ulp per substep: two are allowed.
    Its action carries Simpson's truncation error, at most
    |t - s| h^4 max|f''''| / 180 on substeps of length h, plus an ulp of
    rounding per substep.
    """
    (q, p, action, rec), (q_ref, p_ref, action_ref, rec_ref) = got, ref
    m = FlowSettings.substeps_per_macro
    n_macro = len(rec_ref["times"]) - 1
    h_sub = abs(t - s) / (n_macro * m)
    for a, b in [(q, q_ref), (p, p_ref)] + [(rec[k], rec_ref[k]) for k in ("q_lift", "p")]:
        assert np.all(np.abs(a - b) <= 2 * n_macro * m * np.spacing(np.maximum(np.abs(b), 1.0)))
    rate = h_sub**4 / 180 * _fourth_derivative_bound(h, rec_ref["qdot"][0])
    rounding = n_macro * m * EPS * (1 + np.abs(action_ref))
    assert np.all(np.abs(action - action_ref) <= abs(t - s) * rate + rounding)
    inc, inc_ref = rec["action_increments"], rec_ref["action_increments"]
    rounding = m * EPS * (1 + np.abs(inc_ref))
    assert np.all(np.abs(inc - inc_ref) <= abs(t - s) / n_macro * rate + rounding)
    # knot times are s + i * dt_macro now, (s + (i-1) dt_macro) + dt_macro before
    assert np.allclose(rec["times"], rec_ref["times"], rtol=0, atol=4e-16 * (1 + abs(s) + abs(t)))


def _assert_near_reference_rk4(h, s, t, got, ref):
    """The Dormand-Prince pair against the step-doubling RK4 it replaced.

    Both hold a local error estimate to RK4_TOL per substep, and each keeps a
    solution more accurate than its estimate (the fifth-order one; the two
    half steps), so they differ by a few RK4_TOL per unit of time (measured
    up to 5.7 RK4_TOL |t - s|): 10 RK4_TOL |t - s| are allowed on q, p and
    the action.
    """
    (q, p, action, rec), (q_ref, p_ref, action_ref, rec_ref) = got, ref
    bound = 10 * flow.RK4_TOL * abs(t - s)
    for a, b in [(q, q_ref), (p, p_ref), (action, action_ref)] + [
        (rec[k], rec_ref[k]) for k in ("q_lift", "p", "action_increments")
    ]:
        assert np.all(np.abs(a - b) <= bound)
    # knot times are s + i * dt_macro now, (s + (i-1) dt_macro) + dt_macro before
    assert np.allclose(rec["times"], rec_ref["times"], rtol=0, atol=4e-16 * (1 + abs(s) + abs(t)))


@pytest.mark.usefixtures("oracle_steps")
@pytest.mark.parametrize("s, t", ORACLE_SPANS)
@pytest.mark.parametrize(
    "name, integrator",
    [(k, "auto") for k, h in ORACLE_FAMILIES.items() if h.autonomous]
    + [("pendulum", "rk4"), ("free", "rk4"), ("shifted quadratic", "rk4")],
)
def test_flow_matches_reference_bitwise(name, integrator, s, t, monkeypatch):
    # Strang steps as before; only the integrand is carried across macro knots.
    # At the default RK4_TOL step doubling underflows on the custom quartic.
    monkeypatch.setattr(flow, "RK4_TOL", 1e-9)
    h = ORACLE_FAMILIES[name]
    got, ref = _oracle_pair(h, s, t, integrator)
    if integrator == "rk4" or h.family is Family.CUSTOM:
        _assert_near_reference_rk4(h, s, t, got, ref)
        return
    if h.ops.solvable(h):
        _assert_near_simpson_loop(h, s, t, got, ref)
        return
    (q, p, action, rec), (q_ref, p_ref, action_ref, rec_ref) = got, ref
    for got, want in [(q, q_ref), (p, p_ref), (action, action_ref)] + [
        (rec[k], rec_ref[k]) for k in ("q_lift", "p", "action_increments")
    ]:
        assert np.array_equal(got, want)
    # knot times are s + i * dt_macro now, (s + (i-1) dt_macro) + dt_macro before
    assert np.allclose(rec["times"], rec_ref["times"], rtol=0, atol=4e-16 * (1 + abs(s) + abs(t)))


@pytest.mark.usefixtures("oracle_steps")
@pytest.mark.parametrize("s, t", ORACLE_SPANS)
@pytest.mark.parametrize("name", [k for k, h in ORACLE_FAMILIES.items() if not h.autonomous])
def test_flow_matches_reference_time_dependent(name, s, t):
    # each substep time is now computed once, so an end time and the next
    # start time agree bitwise; before, they could differ by an ulp, which a
    # time harmonic turns into a few ulps of q and p
    h = ORACLE_FAMILIES[name]
    got, ref = _oracle_pair(h, s, t)
    if h.ops.solvable(h):
        _assert_near_simpson_loop(h, s, t, got, ref)
        return
    (q, p, action, rec), (q_ref, p_ref, action_ref, rec_ref) = got, ref
    for got, want in [(q, q_ref), (p, p_ref), (action, action_ref)] + [
        (rec[k], rec_ref[k]) for k in ("times", "q_lift", "p", "action_increments")
    ]:
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


@pytest.mark.usefixtures("oracle_steps")
@pytest.mark.parametrize("s, t", ORACLE_SPANS)
@pytest.mark.parametrize("integrator", ["auto", "rk4"])
@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_lone_point_matches_its_batch_column_bitwise(name, integrator, s, t):
    # a lone stepped point runs on Python floats, a batch on arrays: the same
    # IEEE operations in the same order, so each column has the lone bits.
    # The Dormand-Prince pair sizes each step by the largest error over the
    # batch, so there a lone point is checked against a batch of its copies.
    h = ORACLE_FAMILIES[name]
    q, p = _oracle_start()
    settings = FlowSettings(integrator=integrator)
    adaptive = integrator == "rk4" or h.family is Family.CUSTOM
    batch = None if adaptive else integrate_batch(h, q, p, s, t, settings, record_knots=True)
    for i in range(len(q)):
        if adaptive:
            batch = integrate_batch(h, np.full(5, q[i]), np.full(5, p[i]), s, t, settings, record_knots=True)
        lone = integrate_batch(h, q[i : i + 1], p[i : i + 1], s, t, settings, record_knots=True)
        for a, b in zip(lone[:3], batch[:3]):
            assert a.shape == (1,) and np.array_equal(a, b[i : i + 1])
        assert np.array_equal(lone[3]["times"], batch[3]["times"])
        for key in ("q_lift", "p", "action_increments"):
            assert np.array_equal(lone[3][key], batch[3][key][:, i : i + 1])


def test_zero_integrand_sums_to_positive_zero():
    # each increment starts from +0.0 and is added to, so a zero integrand
    # under the negative Simpson weights of a backward span gives +0.0, not
    # -0.0, lone or batched (a CSV would print the sign)
    h = free_hamiltonian()
    for q in (np.array([0.3]), np.array([0.3, 0.6])):
        _, _, action, rec = integrate_batch(h, q, np.zeros_like(q), 1.0, 0.0, RK4_TIGHT, record_knots=True)
        assert not np.any(action) and not np.any(np.signbit(action))
        assert not np.any(np.signbit(rec["action_increments"]))


def test_custom_callable_sees_one_element_arrays_at_a_lone_point():
    # the stages of a lone point are floats, but the callable is handed the
    # 1-element arrays a batch column gives it
    seen = []

    def fn(t, q, p):
        seen.append((type(q), np.shape(q), type(p), np.shape(p)))
        return 0.25 * p**4 + 0.5 * p**2 + 0.2 * np.cos(2 * np.pi * q)

    h = TonelliHamiltonian(family=Family.CUSTOM, custom_fn=fn, momentum_box=(-10, 10))
    seen.clear()  # construction checks the callable on a grid
    tr = trajectory(h, PhasePoint(0.1, 0.7), 0.0, 0.2)
    # two complex evaluations for each of at least six stages a substep
    assert len(seen) >= 12 * (len(tr.times) - 1) * FlowSettings().substeps_per_macro
    assert set(seen) == {(np.ndarray, (1,), np.ndarray, (1,))}


@pytest.mark.parametrize("s, t", [(0.35, 2.0), (0.8, -0.65)])
@pytest.mark.parametrize("name", ["shifted quadratic", "shifted quadratic time-dependent", "mechanical time-only"])
def test_simpson_loop_converges_to_closed_form_at_fourth_order(name, s, t, monkeypatch):
    # spans of no whole period: over whole periods of V(t) Simpson is exact
    # to rounding for the time-only potential, and there is no rate to see
    h = ORACLE_FAMILIES[name]
    q, p = _oracle_start()
    monkeypatch.setattr(FlowSettings, "macro_step", 0.05)
    exact = integrate_batch(h, q, p, s, t, FlowSettings())[2]
    errors = []
    for m in (0.1, 0.05, 0.025):
        monkeypatch.setattr(FlowSettings, "macro_step", m)
        errors.append(np.max(np.abs(_reference_integrate_batch(h, q, p, s, t, FlowSettings())[2] - exact)))
    assert errors[-1] > 1e-12  # still far above rounding
    assert errors[0] >= 12 * errors[1] and errors[1] >= 12 * errors[2]


@pytest.fixture
def trig_passes(monkeypatch):
    """The outermost TrigPolynomial.jet/deriv calls made while the test runs,
    by name: one trig pass each, as deriv goes through jet."""
    calls, depth = [], [0]
    for attr in ("jet", "deriv"):
        method = getattr(TrigPolynomial, attr)

        def counted(self, *args, method=method, **kwargs):
            if not depth[0]:
                calls.append(method.__name__)
            depth[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(TrigPolynomial, attr, counted)
    return calls


@pytest.mark.parametrize("name", ["pendulum", "shifted quadratic time-dependent"])
def test_one_trig_pass_per_point_substep(name, trig_passes):
    h = ORACLE_FAMILIES[name]
    n_macro, m = 7, FlowSettings.substeps_per_macro  # macro steps of 0.01
    q, p = np.array([0.1, 0.45, 0.8]), np.array([0.5, -1.2, 0.3])
    settings = FlowSettings()
    integrate_batch(h, q, p, 0.2, 0.2 + n_macro * 0.01, settings)
    assert len(trig_passes) <= n_macro * m + 1
    trig_passes.clear()
    _reference_integrate_batch(h, q, p, 0.2, 0.2 + n_macro * 0.01, settings)
    assert len(trig_passes) == (13 * n_macro if h.family is Family.MECHANICAL else 22 * n_macro + 1)


def test_closed_form_trig_passes(trig_passes):
    # one pass at the start and one at each end point: each macro interval
    # hands its end point's data to the next
    h = ORACLE_FAMILIES["shifted quadratic time-dependent"]
    n_macro = 7  # macro steps of 0.01
    q, p = np.array([0.1, 0.45, 0.8]), np.array([0.5, -1.2, 0.3])
    settings = FlowSettings()
    integrate_batch(h, q, p, 0.2, 0.2 + n_macro * 0.01, settings)
    assert trig_passes == ["jet", "jet"]
    trig_passes.clear()
    integrate_batch(h, q, p, 0.2, 0.2 + n_macro * 0.01, settings, record_knots=True)
    assert trig_passes == ["jet"] * (n_macro + 1)


@pytest.mark.usefixtures("oracle_steps")
@pytest.mark.parametrize("s, t", ORACLE_SPANS)
def test_default_tolerance_flows_custom_quartic(s, t):
    # step doubling underflowed here from (-0.6, 2.1) over [0, 1], [0.35, 2]
    # and [1, 0]; the energy drift left is the Dormand-Prince error, at most
    # 1.2e-12 with complex-step derivatives (3.3e-10 with the central
    # differences before them)
    h = ORACLE_FAMILIES["custom quartic"]
    q, p = _oracle_start()
    q1, p1, action = integrate_batch(h, q, p, s, t, FlowSettings())
    assert np.all(np.isfinite(action))
    assert np.max(np.abs(h.value(t, q1, p1) - h.value(s, q, p))) <= 1e-9


@pytest.fixture
def vector_field_calls(monkeypatch):
    """The number of mechanical vector_field calls, one per Dormand-Prince
    stage, made while the test runs."""
    calls = [0]
    family = type(pendulum().ops)
    method = family.vector_field

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(family, "vector_field", counted)
    return calls


def test_rk4_dH_dq_calls_per_point_substep(vector_field_calls):
    # six new stages per Dormand-Prince step (first same as last), and the
    # carried step crosses most substeps of the criterion-2 orbit in two
    # (11.0 calls per substep measured); step doubling made about 68. Every
    # substep takes at least one step, so at least six stages.
    tr = trajectory(pendulum(), PhasePoint(0.0, 2.0), 0, 10, RK4_TIGHT)
    substeps = (len(tr.times) - 1) * RK4_TIGHT.substeps_per_macro
    assert 6 * substeps <= vector_field_calls[0] <= 12 * substeps


def _weighted_sum(weights, ks):
    """sum(w * k) over the nonzero weights, left to right, on arrays or scalars."""
    total = None
    for w, k in zip(weights, ks):
        if w:
            total = w * k if total is None else total + w * k
    return total


def _reference_advance(self, h, t, q, p, dt_sub, t1):
    """_RK4._advance as a loop over the Dormand-Prince tableau, each stage
    through the reference dH/dp and dH/dq: the step before it was unrolled
    over one vector_field call per stage."""

    def f(t, q, p):
        if self.scalar:
            return float(_reference_dH_dp(h, t, q, p)), -float(_reference_dH_dq(h, t, q, p))
        return _reference_dH_dp(h, t, q, p), -_reference_dH_dq(h, t, q, p)

    k = self.k
    size = dt_sub if self.size is None else self.size
    while True:
        if abs(size) < 1e-9:
            raise StepSizeUnderflow(f"Dormand-Prince step fell below 1e-9 at t={t}")
        last = abs(size) >= abs(t1 - t)
        proposed = size
        dt = t1 - t if last else size
        t_new = t1 if last else t + dt
        kq, kp = [k[0]], [k[1]]
        for c, row in zip(flow._C, flow._A):
            kqi, kpi = f(t + c * dt, q + dt * _weighted_sum(row, kq), p + dt * _weighted_sum(row, kp))
            kq.append(kqi)
            kp.append(kpi)
        q_new = q + dt * _weighted_sum(flow._B, kq)
        p_new = p + dt * _weighted_sum(flow._B, kp)
        k_new = f(t_new, q_new, p_new)
        kq.append(k_new[0])
        kp.append(k_new[1])
        err = max(self._norm(dt * _weighted_sum(flow._E, kq)), self._norm(dt * _weighted_sum(flow._E, kp)))
        budget = flow.RK4_TOL * max(abs(dt) / abs(dt_sub), 1e-3)
        factor = 10.0 if err == 0 else min(10.0, max(0.2, 0.9 * (budget / err) ** 0.2))
        size = dt * factor
        if err <= budget:
            t, q, p, k = t_new, q_new, p_new, k_new
            if last:
                self.size, self.k = max(size, proposed, key=abs), k
                return q, p


@pytest.mark.parametrize("s, t", [(0.0, 0.7), (0.4, -0.3)])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "name, settings",
    [
        ("pendulum", RK4_TIGHT),
        ("shifted quadratic time-dependent", RK4_TIGHT),
        ("custom quartic", RK4_TIGHT),
        ("custom quartic", FlowSettings()),
    ],
    ids=["pendulum-rk4", "shifted quadratic time-dependent-rk4", "custom quartic-rk4", "custom quartic-default"],
)
def test_unrolled_step_matches_looped_reference(name, settings, n, s, t, monkeypatch):
    # the same IEEE operations in the same order, so the same bits: on Python
    # floats for a lone point, on arrays otherwise. A custom callable sees a
    # lone point's stage points as 1-element arrays, through _RK4._column_field.
    h = ORACLE_FAMILIES[name]
    q, p = np.array([0.15, 0.45, 0.8][:n]), np.array([1.4, -0.7, 2.6][:n])
    if n == 1:
        owner, method = (flow._RK4, "_column_field") if h.family is Family.CUSTOM else (type(h.ops), "vector_field")
        field = getattr(owner, method)

        def floats_only(self, h, t, q, p):
            out = field(self, h, t, q, p)
            assert all(type(x) is float for x in (q, p, *out))
            return out

        monkeypatch.setattr(owner, method, floats_only)
    got = integrate_batch(h, q, p, s, t, settings, record_knots=True)
    steps = [0]

    def reference(self, *args):
        steps[0] += 1
        return _reference_advance(self, *args)

    monkeypatch.setattr(flow._RK4, "_advance", reference)
    want = integrate_batch(h, q, p, s, t, settings, record_knots=True)
    assert steps[0] == round(abs(t - s) / settings.macro_step) * settings.substeps_per_macro
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    for key in ("times", "q_lift", "p", "action_increments"):
        assert np.array_equal(got[3][key], want[3][key])


def _counted_quartic():
    """The criterion-1 quartic and its running count of callable calls."""
    calls = [0]

    def fn(t, q, p):
        calls[0] += 1
        return p**4 / 4 + p**2 / 2 + 0.3 * np.cos(2 * np.pi * q) * (1 + 0.5 * np.cos(2 * np.pi * t))

    return TonelliHamiltonian(family=Family.CUSTOM, custom_fn=fn, momentum_box=(-10.0, 10.0)), calls


@pytest.mark.parametrize("p0, bound", [(3.0, 47_000), (3.5, 69_000), (5.0, 180_000)])
def test_custom_quartic_has_no_step_size_cliff(p0, bound):
    # central differences with step 1e-6 put rounding noise of eps |H| / 1e-6
    # into dH/dp and dH/dq, which filled the error budget from |p| ~ 3 on:
    # 93 k calls from p = 3.0 and 244 k from 3.5, and p = 5.0 did not finish
    # in 90 s. Complex steps have no such noise: 42.5 k, 62.6 k and 162.5 k
    # calls measured.
    h, calls = _counted_quartic()
    calls[0] = 0
    trajectory(h, PhasePoint(0.1, p0), 0.0, 1.0)
    assert calls[0] <= bound
