import numpy as np
import pytest

from birkhoff_lab import flow
from birkhoff_lab.errors import StepSizeUnderflow
from birkhoff_lab.flow import (
    FlowSettings,
    PhasePoint,
    Trajectory,
    energy_rate_residual,
    extended_trajectory,
    flow_map,
    integrate_batch,
    trajectory,
)
from birkhoff_lab.hamiltonians import (
    Family,
    TonelliHamiltonian,
    free_hamiltonian,
    mechanical,
    pendulum,
    shifted_quadratic,
)

# frozen Richardson-extrapolated RK4 oracle (fixed steps 2e-5 and 1e-5):
# pendulum H = p^2/2 + cos(2 pi q), x0 = (0, 2), t = 10
ORACLE_Q_LIFT = 23.968906656038648
ORACLE_P = 2.009489073148158

RK4_TIGHT = FlowSettings(integrator="rk4")


def test_free_flow_exact():
    x = flow_map(free_hamiltonian(), PhasePoint(0.2, 0.5), 0, 1)
    assert abs(x.q - 0.7) <= 1e-12
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


def test_strang_energy_error_second_order():
    errs = []
    for macro in (1e-2, 5e-3):
        st = FlowSettings(macro_step=macro, integrator="strang")
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
    st = FlowSettings(integrator="strang")
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
    tr = trajectory(h, PhasePoint(0.0, 0.7), 0, 2)
    assert tr.total_action == pytest.approx(2 * 0.7**2 / 2, abs=1e-12)


def test_action_at_pendulum_equilibrium():
    # stationary point at the potential maximum: integrand is -H = -1
    tr = trajectory(pendulum(), PhasePoint(0.0, 0.0), 0, 3)
    assert tr.total_action == pytest.approx(-3.0, abs=1e-10)


def test_extended_trajectory_energy():
    tr = extended_trajectory(free_hamiltonian(), PhasePoint(0.0, 1.0), 0, 10)
    assert np.max(np.abs(tr.energy_samples + 0.5)) <= 1e-12
    h = pendulum()
    tr = extended_trajectory(h, PhasePoint(0.0, 2.0), 0, 10, RK4_TIGHT)
    vals = h.value(tr.times, tr.q_lift, tr.p)
    assert np.max(np.abs(tr.energy_samples + vals)) <= 1e-9  # E = -H by construction
    assert np.max(np.abs(tr.energy_samples - tr.energy_samples[0])) <= 1e-9


def test_energy_rate_matches_time_derivative():
    h = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3)
    st = FlowSettings(macro_step=1e-4, substeps_per_macro=2)
    tr = extended_trajectory(h, PhasePoint(0.2, 0.4), 0, 1, st)
    assert energy_rate_residual(h, tr) <= 1e-6


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


def test_settings_validation():
    with pytest.raises(ValueError):
        FlowSettings(macro_step=0.2)
    with pytest.raises(ValueError):
        FlowSettings(substeps_per_macro=3)
    with pytest.raises(ValueError):
        FlowSettings(integrator="leapfrog")


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            q=np.zeros(2),
            q_lift=np.zeros(2),
            p=np.zeros(2),
            qdot=np.zeros(2),
            action_increments=np.zeros(1),
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            q=np.zeros(2),
            q_lift=np.zeros(2),
            p=np.zeros(2),
            qdot=np.zeros(2),
            action_increments=np.zeros(2),
        )


def test_strang_rejected_for_custom():
    h = TonelliHamiltonian(
        family=Family.CUSTOM, custom_fn=lambda t, q, p: 0.5 * p**2, momentum_box=(-5, 5)
    )
    with pytest.raises(ValueError):
        flow_map(h, PhasePoint(0, 1), 0, 1, FlowSettings(integrator="strang"))


@pytest.mark.parametrize("family", ["pendulum (Strang)", "custom quartic (RK4)"])
def test_action_does_not_depend_on_recording_knots(family, monkeypatch):
    monkeypatch.setattr(flow, "RK4_TOL", 1e-9)
    # Each macro step's Simpson sum starts from the velocity at its first knot,
    # recorded or not; qdot varies along these orbits, so a stale one shows.
    h = pendulum() if family.startswith("pendulum") else TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.25 * p**4 + 0.5 * p**2 + 0.2 * np.cos(2 * np.pi * q),
        momentum_box=(-10, 10),
    )
    q, p = np.array([0.1, 0.3, 0.7]), np.array([0.5, 1.2, -0.4])
    settings = FlowSettings(macro_step=0.05)
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
    assert rec["qdot"].shape == (1, 3)
    assert rec["action_increments"].shape == (0, 3)

    x = PhasePoint(0.7, -0.45)
    assert flow_map(h, x, s, s) == x
    tr = trajectory(h, x, s, s)
    assert np.array_equal(tr.times, [s])
    assert np.array_equal(tr.q_lift, [x.q]) and np.array_equal(tr.p, [x.p])
    assert tr.action_increments.shape == (0,) and tr.total_action == 0.0
