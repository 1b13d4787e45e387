"""Acceptance gate: one test per top-level criterion, stated tolerances pinned.

Each test prints a PASS line with its runtime (visible under pytest -s) and
enforces its wall-clock budget. Everything is seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

import birkhoff_lab as bl
from birkhoff_lab.curves import exactness_defects, from_potential, graph_check
from birkhoff_lab.experiments import ExperimentConfig, load_config
from birkhoff_lab.flow import FlowSettings, PhasePoint, flow_map, trajectory
from birkhoff_lab.grids import GridFunction, constant_grid, grid_from_trig
from birkhoff_lab.hamiltonians import (
    Family,
    TonelliHamiltonian,
    TrigPolynomial,
    fenchel_gap,
    free_hamiltonian,
    legendre_transform,
    mechanical,
    pendulum,
    shifted_quadratic,
)
from birkhoff_lab.lax_oleinik import (
    lax_negative,
    lax_positive,
    mane_critical_value,
    peierls_barrier,
    positive_weak_kam,
    potential,
)
from birkhoff_lab.reports import emit_reports
from birkhoff_lab.spectral import (
    fiber_selector,
    negate,
    sample_fqi,
    selector_difference_bounds,
    selector_function,
    spectral_top,
    spectral_unit,
    sum_additivity_check,
)

FREE = free_hamiltonian()
PEND = pendulum()
SQ_TIME = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3)
SQ_AUTO = shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.3)

# frozen Richardson-extrapolated fixed-step RK4 oracle (steps 2e-5 and 1e-5)
ORACLE_Q_LIFT = 23.968906656038648
ORACLE_P = 2.009489073148158


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.label} [{elapsed:.1f}s / {self.seconds:.0f}s]")
            assert elapsed < self.seconds, f"{self.label}: runtime {elapsed:.1f}s over budget"
        else:
            print(f"FAIL {self.label} [{elapsed:.1f}s]")
        return False


def custom_quartic():
    return TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: p**4 / 4
        + p**2 / 2
        + 0.3 * np.cos(2 * np.pi * q) * (1 + 0.5 * np.cos(2 * np.pi * t)),
        momentum_box=(-10.0, 10.0),
    )


def test_criterion_1_fenchel_suite():
    with Budget("1. Fenchel suite", 5):
        rng = np.random.default_rng(101)
        families = [PEND, SQ_TIME, custom_quartic()]
        counts = [4000, 4000, 2000]
        for h, count in zip(families, counts):
            for _ in range(count):
                t, q = rng.uniform(0, 1), rng.uniform(0, 1)
                v, p = rng.uniform(-3, 3), rng.uniform(-3, 3)
                assert fenchel_gap(h, t, q, v, p) >= -1e-12
            for _ in range(50):
                t, q, v = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-3, 3)
                lag = legendre_transform(h, t, q, v)
                assert fenchel_gap(h, t, q, v, lag.optimal_momentum) <= 1e-9


def test_criterion_2_flow_fidelity():
    with Budget("2. Flow fidelity", 10):
        x = flow_map(FREE, PhasePoint(0.2, 0.5), 0, 1)
        assert abs(x.q - 0.7) <= 1e-12 and x.p == 0.5
        tight = FlowSettings(integrator="rk4")
        tr = trajectory(PEND, PhasePoint(0.0, 2.0), 0, 10, tight)
        assert abs(tr.q_lift[-1] - ORACLE_Q_LIFT) <= 1e-8
        assert abs(tr.p[-1] - ORACLE_P) <= 1e-8
        assert tr.energy_drift(PEND) <= 1e-9
        # group law: manufactured family (exact flow) and one pendulum triple
        rng = np.random.default_rng(102)
        for _ in range(4):
            xx = PhasePoint(rng.uniform(0, 1), rng.uniform(-1, 1))
            s, m, t = sorted(rng.uniform(0, 3, 3))
            a = flow_map(SQ_TIME, xx, s, t)
            b = flow_map(SQ_TIME, flow_map(SQ_TIME, xx, s, m), m, t)
            assert min(abs(a.q - b.q), 1 - abs(a.q - b.q)) <= 1e-8
            assert abs(a.p - b.p) <= 1e-8
        xx = PhasePoint(0.15, 1.4)
        a = flow_map(PEND, xx, 0.0, 1.5, tight)
        b = flow_map(PEND, flow_map(PEND, xx, 0.0, 0.7, tight), 0.7, 1.5, tight)
        assert min(abs(a.q - b.q), 1 - abs(a.q - b.q)) <= 1e-8
        assert abs(a.p - b.p) <= 1e-8


def test_criterion_3_liouville_exactness(monkeypatch):
    monkeypatch.setattr(bl.curves, "SPACING", 4e-4)
    with Budget("3. Liouville exactness", 30):
        rng = np.random.default_rng(103)
        settings = FlowSettings()
        for trial in range(20):
            terms = [
                (0, k, rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)) for k in (1, 2)
            ]
            u = grid_from_trig(TrigPolynomial.from_coeffs(terms), 4096)
            h = SQ_TIME if trial % 2 else FREE
            span = 0.25
            c = bl.evolve(h, from_potential(u), 0.0, span, settings)
            bound = 1e-6 * (1 + np.max(np.abs(c.p))) * np.max(np.diff(c.closed_lift()))
            assert np.max(np.abs(exactness_defects(c))) <= bound


def test_criterion_4_mane_critical_value():
    with Budget("4. Mane critical value", 60):
        est0 = mane_critical_value(FREE, n=256)
        assert abs(est0 - 0.0) <= 1e-3
        est = mane_critical_value(PEND, n=256)
        # independent oracle: value-iteration slope at doubled resolution and
        # horizon, cross-checked against the mechanical closed form max V = 1
        pm = potential(PEND, 0.0, 1.0, 512)
        u = np.zeros(512)
        mins = [0.0]
        for _ in range(128):
            u = (u[:, None] + pm.entries).min(axis=0)
            mins.append(float(u.min()))
        ks = np.arange(64, 129)
        oracle = -np.polyfit(ks, np.array(mins)[64:], 1)[0]
        assert abs(est - oracle) <= 5e-3
        assert abs(est - 1.0) <= 5e-3
        base = mane_critical_value(PEND, n=128)
        shifted = mane_critical_value(mechanical([(0, 1, 1.0, 0.0)], offset=0.37), n=128)
        assert abs(shifted - base - 0.37) <= 1e-6


def test_criterion_5_lax_oleinik_properties():
    with Budget("5. Lax-Oleinik properties", 60):
        pm = potential(PEND, 0, 1, 256)
        rng = np.random.default_rng(105)
        for _ in range(1000):
            u = GridFunction(rng.uniform(-2, 2, 256))
            v = GridFunction(rng.uniform(-2, 2, 256))
            du = float(np.max(np.abs(u.values - v.values)))
            a, b = lax_negative(u, pm), lax_negative(v, pm)
            assert float(np.max(np.abs(a.values - b.values))) <= du + 1e-12
            ap, bp = lax_positive(u, pm), lax_positive(v, pm)
            assert float(np.max(np.abs(ap.values - bp.values))) <= du + 1e-12
        u = GridFunction(rng.uniform(-1, 1, 256))
        semi_a = lax_negative(u, potential(PEND, 0, 2, 256))
        semi_b = lax_negative(lax_negative(u, pm), potential(PEND, 1, 2, 256))
        assert np.max(np.abs(semi_a.values - semi_b.values)) <= 1e-6
        w = GridFunction(np.cos(2 * np.pi * np.arange(256) / 256))
        sups, running = [], -np.inf
        for _ in range(64):
            w = lax_positive(w, pm, 1.0)
            running = max(running, float(np.max(np.abs(w.values))))
            sups.append(running)
        assert sups[-1] - sups[-16] < 1e-3


def test_criterion_6_peierls_weak_kam():
    with Budget("6. Peierls / weak KAM", 180):
        bfree = peierls_barrier(FREE, 0, 512)
        assert np.max(np.abs(bfree.matrix.entries)) <= 2e-3
        bp = peierls_barrier(PEND, 0, 256)
        assert abs(bp.matrix.entries[0, 0]) <= 1e-2
        _, r256 = positive_weak_kam(PEND, 1.0, 0, 0.0, 256, barrier=bp)
        assert r256 <= 1e-2
        bp512 = peierls_barrier(PEND, 0, 512)
        _, r512 = positive_weak_kam(PEND, 1.0, 0, 0.0, 512, barrier=bp512)
        assert r512 <= r256 / 2


def test_criterion_7_spectral_suite():
    with Budget("7. Spectral suite", 60):
        assert spectral_unit(sample_fqi(lambda x: x**2, (1,))).value == 0.0
        assert spectral_unit(sample_fqi(lambda x, y: x**2 - y**2, (1, -1))).value == 0.0
        f = lambda x, y: x**2 - y**2 + np.exp(-(x**2 + y**2))
        coarse = spectral_unit(sample_fqi(f, (1, -1))).value
        fine = spectral_unit(sample_fqi(f, (1, -1), fiber_resolution=513)).value
        assert abs(coarse - fine) <= 8.0 / 128
        s = sample_fqi(f, (1, -1))
        assert spectral_top(s).value == -spectral_unit(negate(s)).value
        rng = np.random.default_rng(107)
        for trial in range(100):
            c1 = rng.uniform(-0.4, 0.4, 4)
            c2 = rng.uniform(-0.4, 0.4, 4)
            ftrig = lambda q: (
                c1[0] * np.sin(2 * np.pi * q) + c1[1] * np.cos(2 * np.pi * q)
                + c1[2] * np.sin(4 * np.pi * q) + c1[3] * np.cos(4 * np.pi * q)
            )
            gtrig = lambda q: (
                c2[0] * np.sin(2 * np.pi * q) + c2[1] * np.cos(2 * np.pi * q)
                + c2[2] * np.sin(4 * np.pi * q) + c2[3] * np.cos(4 * np.pi * q)
            )
            sgn = 1 if trial % 2 == 0 else -1
            s1 = sample_fqi(lambda q, x: sgn * x**2 + ftrig(q), (sgn,),
                            base_resolution=32, fiber_resolution=33)
            s2 = sample_fqi(lambda q, x: sgn * x**2 + gtrig(q), (sgn,),
                            base_resolution=32, fiber_resolution=33)
            step = 2 * s1.fiber_step
            rep = sum_additivity_check(s1, s2, trial % 32)
            assert abs(rep.difference) <= step
            dif = selector_difference_bounds(s1, s2)
            assert dif.ok
            sel = selector_function(s1)
            osc_crit = float(np.ptp([fiber_selector(s1, i) for i in range(32)]))
            assert sel.values.oscillation() <= osc_crit + step


def test_criterion_8_calibration():
    with Budget("8. Calibration", 120):
        u_star = bl.spacetime_from_grid(grid_from_trig(SQ_AUTO.shift_profile, 256), 0.0, 2.0, 0.0)
        rep = bl.calibrated_curve(u_star, SQ_AUTO, 0.0, 0.3, 2.0)
        assert abs(rep.defect) <= 1e-5
        assert rep.max_momentum_residual <= 1e-4
        assert rep.max_hj_residual <= 1e-4
        for n, tol in ((256, 5e-3), (512, 2.5e-3)):
            pm = potential(PEND, 0.0, 1.0, n)
            cur = constant_grid(0.0, n)
            for _ in range(6):
                cur = lax_negative(cur, pm, 1.0)
            u = bl.spacetime_from_lax(PEND, cur, 6.0, 7.0, 1.0)
            dom = bl.domination_check(u, PEND, count=1000, seed=108)
            assert dom.min_defect >= -tol


def test_criterion_9_birkhoff_positive(tmp_path):
    with Budget("9. Birkhoff pipeline, positive case", 120):
        cfg = load_config(None)  # manufactured family, v = shift profile at t=0
        bundle = bl.run_iteration_experiment(cfg)
        assert bundle.verdict == "PASS"
        assert bundle.detectors["forward"]["fired"]
        assert bundle.detectors["backward"]["fired"]
        assert bundle.detectors["forward"]["hits"] == list(range(1, 9))
        assert bundle.detectors["backward"]["hits"] == list(range(1, 9))
        assert all(r.is_graph for r in bundle.records)
        emit_reports(bundle, tmp_path / "a")
        emit_reports(bl.run_iteration_experiment(cfg), tmp_path / "b")
        for name in ("diagnostics.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_criterion_10_birkhoff_negative():
    with Budget("10. Birkhoff pipeline, negative case", 60):
        amp = 1.0 / (2 * math.pi**2)
        cfg = ExperimentConfig(
            hamiltonian=FREE,
            initial_potential=TrigPolynomial.from_coeffs([(0, 1, 0.0, amp)]),
            n_max=4,
            m_max=4,
        )
        bundle = bl.run_iteration_experiment(cfg)
        assert bundle.verdict == "PASS"
        assert "contrapositive" in bundle.reason
        assert not (bundle.detectors["forward"]["fired"] and bundle.detectors["backward"]["fired"])
        rec1 = next(r for r in bundle.records if r.n == 1)
        assert not rec1.is_graph
        curve = bundle.curves[1]
        fr = graph_check(curve)
        fold_qs = sorted({float(curve.q[i]) for i in fr.fold_parameters})
        oracle = sorted((th + math.cos(2 * math.pi * th) / math.pi) % 1 for th in (1 / 12, 5 / 12))
        grid_step = 1.0 / 256
        for o in oracle:
            assert min(abs(fq - o) for fq in fold_qs) <= 2 * grid_step


def test_criterion_11_recurrence():
    with Budget("11. Recurrence experiment", 120):
        cfg = load_config(None)
        bundle = bl.run_recurrence_experiment(cfg)
        assert max(v for _, v in bundle.series["return_forward"]) <= 1e-4
        assert max(v for _, v in bundle.series["return_backward"]) <= 1e-4
        pend_cfg = ExperimentConfig(
            hamiltonian=PEND,
            initial_potential=TrigPolynomial.from_coeffs([(0, 1, 1.0, 0.0)]),
            n_max=64,
            m_max=2,
            resolution=256,
        )
        bundle = bl.run_recurrence_experiment(pend_cfg)
        inc = [v for _, v in bundle.series["increments_forward"]]
        assert all(a >= b - 1e-12 for a, b in zip(inc, inc[1:]))
        assert inc[-1] <= 1e-3
