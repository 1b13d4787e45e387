"""The benchmark's workloads: seeded inputs, the steps a user runs, and checks.

Every step is a user entry point: `birkhoff_lab.cli.main(argv)` in-process,
or one of the few API calls that only the study scripts make. The seed only
draws what leaves every oracle valid: a phase for each trig term (a
translation in q by a whole number of 1/256 cells, so the value grids of the
pendulum steps are an exact rotation of the unshifted ones), the
calibration seed and the fibred-sum coefficients.

Library functions are looked up on their modules at call time
(`lax_oleinik.positive_weak_kam`, `flow.trajectory`), so the traced run sees
the same bindings the CLI uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from birkhoff_lab import cli, experiments, flow, lax_oleinik, spectral
from birkhoff_lab.curves import graph_check
from birkhoff_lab.hamiltonians import Family, TonelliHamiltonian

# frozen Richardson-extrapolated oracle for the pendulum orbit (q, p) = (0, 2)
# over t in [0, 10], the endpoint of acceptance criterion 2
ORACLE_Q_LIFT = 23.968906656038648
ORACLE_P = 2.009489073148158
PHASE_CELLS = 256


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # problems found; empty when correct
    outdir: Path | None = None  # holds report.json / diagnostics.csv if any


def _translate(k: int, a: float, b: float, phase: float) -> tuple[float, float]:
    """Coefficients of a cos(2 pi k q) + b sin(2 pi k q) translated by `phase` in q."""
    psi = 2.0 * math.pi * k * phase
    return a * math.cos(psi) - b * math.sin(psi), a * math.sin(psi) + b * math.cos(psi)


def _term(j: int, k: int, a: float, b: float, phase: float) -> str:
    """The config trig term `j k a b` translated by `phase` in q."""
    a2, b2 = _translate(k, a, b, phase)
    return f"{j} {k} {a2!r} {b2!r}"


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _torus_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _cli(config: Path | None, out: Path, *argv: str) -> int:
    head = ["--quiet", "--out", str(out)]
    if config is not None:
        head += ["--config", str(config)]
    return cli.main(head + list(argv))


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _exit(rc, expected: int = 0) -> list[str]:
    return [] if rc == expected else [f"exit code {rc}, expected {expected}"]


def _verdict(out: Path, expected: str = "PASS") -> list[str]:
    verdict = _report(out)["verdict"]
    return [] if verdict == expected else [f"verdict {verdict}, expected {expected}"]


def _csv_rows(path: Path) -> np.ndarray:
    """Numeric rows of a trajectory CSV (t, q, p; the action column is ragged)."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")[:3]] for line in lines])


# ---------------------------------------------------------------------------
# curve_iteration: curve layer and batched flow on the critical path


def curve_iteration(rng: np.random.Generator, work: Path) -> list[Step]:
    phase = int(rng.integers(PHASE_CELLS)) / PHASE_CELLS
    amp = 1.0 / (2.0 * math.pi**2)
    manufactured = _write(work / "manufactured.ini", f"""
[hamiltonian]
family = shifted_quadratic
shift_coeffs = {_term(1, 1, 0.0, 0.05, phase)}
drift = 0.3
[experiment]
initial_potential_coeffs = {_term(0, 1, 0.0, 0.05, phase)}
""")
    shock = _write(work / "shock.ini", f"""
[hamiltonian]
family = mechanical
potential_coeffs =
[experiment]
initial_potential_coeffs = {_term(0, 1, 0.0, amp, phase)}
n_max = 4
m_max = 4
""")
    autonomous = _write(work / "autonomous.ini", f"""
[hamiltonian]
family = shifted_quadratic
shift_coeffs = {_term(0, 1, 0.0, 0.05, phase)}
drift = 0.3
[experiment]
initial_potential_coeffs = {_term(0, 1, 0.0, 0.05, phase)}
""")
    out_m, out_s, out_a = work / "birkhoff", work / "shock", work / "invariance"

    def check_manufactured(rc) -> list[str]:
        problems = _exit(rc) + _verdict(out_m)
        det = _report(out_m)["detectors"]
        for side in ("forward", "backward"):
            if det[side]["hits"] != list(range(1, 9)):
                problems.append(f"{side} hits {det[side]['hits']}, expected 1..8")
        return problems

    def run_shock():
        captured = {}
        emit = cli.emit_reports

        def capture(bundle, outdir):
            captured["bundle"] = bundle
            return emit(bundle, outdir)

        cli.emit_reports = capture
        try:
            rc = _cli(shock, out_s, "birkhoff")
        finally:
            cli.emit_reports = emit
        return rc, captured.get("bundle")

    def check_shock(result) -> list[str]:
        rc, bundle = result
        problems = _exit(rc) + _verdict(out_s)
        report = _report(out_s)
        if "contrapositive" not in report["reason"]:
            problems.append(f"reason {report['reason']!r} is not the contrapositive")
        det = report["detectors"]
        if det["forward"]["fired"] and det["backward"]["fired"]:
            problems.append("detector fired in both directions")
        if bundle is None:
            return problems + ["no report bundle was emitted"]
        for n in (1, -1):
            # folds of the time-n free flow of graph(v'), v = amp sin(2 pi (q - phase)):
            # 1 + n v''(theta) = 0, at q = theta + n v'(theta)
            base = (1 / 12, 5 / 12) if n == 1 else (7 / 12, 11 / 12)
            oracle = [th + phase + n * math.cos(2 * math.pi * th) / math.pi for th in base]
            curve = bundle.curves[n]
            folds = [float(curve.q[i]) for i in graph_check(curve).fold_parameters]
            if not folds:
                problems.append(f"iterate {n} has no fold")
                continue
            for o in oracle:
                gap = min(_torus_gap(f, o) for f in folds)
                if gap > 2.0 / 256:
                    problems.append(f"iterate {n}: fold at {o % 1.0:.4f} missed by {gap:.2e}")
        return problems

    return [
        Step("birkhoff_manufactured", lambda: _cli(manufactured, out_m, "birkhoff"),
             check_manufactured, out_m),
        Step("birkhoff_shock", run_shock, check_shock, out_s),
        Step("invariance_autonomous", lambda: _cli(autonomous, out_a, "invariance"),
             lambda rc: _exit(rc) + _verdict(out_a), out_a),
    ]


# ---------------------------------------------------------------------------
# weak_kam: min-plus composes and single-step potentials, no curve evolution


def weak_kam(rng: np.random.Generator, work: Path) -> list[Step]:
    cell = int(rng.integers(PHASE_CELLS))
    phase = cell / PHASE_CELLS
    calibration_seed = int(rng.integers(2**31))
    pendulum = _write(work / "pendulum.ini", f"""
[hamiltonian]
family = mechanical
potential_coeffs = {_term(0, 1, 1.0, 0.0, phase)}
[experiment]
initial_potential_coeffs = {_term(0, 1, 1.0, 0.0, phase)}
""")
    outs = {name: work / name for name in ("mane", "barrier", "recurrence", "calibrate")}

    def check_mane(rc) -> list[str]:
        alpha0 = _json(outs["mane"] / "mane.json")["alpha0"]
        bad = abs(alpha0 - 1.0) > 5e-3
        return _exit(rc) + ([f"alpha0 {alpha0!r} is not within 5e-3 of 1"] if bad else [])

    def check_barrier(rc) -> list[str]:
        ok = _json(outs["barrier"] / "barrier.json")["converged"]
        return _exit(rc) + ([] if ok else ["barrier did not converge"])

    def check_calibrate(rc) -> list[str]:
        verdict = _json(outs["calibrate"] / "calibration.json")["verdict"]
        return _exit(rc) + ([] if verdict == "PASS" else [f"calibration verdict {verdict}"])

    def run_weak_kam():
        # the study-script step: the positive weak solution anchored at the
        # potential maximum, with the critical value the barrier step used
        alpha0 = _json(outs["barrier"] / "barrier.json")["alpha0"]
        h = experiments.load_config(pendulum).hamiltonian
        return lax_oleinik.positive_weak_kam(h, alpha0, cell, 0.0, 256)

    def check_weak_kam(result) -> list[str]:
        residual = result[1]
        return [] if residual <= 1e-2 else [f"weak-KAM residual {residual:.3e} > 1e-2"]

    return [
        Step("mane", lambda: _cli(pendulum, outs["mane"], "mane"), check_mane),
        Step("barrier", lambda: _cli(pendulum, outs["barrier"], "barrier"), check_barrier),
        Step("recurrence", lambda: _cli(pendulum, outs["recurrence"], "recurrence"),
             lambda rc: _exit(rc) + _verdict(outs["recurrence"]), outs["recurrence"]),
        Step("calibrate",
             lambda: _cli(pendulum, outs["calibrate"], "--seed", str(calibration_seed), "calibrate"),
             check_calibrate),
        Step("positive_weak_kam", run_weak_kam, check_weak_kam),
    ]


# ---------------------------------------------------------------------------
# spectral_invariants: union-find percolation and CSV parsing

SPECTRAL_SUMS = 6


def spectral_invariants(rng: np.random.Generator, work: Path) -> list[Step]:
    def saddle(x, y):
        return x**2 - y**2 + np.exp(-(x**2 + y**2))

    instances = [("saddle_513", spectral.sample_fqi(saddle, (1, -1), fiber_resolution=513))]
    for i in range(SPECTRAL_SUMS):
        sgn = 1 if i % 2 == 0 else -1
        c1, c2 = rng.uniform(-0.4, 0.4, 4), rng.uniform(-0.4, 0.4, 4)

        def profile(c):
            return lambda q, x: sgn * x**2 + (
                c[0] * np.sin(2 * np.pi * q) + c[1] * np.cos(2 * np.pi * q)
                + c[2] * np.sin(4 * np.pi * q) + c[3] * np.cos(4 * np.pi * q))

        s1 = spectral.sample_fqi(profile(c1), (sgn,), base_resolution=32, fiber_resolution=33)
        s2 = spectral.sample_fqi(profile(c2), (sgn,), base_resolution=32, fiber_resolution=33)
        instances.append((f"sum_{i}", spectral.fibred_sum_fqi(s1, s2, negate_second=True)))

    steps = []
    for name, s in instances:
        path = work / f"{name}.csv"
        spectral.fqi_to_csv(s, path)
        out = work / name
        oracle = {}

        def check(rc, s=s, out=out, oracle=oracle) -> list[str]:
            problems = _exit(rc)
            payload = _json(out / "spectral.json")
            if "unit_of_negation" not in oracle:  # computed once per run
                oracle["unit_of_negation"] = spectral.spectral_unit(spectral.negate(s)).value
            top = payload.get("top", {}).get("value")
            if top is None or top != -oracle["unit_of_negation"]:
                problems.append(f"top {top!r} != -unit(-S) {-oracle['unit_of_negation']!r}")
            if s.base_resolution and payload.get("bounds_ok") is not True:
                problems.append("selector bounds violated")
            return problems

        steps.append(Step(f"spectral_{name}",
                          lambda path=path, out=out: _cli(None, out, "spectral", "--fqi", str(path)),
                          check))
    return steps


# ---------------------------------------------------------------------------
# rk4_flow: adaptive RK4 on 1-element arrays


def _custom_quartic(phase: float) -> TonelliHamiltonian:
    return TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: p**4 / 4 + p**2 / 2
        + 0.3 * np.cos(2 * np.pi * (q - phase)) * (1 + 0.5 * np.cos(2 * np.pi * t)),
        momentum_box=(-10.0, 10.0),
    )


def rk4_flow(rng: np.random.Generator, work: Path) -> list[Step]:
    phase = int(rng.integers(PHASE_CELLS)) / PHASE_CELLS
    # the seeded orbits are fixed orbits translated by the phase, so the
    # number of adaptive RK4 steps (the work) does not depend on the seed
    orbit_q, orbit_p = (phase + 0.3) % 1.0, 1.95
    quartic_q, quartic_p = (phase + 0.6) % 1.0, 0.7
    a, b = _translate(1, 1.0, 0.0, phase)
    pendulum = _write(work / "pendulum_rk4.ini", f"""
[hamiltonian]
family = mechanical
potential_coeffs = 0 1 {a!r} {b!r}
[flow]
integrator = rk4
""")
    out_c, out_o = work / "criterion2", work / "orbit"

    def energy_drift(out: Path) -> float:
        t, q, p = _csv_rows(out / "trajectory.csv").T
        energy = 0.5 * p**2 + a * np.cos(2 * np.pi * q) + b * np.sin(2 * np.pi * q)
        return float(np.max(np.abs(energy - energy[0])))

    def check_orbit(rc, out: Path) -> list[str]:
        drift = energy_drift(out)
        return _exit(rc) + ([] if drift <= 1e-9 else [f"energy drift {drift:.2e} > 1e-9"])

    def check_criterion2(rc) -> list[str]:
        problems = check_orbit(rc, out_c)
        _, q, p = _csv_rows(out_c / "trajectory.csv")[-1]
        if _torus_gap(q, phase + ORACLE_Q_LIFT) > 1e-8 or abs(p - ORACLE_P) > 1e-8:
            problems.append(f"endpoint ({q!r}, {p!r}) is off the frozen oracle by > 1e-8")
        return problems

    quartic = _custom_quartic(phase)

    def run_quartic():
        there = flow.trajectory(quartic, flow.PhasePoint(quartic_q, quartic_p), 0.0, 1.0)
        end = flow.PhasePoint(float(there.q[-1]), float(there.p[-1]))
        back = flow.trajectory(quartic, end, 1.0, 0.0)
        return float(back.q[-1]), float(back.p[-1])

    def check_quartic(result) -> list[str]:
        q, p = result
        gap = max(_torus_gap(q, quartic_q), abs(p - quartic_p))
        return [] if gap <= 1e-8 else [f"round trip misses its start by {gap:.2e}"]

    return [
        Step("flow_criterion2",
             lambda: _cli(pendulum, out_c, "flow", "--q", repr(phase), "--p", "2", "--t1", "10"),
             check_criterion2),
        Step("flow_orbit",
             lambda: _cli(pendulum, out_o, "flow", "--q", repr(orbit_q), "--p", repr(orbit_p),
                          "--t1", "2"),
             lambda rc: check_orbit(rc, out_o)),
        Step("quartic_round_trip", run_quartic, check_quartic),
    ]


WORKLOADS = {
    "curve_iteration": curve_iteration,
    "weak_kam": weak_kam,
    "spectral_invariants": spectral_invariants,
    "rk4_flow": rk4_flow,
}


def build(name: str, seed: int, work: Path) -> list[Step]:
    """Write the workload's inputs under `work` and return its steps."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), work)
