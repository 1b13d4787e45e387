"""Flow integration on T*T^1 with action bookkeeping.

The integrator advances batches of phase points (vectorized over numpy
arrays) with the action p*qdot - H integrated along each. A solvable family
flows in closed form (hamiltonians.py). Other flows are stepped, by the
family's Strang step or, for custom callables and integrator="rk4", by RK4
with step-doubling error control to RK4_TOL, and their action is composite
Simpson quadrature on the same solution samples, so the discrete primitives
stay consistent with the discrete flow.

Every step maps a point and its jet to the next point and its jet, and the
Simpson integrand is read off that jet, so each point is evaluated once: a
substep's end point, its jet and its integrand are the next substep's
start (first same as last), across macro knots too. Each substep time is
computed once, so an end time is bitwise the next start time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import StepSizeUnderflow
from .hamiltonians import Family, TonelliHamiltonian, wrap_unit

RK4_TOL = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    """Point of the cotangent bundle; q canonicalized to [0, 1)."""

    q: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "q", float(wrap_unit(self.q)))
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class FlowSettings:
    """Stepping plan: macro knots for dense output, substeps for quadrature."""

    macro_step: float = 1e-2
    integrator: str = "auto"  # auto | strang (auto, refusing custom callables) | rk4
    substeps_per_macro: int = 4

    def __post_init__(self):
        if not 0 < self.macro_step <= 0.1:
            raise ValueError("macro_step must lie in (0, 0.1]")
        if self.substeps_per_macro < 2 or self.substeps_per_macro % 2:
            raise ValueError("substeps_per_macro must be even and >= 2")
        if self.integrator not in ("auto", "strang", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass(frozen=True)
class Trajectory:
    """Dense flow output at macro knots with per-interval action increments."""

    times: np.ndarray
    q: np.ndarray
    q_lift: np.ndarray
    p: np.ndarray
    qdot: np.ndarray
    action_increments: np.ndarray
    energy_samples: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.q) == len(self.p) == len(self.q_lift) == n):
            raise ValueError("inconsistent sample lengths")
        if len(self.action_increments) != n - 1:
            raise ValueError("need one action increment per knot interval")
        dt = np.diff(self.times)
        if not (np.all(dt > 0) or np.all(dt < 0)):
            raise ValueError("times must be strictly monotone")

    @property
    def total_action(self) -> float:
        return float(np.sum(self.action_increments))

    def energy_drift(self, h: TonelliHamiltonian) -> float:
        """max |H(x(t)) - H(x(t0))| over the knots (autonomous diagnostics)."""
        vals = h.value(self.times, self.q_lift, self.p)
        return float(np.max(np.abs(vals - vals[0])))


def _rk4_fixed(h, tau, q, p, dt):
    def f(t, q, p):
        return h.dH_dp(t, q, p), -h.dH_dq(t, q, p)

    k1q, k1p = f(tau, q, p)
    k2q, k2p = f(tau + 0.5 * dt, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
    k3q, k3p = f(tau + 0.5 * dt, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
    k4q, k4p = f(tau + dt, q + dt * k3q, p + dt * k3p)
    qn = q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    pn = p + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return qn, pn


def _rk4_substep(h, tau, q, p, dt):
    """Advance by dt with step-doubling error control (recursive bisection).

    The local budget scales with the piece length so the error over the whole
    substep stays near RK4_TOL; pieces shorter than 1e-9 raise StepSizeUnderflow.

    A single point of a closed-form family is stepped on scalars: the same
    IEEE operations, so the same bits, without numpy's per-call overhead on
    1-element arrays. Custom callables always see the arrays they are given.
    """
    if q.size == 1 and h.family is not Family.CUSTOM:
        qs, ps = _rk4_adaptive(h, tau, float(q[0]), float(p[0]), dt)
        return np.array([qs], dtype=float), np.array([ps], dtype=float)
    return _rk4_adaptive(h, tau, q, p, dt)


def _rk4_adaptive(h, tau, q, p, dt):
    """The step-doubling loop of _rk4_substep, on arrays or on scalars."""
    stack = [(tau, dt)]
    while stack:
        t0, step = stack.pop()
        if abs(step) < 1e-9:
            raise StepSizeUnderflow(f"RK4 step fell below 1e-9 at t={t0}")
        qa, pa = _rk4_fixed(h, t0, q, p, step)
        qh, ph = _rk4_fixed(h, t0, q, p, 0.5 * step)
        qb, pb = _rk4_fixed(h, t0 + 0.5 * step, qh, ph, 0.5 * step)
        err = max(np.max(np.abs(qa - qb)), np.max(np.abs(pa - pb)))
        if err <= RK4_TOL * max(abs(step) / abs(dt), 1e-3):
            q, p = qb, pb
        else:
            stack.append((t0 + 0.5 * step, 0.5 * step))
            stack.append((t0, 0.5 * step))
    return q, p


class _RK4:
    """Adaptive RK4 in the shape of a family's step. Its jet is the point
    (t, q) itself: the step reads t, and dH/dp and H are evaluated at (t, q)
    when read."""

    def jet(self, h, t, q):
        return t, q

    def qdot_and_value(self, h, p, jet):
        t, q = jet
        return h.dH_dp(t, q, p), h.value(t, q, p)

    def step(self, h, q, p, jet, dt, t1):
        q1, p1 = _rk4_substep(h, jet[0], q, p, dt)
        return q1, p1, (t1, q1)


def simpson_pattern(m: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on m (even) intervals, unscaled."""
    w = np.ones(m + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w


def integrate_batch(
    h: TonelliHamiltonian,
    q_lift: np.ndarray,
    p: np.ndarray,
    s: float,
    t: float,
    settings: FlowSettings,
    record_knots: bool = False,
):
    """Flow arrays of initial conditions from time s to t.

    Returns (q_lift_end, p_end, action) by default; with record_knots also a
    dict of knot-resolved samples (times, q_lift, p, qdot, per-interval action
    increments). Positions are integrated on the universal cover, never
    wrapped, so curve lifts stay consistent.
    """
    q = np.array(q_lift, dtype=float)
    p = np.array(p, dtype=float)
    s = float(s)
    span = t - s
    # s == t takes no macro step: the start point is the one knot
    n_macro = max(1, int(np.ceil(abs(span) / settings.macro_step - 1e-12))) if span else 0
    dt_macro = span / max(n_macro, 1)
    if settings.integrator != "rk4" and h.ops.solvable(h):
        # one closed-form call for the span, or one per macro interval when
        # knots are recorded, each handed the end-point data of the one before
        times = [s + i * dt_macro for i in range(n_macro + 1)] if record_knots else [s, t] if n_macro else [s]
        knots, increments, start = [], [], None
        for tau0, tau1 in zip(times, times[1:]):
            q1, p1, inc, qdot, start = h.ops.flow(h, q, p, tau0, tau1, start)
            knots.append((tau0, q, p, qdot))  # qdot is constant along the flow
            increments.append(inc)
            q, p = q1, p1
        knots.append((times[-1], q, p, knots[-1][3] if knots else h.dH_dp(s, q, p)))
        action = sum(increments, np.zeros_like(q))
    else:
        stepper = h.ops
        if settings.integrator == "rk4" or stepper.step is None:
            if settings.integrator == "strang":
                raise ValueError("Strang splitting needs a closed-form separable family")
            stepper = _RK4()
        m = settings.substeps_per_macro
        dt_sub = dt_macro / m
        weights = simpson_pattern(m) / 3.0 * dt_sub

        def integrand(p, jet):
            """dH/dp and the action integrand p dH/dp - H at a point with momenta p
            and jet `jet`, and jet[:1], the part of the jet the next step reads:
            the rest is not kept across the step."""
            qdot, value = stepper.qdot_and_value(h, p, jet)
            qdot = np.asarray(qdot, dtype=float) + np.zeros_like(p)
            return qdot, qdot * p - np.asarray(value), jet[:1]

        action = np.zeros_like(q)
        qdot, f, jet = integrand(p, stepper.jet(h, s, q))
        knots = [(s, q.copy(), p.copy(), qdot)] if record_knots else None
        increments = []

        for i in range(n_macro):
            tau0, tau_end = s + i * dt_macro, s + (i + 1) * dt_macro
            inc = np.zeros_like(q)
            inc += weights[0] * f
            for j in range(1, m + 1):
                tau = tau0 + j * dt_sub if j < m else tau_end
                q, p, jet = stepper.step(h, q, p, jet, dt_sub, tau)
                qdot, f, jet = integrand(p, jet)
                inc += weights[j] * f
            action += inc
            if record_knots:
                knots.append((tau_end, q.copy(), p.copy(), qdot))
                increments.append(inc)

    if record_knots:
        times, knot_q, knot_p, knot_qdot = zip(*knots)
        rec = {
            "times": np.array(times),
            "q_lift": np.array(knot_q),
            "p": np.array(knot_p),
            "qdot": np.array(knot_qdot),
            "action_increments": np.reshape(increments, (n_macro, len(q))),
        }
        return q, p, action, rec
    return q, p, action


def flow_map(
    h: TonelliHamiltonian,
    x: PhasePoint,
    s: float,
    t: float,
    settings: FlowSettings = FlowSettings(),
) -> PhasePoint:
    """The flow from time s to t applied to x (backward when t < s)."""
    q, p, _ = integrate_batch(h, np.array([x.q]), np.array([x.p]), s, t, settings)
    return PhasePoint(float(q[0]), float(p[0]))


def trajectory(
    h: TonelliHamiltonian,
    x: PhasePoint,
    s: float,
    t: float,
    settings: FlowSettings = FlowSettings(),
) -> Trajectory:
    """Dense flow output with action increments per knot interval."""
    _, _, _, rec = integrate_batch(
        h, np.array([x.q]), np.array([x.p]), s, t, settings, record_knots=True
    )
    lift = rec["q_lift"][:, 0]
    return Trajectory(
        times=rec["times"],
        q=wrap_unit(lift),
        q_lift=lift,
        p=rec["p"][:, 0],
        qdot=rec["qdot"][:, 0],
        action_increments=rec["action_increments"][:, 0],
    )


def extended_trajectory(
    h: TonelliHamiltonian,
    x: PhasePoint,
    s: float,
    t: float,
    settings: FlowSettings = FlowSettings(),
) -> Trajectory:
    """Trajectory on the zero level of the extended Hamiltonian.

    Energy samples are E(tau) = -H(tau, x(tau)), so E + H vanishes identically
    by construction; the informative cross-check is dE/dtau against -dH/dt,
    exposed by energy_rate_residual.
    """
    traj = trajectory(h, x, s, t, settings)
    return replace(traj, energy_samples=-np.asarray(h.value(traj.times, traj.q_lift, traj.p)))


def energy_rate_residual(h: TonelliHamiltonian, traj: Trajectory) -> float:
    """max over interior knots of |dE/dtau + dH/dt| (central differences)."""
    if traj.energy_samples is None:
        raise ValueError("need an extended trajectory with energy samples")
    e = traj.energy_samples
    ts = traj.times
    rate = (e[2:] - e[:-2]) / (ts[2:] - ts[:-2])
    dht = np.asarray(h.dH_dt(ts[1:-1], traj.q_lift[1:-1], traj.p[1:-1]))
    return float(np.max(np.abs(rate + dht)))
