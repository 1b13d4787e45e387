"""Flow integration on T*T^1 with action bookkeeping.

The integrator advances batches of phase points (vectorized over numpy
arrays) with the action p*qdot - H integrated along each. A solvable family
flows in closed form (hamiltonians.py). Other flows are stepped, by the
family's Strang step or, for custom callables and integrator="rk4", by the
embedded Dormand-Prince 5(4) Runge-Kutta pair (Dormand & Prince 1980; Hairer,
Norsett & Wanner, Solving ODEs I, II.4-5) with its error estimate held to
RK4_TOL and its step size carried from substep to substep, and their action
is composite Simpson quadrature on the same solution samples, so the
discrete primitives stay consistent with the discrete flow. The integrator
keeps the name rk4, which configs use, and so does its tolerance RK4_TOL.
Its six stages are unrolled, each one call of the family's vector_field
(dH/dp, -dH/dq): a single trig pass for the closed forms, two complex-step
evaluations for a custom callable.

A lone point of a stepped flow runs on Python floats from start to return,
whatever its family: the stepper's steps and integrand, the carried
derivatives, the Simpson increments and the action. They are the same IEEE
operations in the same order as on a 1-element array, so the same bits,
without numpy's per-call overhead. Arrays are built only at the return,
the recorded knots' among them. A custom callable still sees 1-element
arrays.

Both steppers, the family's and _RK4, are built at the start point and hold
what the next step reads there (dV/dq, or the derivative k), so each point
is evaluated once: the step that reaches a point leaves what the Simpson
integrand p dH/dp - H and the next step need there (first same as last),
across macro knots too. Each substep time is computed once, and the
previous substep's end time is the next step's start time, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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
    """Stepping plan: macro knots for dense output, substeps for quadrature.

    The integrator is the one setting a config chooses. The macro step and
    the (even) number of Simpson substeps per macro step are constants of
    the class, read from the instance.
    """

    macro_step: ClassVar[float] = 1e-2
    substeps_per_macro: ClassVar[int] = 4
    integrator: str = "auto"  # auto (closed form, else Strang, else rk4) | rk4 (any family)

    def __post_init__(self):
        if self.integrator not in ("auto", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass(frozen=True)
class Trajectory:
    """Dense flow output at macro knots with per-interval action increments."""

    times: np.ndarray
    q: np.ndarray
    q_lift: np.ndarray
    p: np.ndarray
    action_increments: np.ndarray

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


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980): stage nodes C and
# rows A of stages 2-6, fifth-order weights B, and E, the weights of the
# embedded fourth-order solution minus the fifth-order one, whose seventh
# stage is the derivative at the end point (first same as last).
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# the same coefficients by name, for the unrolled step; the second weights of
# B and E are 0, and the step skips them
_C2, _C3, _C4, _C5, _C6 = _C
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), (_A61, _A62, _A63, _A64, _A65) = _A
_B1, _, _B3, _B4, _B5, _B6 = _B
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E


class _RK4:
    """Adaptive Dormand-Prince 5(4), a stepper with a family stepper's
    contract (hamiltonians.py), for one integrate_batch call. It holds k, the
    derivative at the current point: evaluated at the start point when
    built, then carried by each step from its end point. The integrand reads
    dH/dp off k and evaluates H.

    Each substep is crossed in steps whose local error estimate, the max abs
    over q, p and all points, stays within RK4_TOL per substep length (a
    budget of RK4_TOL / 1000 a step at least); a step size below 1e-9 raises
    StepSizeUnderflow. The step size and the derivative at the current point
    carry over from one substep to the next, and the last step of a substep
    is clipped to land on its end.

    Each stage is one call of the family's vector_field, and each weighted
    sum of stages runs left to right over the nonzero weights. The same code
    steps a batch on arrays and a lone point on Python floats (scalar). At a
    lone point a custom callable still sees the 1-element arrays of a batch
    column: each of its evaluations wraps the point and reads the floats back.
    """

    def __init__(self, h, t, q, p):
        self.h = h
        self.scalar = type(q) is float
        self.size = None  # the next step size
        self.field, self.value = h.ops.vector_field, h.ops.value
        if self.scalar and h.family is Family.CUSTOM:
            self.field, self.value = self._column_field, self._column_value
        # (dq/dt, dp/dt) at the current point
        self.k = self.field(h, t, q, p)

    def _column_field(self, h, t, q, p):
        kq, kp = h.ops.vector_field(h, t, np.array([q]), np.array([p]))
        return float(kq[0]), float(kp[0])

    def _column_value(self, h, t, q, p):
        return float(h.ops.value(h, t, np.array([q]), np.array([p]))[0])

    def integrand(self, t, q, p):
        return self.k[0] * p - self.value(self.h, t, q, p)

    def step(self, q, p, t, dt, t1):
        return self._advance(self.h, t, q, p, dt, t1)

    def _norm(self, x):
        return abs(x) if self.scalar else np.max(np.abs(x))

    def _advance(self, h, t, q, p, dt_sub, t1):
        """Steps from (t, q, p) to time t1, dt_sub after t."""
        f = self.field
        k = self.k
        size = dt_sub if self.size is None else self.size
        while True:
            if abs(size) < 1e-9:
                raise StepSizeUnderflow(f"Dormand-Prince step fell below 1e-9 at t={t}")
            last = abs(size) >= abs(t1 - t)
            proposed = size
            dt = t1 - t if last else size
            t_new = t1 if last else t + dt
            kq1, kp1 = k
            kq2, kp2 = f(h, t + _C2 * dt, q + dt * (_A21 * kq1), p + dt * (_A21 * kp1))
            kq3, kp3 = f(h, t + _C3 * dt, q + dt * (_A31 * kq1 + _A32 * kq2), p + dt * (_A31 * kp1 + _A32 * kp2))
            kq4, kp4 = f(h, t + _C4 * dt, q + dt * (_A41 * kq1 + _A42 * kq2 + _A43 * kq3),
                         p + dt * (_A41 * kp1 + _A42 * kp2 + _A43 * kp3))
            kq5, kp5 = f(h, t + _C5 * dt, q + dt * (_A51 * kq1 + _A52 * kq2 + _A53 * kq3 + _A54 * kq4),
                         p + dt * (_A51 * kp1 + _A52 * kp2 + _A53 * kp3 + _A54 * kp4))
            kq6, kp6 = f(h, t + _C6 * dt, q + dt * (_A61 * kq1 + _A62 * kq2 + _A63 * kq3 + _A64 * kq4 + _A65 * kq5),
                         p + dt * (_A61 * kp1 + _A62 * kp2 + _A63 * kp3 + _A64 * kp4 + _A65 * kp5))
            q_new = q + dt * (_B1 * kq1 + _B3 * kq3 + _B4 * kq4 + _B5 * kq5 + _B6 * kq6)
            p_new = p + dt * (_B1 * kp1 + _B3 * kp3 + _B4 * kp4 + _B5 * kp5 + _B6 * kp6)
            k_new = kq7, kp7 = f(h, t_new, q_new, p_new)
            err = max(
                self._norm(dt * (_E1 * kq1 + _E3 * kq3 + _E4 * kq4 + _E5 * kq5 + _E6 * kq6 + _E7 * kq7)),
                self._norm(dt * (_E1 * kp1 + _E3 * kp3 + _E4 * kp4 + _E5 * kp5 + _E6 * kp6 + _E7 * kp7)),
            )
            budget = RK4_TOL * max(abs(dt) / abs(dt_sub), 1e-3)
            factor = 10.0 if err == 0 else min(10.0, max(0.2, 0.9 * (budget / err) ** 0.2))
            size = dt * factor
            if err <= budget:
                t, q, p, k = t_new, q_new, p_new, k_new
                if last:
                    # a step clipped short says nothing against the size
                    # proposed before it
                    self.size, self.k = max(size, proposed, key=abs), k
                    return q, p


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
    dict of knot-resolved samples (times, q_lift, p, per-interval action
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
            q1, p1, inc, start = h.ops.flow(h, q, p, tau0, tau1, start)
            knots.append((tau0, q, p))
            increments.append(inc)
            q, p = q1, p1
        knots.append((times[-1], q, p))
        action = sum(increments, np.zeros_like(q))
    else:
        # a lone point runs on Python floats until the return
        lone = q.shape == (1,)
        if lone:
            q, p = float(q[0]), float(p[0])
        zeros = (lambda: 0.0) if lone else (lambda: np.zeros_like(q))
        rk4 = settings.integrator == "rk4" or h.ops.stepper is None
        stepper = (_RK4 if rk4 else h.ops.stepper)(h, s, q, p)
        m = settings.substeps_per_macro
        dt_sub = dt_macro / m
        weights = (simpson_pattern(m) / 3.0 * dt_sub).tolist()

        action = zeros()
        tau = s
        f = stepper.integrand(tau, q, p)
        knots = [(s, q, p)] if record_knots else None
        increments = []

        for i in range(n_macro):
            tau0, tau_end = s + i * dt_macro, s + (i + 1) * dt_macro
            # from zero, as a batch's increment is, so a -0.0 first term gives +0.0
            inc = zeros()
            inc += weights[0] * f
            for j in range(1, m + 1):
                tau1 = tau0 + j * dt_sub if j < m else tau_end
                q, p = stepper.step(q, p, tau, dt_sub, tau1)
                tau = tau1
                f = stepper.integrand(tau, q, p)
                inc += weights[j] * f
            action += inc
            if record_knots:
                knots.append((tau_end, q, p))
                increments.append(inc)
        if lone:
            q, p, action = np.array([q]), np.array([p]), np.array([action])

    if record_knots:
        times, knot_q, knot_p = zip(*knots)
        shape = (len(times), len(q))
        rec = {
            "times": np.array(times),
            "q_lift": np.reshape(knot_q, shape),
            "p": np.reshape(knot_p, shape),
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
        action_increments=rec["action_increments"][:, 0],
    )

