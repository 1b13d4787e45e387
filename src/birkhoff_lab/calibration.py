"""Calibration defects, domination sweeps, and calibrated-curve extraction.

A candidate solution is a time-knotted stack of grid functions, linear in
time and cubic-periodic in space (one spline through all knot rows, which
`jet` evaluates on arrays). Defects of flow trajectories reuse the
trajectory's stored action increments: along a Hamiltonian flow the
action integrand p qdot - H equals the convex conjugate evaluated on the
velocity, identically at every sample, so the defect quadrature telescopes
exactly across shared knots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExceeded, KinkAtSeed, NonpositiveDuration
from .flow import FlowSettings, PhasePoint, Trajectory, simpson_pattern, trajectory
from .grids import GridFunction, periodic_spline, require_power_of_two
from .hamiltonians import TonelliHamiltonian, wrap_unit
from .lax_oleinik import lagrangian_batch, lax_negative, potential

KINK_RATIO = 50.0
KINK_FLOOR = 1e-9
LAX_KNOT_STEP = 1.0 / 16.0
TEST_LOOP_DEGREE = 4
TEST_LOOP_AMPLITUDE = 0.5
TEST_LOOP_INTERVALS = 64


def grid_kink_mask(values: np.ndarray) -> np.ndarray:
    """Kink cells along the last (periodic) axis: second differences above
    KINK_RATIO times their median, and above a floor relative to the range."""
    d2 = np.abs(np.roll(values, -1, axis=-1) - 2.0 * values + np.roll(values, 1, axis=-1))
    med = np.median(d2, axis=-1, keepdims=True)
    scale = np.maximum(KINK_FLOOR * (1.0 + np.ptp(values, axis=-1, keepdims=True)), KINK_RATIO * med)
    return d2 > scale


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Knot-sampled scalar function on [t0, t1] x T^1 with its critical constant.

    At least two knots, so every time in the window lies in a knot interval.
    """

    times: np.ndarray
    knots: np.ndarray  # shape (K, N), K >= 2
    alpha0: float = 0.0

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        ks = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "knots", ks)
        if ks.ndim != 2 or len(ts) != ks.shape[0]:
            raise ValueError("knots must be (K, N) aligned with times")
        if len(ts) < 2:
            raise ValueError(f"need at least two knots, got {len(ts)}")
        dt = np.diff(ts)
        if np.any(dt <= 0) or np.max(dt) > 0.25 + 1e-12:
            raise ValueError("knot times must increase with spacing <= 0.25")
        require_power_of_two(ks.shape[1], "resolution")
        if not np.all(np.isfinite(ks)):
            raise ValueError("knot values must be finite")
        object.__setattr__(self, "_spline", periodic_spline(ks))
        object.__setattr__(self, "_kinks", grid_kink_mask(ks))

    @property
    def resolution(self) -> int:
        return self.knots.shape[1]

    def _interval(self, t) -> tuple[np.ndarray, np.ndarray]:
        ts = self.times
        t = np.asarray(t, dtype=float)
        outside = (t < ts[0] - 1e-9) | (t > ts[-1] + 1e-9)
        if np.any(outside):
            raise DomainExceeded(f"time {t[outside][0]} outside [{ts[0]}, {ts[-1]}]")
        j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return j, np.clip(w, 0.0, 1.0)

    def jet(self, t, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, dq u, dt u) at broadcastable t and q; dt u is the knot interval's slope."""
        j, w = self._interval(t)
        j, w, qw = np.broadcast_arrays(j, w, wrap_unit(np.asarray(q, dtype=float)))
        rows = np.stack([j, j + 1])  # the knot rows around each time
        lo, hi = np.take_along_axis(self._spline(qw), rows, 0)
        dlo, dhi = np.take_along_axis(self._spline(qw, 1), rows, 0)
        step = self.times[j + 1] - self.times[j]
        u = np.where(w == 0.0, lo, (1 - w) * lo + w * hi)
        dq = np.where(w == 0.0, dlo, (1 - w) * dlo + w * dhi)
        return u, dq, (hi - lo) / step

    def kink_at(self, t: float, q: float) -> bool:
        """Second-difference kink detector near (t, q)."""
        j, w = self._interval(t)
        rows = [j] if w == 0.0 else [j, j + 1]
        n = self.resolution
        cell = int(np.floor(wrap_unit(q) * n))
        cells = [(cell + d) % n for d in (-1, 0, 1, 2)]
        return any(bool(self._kinks[r][c]) for r in rows for c in cells)


def spacetime_from_grid(u: GridFunction, t0: float, t1: float, alpha0: float = 0.0) -> SpaceTimeFunction:
    """Time-independent candidate built from a single grid function."""
    k = max(2, int(np.ceil((t1 - t0) / 0.25)) + 1)
    times = np.linspace(t0, t1, k)
    return SpaceTimeFunction(times, np.tile(u.values, (k, 1)), alpha0)


def spacetime_from_lax(
    h: TonelliHamiltonian,
    u0: GridFunction,
    t0: float,
    t1: float,
    alpha0: float,
) -> SpaceTimeFunction:
    """Viscosity-type evolution of u0 sampled every LAX_KNOT_STEP, on the grid of u0."""
    if t1 <= t0:
        raise NonpositiveDuration(f"need t1 > t0, got [{t0}, {t1}]")
    k = int(round((t1 - t0) / LAX_KNOT_STEP))
    if abs(k * LAX_KNOT_STEP - (t1 - t0)) > 1e-9 or k < 1:
        raise ValueError(f"the knot step {LAX_KNOT_STEP} must divide the time span")
    times = t0 + LAX_KNOT_STEP * np.arange(k + 1)
    rows = [u0.values.copy()]
    cur = u0
    for j in range(k):
        pm = potential(h, float(times[j]), float(times[j + 1]), u0.resolution)
        cur = lax_negative(cur, pm, alpha0)
        rows.append(cur.values.copy())
    return SpaceTimeFunction(times, np.array(rows), alpha0)


def calibration_defect(u: SpaceTimeFunction, traj: Trajectory, a: float, b: float) -> float:
    """Action of the trajectory between a and b, critically normalized, minus
    the increment of u; a and b must be trajectory knots inside both domains."""
    ts = traj.times
    ia = int(np.argmin(np.abs(ts - a)))
    ib = int(np.argmin(np.abs(ts - b)))
    if abs(ts[ia] - a) > 1e-9 or abs(ts[ib] - b) > 1e-9:
        raise DomainExceeded("defect endpoints must be trajectory knots")
    if ia > ib:
        ia, ib = ib, ia
        a, b = b, a
    action = float(np.sum(traj.action_increments[ia:ib]))
    action += u.alpha0 * (ts[ib] - ts[ia])
    ua, ub = u.jet(np.array([a, b]), traj.q_lift[[ia, ib]])[0]
    return action - float(ub - ua)


@dataclass(frozen=True)
class DominationReport:
    min_defect: float
    argmin: int
    count: int


def domination_check(
    u: SpaceTimeFunction,
    h: TonelliHamiltonian,
    count: int = 1000,
    seed: int = 0,
) -> DominationReport:
    """Minimum defect over random smooth test loops (indexed min, deterministic).

    Test curves are random trig polynomials in time of degree TEST_LOOP_DEGREE
    and amplitude at most TEST_LOOP_AMPLITUDE spanning the whole knot window;
    their action uses composite Simpson on TEST_LOOP_INTERVALS intervals of an
    analytic sampling.
    """
    degree = TEST_LOOP_DEGREE
    t0, t1 = float(u.times[0]), float(u.times[-1])
    span = t1 - t0
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(0.0, 1.0, size=count)
    coef = rng.uniform(-1.0, 1.0, size=(count, degree, 2))
    norm = np.sum(np.abs(coef), axis=(1, 2))
    scale = TEST_LOOP_AMPLITUDE * rng.uniform(0.2, 1.0, size=count) / np.maximum(norm, 1e-12)
    coef *= scale[:, None, None]

    m = TEST_LOOP_INTERVALS
    taus = t0 + span * np.arange(m + 1) / m
    sigma = (taus - t0) / span
    d = np.arange(1, degree + 1)
    # half-period harmonics keep the endpoints moving (loops dominate trivially)
    ang = np.pi * d[None, :, None] * sigma[None, None, :]
    gamma = q0[:, None] + np.sum(
        coef[:, :, 0:1] * np.cos(ang) + coef[:, :, 1:2] * np.sin(ang), axis=1
    )
    dgamma = np.sum(
        (np.pi / span)
        * d[None, :, None]
        * (-coef[:, :, 0:1] * np.sin(ang) + coef[:, :, 1:2] * np.cos(ang)),
        axis=1,
    )

    w = simpson_pattern(m) * (span / (3.0 * m))
    lag = np.empty_like(gamma)
    for j, tau in enumerate(taus):
        lag[:, j] = lagrangian_batch(h, float(tau), gamma[:, j], dgamma[:, j])
    actions = lag @ w + u.alpha0 * span
    u_start, u_end = u.jet(np.array([[t0], [t1]]), gamma[:, [0, -1]].T)[0]
    defects = actions - (u_end - u_start)
    k = int(np.argmin(defects))
    return DominationReport(float(defects[k]), k, count)


@dataclass(frozen=True)
class CalibratedCurveReport:
    curve: Trajectory
    max_momentum_residual: float
    max_hj_residual: float
    defect: float
    seed_t: float
    seed_q: float

    def to_dict(self) -> dict:
        """The scalar results, as calibrate writes each shot."""
        return {
            "defect": self.defect,
            "momentum_residual": self.max_momentum_residual,
            "hj_residual": self.max_hj_residual,
            "seed_t": self.seed_t,
            "seed_q": self.seed_q,
        }


def calibrated_curve(
    u: SpaceTimeFunction,
    h: TonelliHamiltonian,
    t0: float,
    q0: float,
    horizon: float,
    settings: FlowSettings = FlowSettings(),
) -> CalibratedCurveReport:
    """Shoot the flow from the graph of dq u and measure the weak-KAM identities.

    The seed momentum is the cubic-interpolant derivative at (t0, q0); seeding
    at detector kinks is refused since no derivative can be trusted there.
    """
    if u.kink_at(t0, q0):
        raise KinkAtSeed(f"candidate solution is kinked near (t={t0}, q={q0})")
    p0 = float(u.jet(t0, q0)[1])
    traj = trajectory(h, PhasePoint(q0, p0), t0, t0 + horizon, settings)
    _, dqu, dtu = u.jet(traj.times, traj.q)
    mom_res = float(np.max(np.abs(dqu - traj.p)))
    hj_res = float(np.max(np.abs(dtu + h.value(traj.times, traj.q, dqu) - u.alpha0)))
    defect = calibration_defect(u, traj, float(traj.times[0]), float(traj.times[-1]))
    return CalibratedCurveReport(
        curve=traj,
        max_momentum_residual=mom_res,
        max_hj_residual=hj_res,
        defect=defect,
        seed_t=t0,
        seed_q=float(wrap_unit(q0)),
    )
