"""Tonelli Hamiltonian families on the cotangent bundle of the circle.

Three families are built in: mechanical (kinetic + potential), a manufactured
shifted-quadratic family that solves the Hamilton-Jacobi equation in closed
form, and user-supplied callables. Potentials and shift profiles are finite
trigonometric polynomials, so evaluation and all needed derivatives are
closed-form and exactly 1-periodic in time and position.

Each family is one object here that owns H; its vector field
(dH/dp, -dH/dq) in one pass, the only place a closed form writes its
derivatives, which the Dormand-Prince pair in flow.py steps; its Legendre
transform `legendre`, the vectorized Lagrangian with its maximizer
(bisection on dH/dp for custom callables), and the Lagrangian's sum over
the quadrature nodes of a straight segment; and its flow: in closed form,
action included, for the solvable families (the shifted quadratic, and a
mechanical family whose potential has no position harmonic); a Strang step
on jets (one `TrigPolynomial.jet` pass per point and substep) for the other
mechanical families; none for custom callables, which flow by the
Dormand-Prince pair.

A custom callable's first derivatives are complex steps, Im H(x + i h) / h
with h = COMPLEX_STEP (Squire & Trapp, SIAM Review 40, 1998; Martins,
Sturdza & Alonso, ACM TOMS 29, 2003): no difference is taken, so there is no
cancellation, and for a real-analytic H the result is exact to rounding. So
the callable must accept complex arguments and carry their imaginary parts
through; each custom Hamiltonian is checked for that when it is built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import MaximizerNotFound, NotComplexAnalytic

TWO_PI = 2.0 * math.pi
MAX_HARMONIC = 8
MAXIMIZER_HALVINGS = 45  # bisection halvings of a custom momentum box
COMPLEX_STEP = 1e-20  # the imaginary step of a custom callable's first derivatives


def wrap_unit(x):
    """Reduce a coordinate (scalar or array) to [0, 1)."""
    return x - np.floor(x)


def _reduced(x):
    """wrap_unit of x: a Python float for a finite scalar (the same IEEE
    operations without numpy's 0-d overhead), an array otherwise."""
    if isinstance(x, float) and math.isfinite(x):
        x = float(x)
        return x - math.floor(x)
    return wrap_unit(np.asarray(x, dtype=float))


def _factor(j, k, a, b, nt, nq):
    """(fac, aa, bb) such that the (nt, nq)-th derivative of
    a cos(theta) + b sin(theta), theta = 2pi (j t + k q), is
    fac * (aa cos(theta) + bb sin(theta))."""
    n = nt + nq
    for _ in range(n):
        a, b = b, -a
    return (TWO_PI ** n) * (j ** nt) * (k ** nq), a, b


@dataclass(frozen=True)
class TrigPolynomial:
    """Real trig polynomial  sum_i a_i cos(2pi(j_i t + k_i q)) + b_i sin(...).

    Terms are (j, k, a, b) with integer harmonics j (time) and k (position),
    so the polynomial is exactly 1-periodic in both arguments. No harmonic
    exceeds MAX_HARMONIC in absolute value, and every coefficient is finite.
    """

    terms: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self):
        for j, k, a, b in self.terms:
            if abs(j) > MAX_HARMONIC or abs(k) > MAX_HARMONIC:
                raise ValueError(f"harmonic ({j},{k}) exceeds max {MAX_HARMONIC}")
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"term ({j},{k}) has a non-finite coefficient: a={a}, b={b}")
        # jet's per-term factors, by orders; not a field, so hashing and
        # equality ignore it
        object.__setattr__(self, "_factors", {})

    @staticmethod
    def from_coeffs(terms: Sequence[Sequence[float]]) -> "TrigPolynomial":
        out = tuple((int(j), int(k), float(a), float(b)) for j, k, a, b in terms)
        return TrigPolynomial(out)

    def deriv(self, t, q, nt: int = 0, nq: int = 0):
        """Evaluate the (nt, nq)-th mixed derivative at (t, q)."""
        return self.jet(t, q, ((nt, nq),))[0]

    def jet(self, t, q, orders):
        """The (nt, nq)-th mixed derivative at (t, q) for each (nt, nq) in
        orders, from one cos and one sin per term.

        Arguments are reduced mod 1 before phases are formed, which makes
        1-periodicity hold bitwise. Each order sums fac * (aa cos + bb sin)
        in term order, so an entry does not depend on which other orders are
        asked for. A float comes back for scalar arguments, an array otherwise.
        """
        if not self.terms:
            shape = np.broadcast(t, q).shape
            return tuple([np.zeros(shape) if shape else 0.0 for _ in orders])
        tm = _reduced(t)
        qm = _reduced(q)
        orders = tuple(orders)
        rows = self._factors.get(orders)
        if rows is None:
            rows = [(j, k, [_factor(j, k, a, b, *o) for o in orders]) for j, k, a, b in self.terms]
            self._factors[orders] = rows
        outs = [0.0] * len(orders)
        for j, k, factors in rows:
            theta = TWO_PI * (j * tm + k * qm)
            cos, sin = np.cos(theta), np.sin(theta)
            del theta
            if cos.ndim == 0:
                # Python floats: the same IEEE operations without numpy's
                # per-operation overhead on scalars
                cos, sin = float(cos), float(sin)
            for i, (fac, aa, bb) in enumerate(factors):
                # outs[i] + fac * (aa cos + bb sin), summed in place: + and *
                # commute exactly, so the bits are the same with fewer temporaries
                acc = aa * cos
                acc += bb * sin
                acc *= fac
                acc += outs[i]
                outs[i] = acc
        return tuple(outs)

    def value(self, t, q):
        return self.deriv(t, q, 0, 0)

    def outer_sum(self, t, qa, qb, nt: int = 0, nq: int = 0) -> np.ndarray:
        """Sum over i of deriv(t[i], qa[i][:, None] + qb[i][None, :], nt, nq).

        By angle addition, cos(A + B) = cos A cos B - sin A sin B, each term
        at each i is two rank-1 outer products. So cos and sin are taken on
        len(qa[i]) + len(qb[i]) phases instead of on their product grid, and
        one matrix product sums every term and every i. The phases round
        differently from `deriv` on the summed argument, so the two agree to
        a few ulps of the phases, not bitwise.
        """
        qa = np.asarray(qa, dtype=float)
        qb = np.asarray(qb, dtype=float)
        if not self.terms:
            return np.zeros((qa.shape[1], qb.shape[1]))
        rows = [(j, k, *_factor(j, k, a, b, nt, nq)) for j, k, a, b in self.terms]
        j, k, fac, aa, bb = (np.array(c, dtype=float)[:, None] for c in zip(*rows))
        tm = wrap_unit(np.asarray(t, dtype=float))[:, None, None]
        phase_a = TWO_PI * wrap_unit(j * tm + k * qa[:, None, :])  # (i, term, y)
        phase_b = TWO_PI * wrap_unit(k * qb[:, None, :])  # (i, term, x)
        cb, sb = np.cos(phase_b), np.sin(phase_b)
        # aa cos(A+B) + bb sin(A+B) = cos A (aa cos B + bb sin B) + sin A (bb cos B - aa sin B)
        left = np.concatenate([np.cos(phase_a), np.sin(phase_a)], axis=1)
        right = np.concatenate([fac * (aa * cb + bb * sb), fac * (bb * cb - aa * sb)], axis=1)
        return left.reshape(-1, qa.shape[1]).T @ right.reshape(-1, qb.shape[1])


class Family(enum.Enum):
    MECHANICAL = "mechanical"
    SHIFTED_QUADRATIC = "shifted_quadratic"
    CUSTOM = "custom"


@dataclass(frozen=True)
class LagrangianFnValue:
    """Action density and the momentum achieving the convex conjugacy."""

    value: float
    optimal_momentum: float


class _Mechanical:
    """Mechanical family; closed-form flow when V depends on t alone, else
    Strang kinetic/potential splitting.

    Its jet at (t, q) is (dV/dq, V): the step reads dV/dq, H reads V.
    """

    def solvable(self, h):
        return not any(k for _, k, _, _ in h.potential.terms)

    def flow(self, h, q, p, s, t, start=None):
        """Flow from time s to t when V depends on t alone: p and qdot = k p
        are constant, and with V = c + dW/dt the action is
        (k p^2/2 - offset - c)(t - s) - W(t) + W(s). Returns q1, p1, the
        action and W(t), the `start` of a call continuing from t."""
        terms = h.potential.terms
        w = TrigPolynomial(tuple((j, 0, -b / (TWO_PI * j), a / (TWO_PI * j)) for j, _, a, b in terms if j))
        w0 = w.value(s, 0.0) if start is None else start
        w1 = w.value(t, 0.0)
        qdot = h.kinetic_coefficient * p
        mean = sum(a for j, _, a, _ in terms if j == 0)
        action = (0.5 * qdot * p - h.constant_offset - mean) * (t - s) - (w1 - w0)
        return q + (t - s) * qdot, p, action, w1

    def jet(self, h, t, q):
        return h.potential.jet(t, q, ((0, 1), (0, 0)))

    def qdot_and_value(self, h, p, jet):
        """(dH/dp, H) at momentum p and position jet `jet`."""
        p = np.asarray(p)
        return h.kinetic_coefficient * p, 0.5 * h.kinetic_coefficient * p**2 + jet[1] + h.constant_offset

    def value(self, h, t, q, p):
        return (
            0.5 * h.kinetic_coefficient * np.asarray(p) ** 2
            + h.potential.value(t, q)
            + h.constant_offset
        )

    def vector_field(self, h, t, q, p):
        """(dH/dp, -dH/dq) at (t, q, p), with dH/dq = dV/dq + 0 p in p's shape;
        Python floats for floats."""
        (v_q,) = h.potential.jet(t, q, ((0, 1),))
        return h.kinetic_coefficient * p, -(v_q + 0.0 * p)

    def legendre(self, h, t, q, v):
        """(L, p) at velocity v: L = v^2/(2k) - V - offset, p = v / k."""
        k = h.kinetic_coefficient
        return v * v / (2.0 * k) - h.potential.value(t, q) - h.constant_offset, v / k

    def segment_lagrangian(self, h, taus, qa, qb, v):
        """Sum over i of L(taus[i], qa[i][:, None] + qb[i][None, :], v)."""
        kinetic = v * v / (2.0 * h.kinetic_coefficient) - h.constant_offset
        return len(taus) * kinetic - h.potential.outer_sum(taus, qa, qb)

    def step(self, h, q, p, jet, dt, t1):
        """Advance (q, p) by dt to time t1, reading dV/dq = jet[0] at the
        start; returns q1, p1 and the jet at (t1, q1). Symplectic, order 2."""
        p1 = p - (0.5 * dt) * jet[0]
        q1 = q + dt * h.kinetic_coefficient * p1
        jet1 = self.jet(h, t1, q1)
        p1 -= (0.5 * dt) * jet1[0]
        return q1, p1, jet1


class _ShiftedQuadratic:
    """Shifted-quadratic family; its flow is free in the shear frame."""

    def solvable(self, h):
        return True

    def flow(self, h, q, p, s, t, start=None):
        """Flow from time s to t. In the shear frame P = p - du/dq the flow is
        free, qdot = P + drift, and p qdot - H = P^2/2 - offset + d/dt u(t, q(t)),
        so the action is (P^2/2 - offset)(t - s) + u(t, q1) - u(s, q). Returns
        q1, p1, the action and (du/dq, u) at (t, q1), the `start` of a call
        continuing from there."""
        u = h.shift_profile
        u_q, u0 = u.jet(s, q, ((0, 1), (0, 0))) if start is None else start
        big_p = p - u_q
        qdot = big_p + h.drift
        q1 = q + (t - s) * qdot
        end = u.jet(t, q1, ((0, 1), (0, 0)))
        action = (0.5 * big_p**2 - h.constant_offset) * (t - s) + (end[1] - u0)
        return q1, big_p + end[0], action, end

    def value(self, h, t, q, p):
        u_q, u_t = h.shift_profile.jet(t, q, ((0, 1), (1, 0)))
        r = np.asarray(p) - u_q
        return 0.5 * r**2 + h.drift * r - u_t + h.constant_offset

    def vector_field(self, h, t, q, p):
        """(dH/dp, -dH/dq) at (t, q, p) from one jet pass: dH/dp = p - du/dq +
        drift, dH/dq = -dH/dp d2u/dq2 - d2u/dtdq; Python floats for floats."""
        u_q, u_qq, u_tq = h.shift_profile.jet(t, q, ((0, 1), (0, 2), (1, 1)))
        qdot = (p - u_q) + h.drift
        return qdot, -(-qdot * u_qq - u_tq)

    def legendre(self, h, t, q, v):
        """(L, p) at velocity v, from one jet pass: L = du/dq v + (v - drift)^2/2
        + du/dt - offset, p = du/dq + v - drift."""
        u_q, u_t = h.shift_profile.jet(t, q, ((0, 1), (1, 0)))
        return u_q * v + 0.5 * (v - h.drift) ** 2 + u_t - h.constant_offset, u_q + (v - h.drift)

    def segment_lagrangian(self, h, taus, qa, qb, v):
        """Sum over i of L(taus[i], qa[i][:, None] + qb[i][None, :], v)."""
        u = h.shift_profile
        kinetic = 0.5 * (v - h.drift) ** 2 - h.constant_offset
        return len(taus) * kinetic + v * u.outer_sum(taus, qa, qb, 0, 1) + u.outer_sum(taus, qa, qb, 1, 0)


def _autonomy_sample():
    """The (q, p) sample, an 8 x 5 grid, and the times at which a custom
    callable's time dependence and its complex steps are checked."""
    q, p = np.meshgrid(np.arange(8) / 8, np.linspace(-2.0, 2.0, 5))
    return (0.1, 0.4, 0.7), q, p


class _Custom:
    """Custom callables: complex-step first derivatives (one complex
    evaluation each), the maximizer by bisection, no native step (the
    Dormand-Prince pair in flow.py steps them)."""

    step = None

    def solvable(self, h):
        return False

    def check(self, h):
        """Raise NotComplexAnalytic unless the complex-step dH/dp, dH/dq and
        dH/dt match central differences (step 1e-6) to 1e-6 of
        1 + |H| + |difference| on the autonomy sample: a callable that drops
        imaginary parts (abs, comparisons, float()) or rejects them fails."""
        need = "custom Hamiltonian callables must accept complex arguments and carry their imaginary parts through"
        e = 1e-6
        times, q, p = _autonomy_sample()
        for t in times:
            value = h.custom_fn(t, q, p)
            for name, partial, up, down in (
                ("p", self.dH_dp, (t, q, p + e), (t, q, p - e)),
                ("q", self.dH_dq, (t, q + e, p), (t, q - e, p)),
                ("t", self.dH_dt, (t + e, q, p), (t - e, q, p)),
            ):
                try:
                    got = partial(h, t, q, p)
                except TypeError as exc:
                    raise NotComplexAnalytic(f"{need}; a complex {name} raised TypeError: {exc}") from exc
                want = (h.custom_fn(*up) - h.custom_fn(*down)) / (2 * e)
                bad = np.argwhere(~(np.abs(got - want) <= 1e-6 * (1 + np.abs(value) + np.abs(want))))
                if len(bad):
                    i = tuple(bad[0])
                    raise NotComplexAnalytic(
                        f"{need}; at t={t}, q={q[i]}, p={p[i]} the complex step gives "
                        f"dH/d{name} = {float(got[i])!r}, a central difference {float(want[i])!r}"
                    )

    def value(self, h, t, q, p):
        return h.custom_fn(t, q, p)

    def dH_dp(self, h, t, q, p):
        return np.imag(h.custom_fn(t, q, p + COMPLEX_STEP * 1j)) / COMPLEX_STEP

    def dH_dq(self, h, t, q, p):
        return np.imag(h.custom_fn(t, q + COMPLEX_STEP * 1j, p)) / COMPLEX_STEP

    def dH_dt(self, h, t, q, p):
        return np.imag(h.custom_fn(t + COMPLEX_STEP * 1j, q, p)) / COMPLEX_STEP

    def vector_field(self, h, t, q, p):
        """(dH/dp, -dH/dq) at (t, q, p): two complex evaluations."""
        return self.dH_dp(h, t, q, p), -self.dH_dq(h, t, q, p)

    def legendre(self, h, t, q, v):
        """p v - H(t, q, p) at the maximizer p, and p. dH/dp increases in p for
        a Tonelli H, so halving the momentum box on the sign of
        H(p + e) - H(p - e) - 2 e v brackets the root of dH/dp = v, or the
        nearer edge. e is 1e-4: at 1e-6, rounding in the difference
        (eps |H| / e) would move p by ~1e-8 where |H| is 50. The sign test
        needs only real evaluations, so it stays a difference, not a complex
        step. One point is a 1-element array, so batch and scalar values agree
        bitwise."""
        e = 1e-4
        q, v = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
        shape = v.shape
        q, v = q.reshape(-1), v.reshape(-1)
        lo, hi = h.momentum_box
        p = np.full(v.shape, 0.5 * (lo + hi))  # the middle of the bracket
        half = 0.25 * (hi - lo)
        steps = np.array([[e], [-e]])
        slope = 2.0 * e * v
        for _ in range(MAXIMIZER_HALVINGS):
            up, down = h.custom_fn(t, q, p + steps)
            p += np.where(up - down < slope, half, -half)
            half *= 0.5
        return (p * v - h.custom_fn(t, q, p)).reshape(shape), p.reshape(shape)

    def segment_lagrangian(self, h, taus, qa, qb, v):
        """Sum over i of L(taus[i], qa[i][:, None] + qb[i][None, :], v), point by point."""
        acc = np.zeros(np.shape(v))
        for tau, a, b in zip(taus, qa, qb):
            acc += self.legendre(h, float(tau), a[:, None] + b[None, :], v)[0]
        return acc


_FAMILY_OPS = {
    Family.MECHANICAL: _Mechanical(),
    Family.SHIFTED_QUADRATIC: _ShiftedQuadratic(),
    Family.CUSTOM: _Custom(),
}


@dataclass(frozen=True)
class TonelliHamiltonian:
    """Closed-form Hamiltonian family, 1-periodic in time and position.

    mechanical:        H = kinetic/2 * p^2 + V(t,q) + offset
    shifted_quadratic: H = (p - du/dq)^2 / 2 + drift*(p - du/dq) - du/dt + offset
                       with shift profile u(t,q); u then solves
                       du/dt + H(t, q, du/dq) = offset identically.
    custom:            user callable H(t,q,p), smooth in p, with a declared
                       momentum search box for the conjugacy. It must accept
                       complex arguments and be analytic in them (numpy's
                       polynomials, cos, sin and exp are; abs, comparisons
                       and float() are not): its first derivatives are
                       complex steps, checked against central differences
                       at construction, which raises NotComplexAnalytic.

    `ops` is the family's object; its methods take the Hamiltonian first. It
    is not a field, so hashing and equality ignore it. dH_dq reads its
    vector_field. The kinetic coefficient, drift and offset are finite.
    """

    family: Family = Family.MECHANICAL
    kinetic_coefficient: float = 1.0
    potential: TrigPolynomial = field(default_factory=TrigPolynomial)
    shift_profile: TrigPolynomial = field(default_factory=TrigPolynomial)
    drift: float = 0.0
    constant_offset: float = 0.0
    custom_fn: Callable[[float, float, float], float] | None = None
    momentum_box: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        if not 0 < self.kinetic_coefficient < math.inf:
            raise ValueError(f"kinetic coefficient must be positive and finite, got {self.kinetic_coefficient}")
        if not math.isfinite(self.drift):  # a single step starts at the winding nearest drift * span
            raise ValueError(f"drift must be finite, got {self.drift}")
        if not math.isfinite(self.constant_offset):
            raise ValueError(f"offset must be finite, got {self.constant_offset}")
        if self.family is Family.CUSTOM and self.custom_fn is None:
            raise ValueError("custom family requires a callable")
        object.__setattr__(self, "ops", _FAMILY_OPS[self.family])
        if self.family is Family.CUSTOM:
            self.ops.check(self)

    def value(self, t, q, p):
        return self.ops.value(self, t, q, p)

    def dH_dq(self, t, q, p):
        return -self.ops.vector_field(self, t, q, p)[1]

    @property
    def autonomous(self) -> bool:
        """Whether H does not depend on t. Exact for the closed forms: no term
        has both a time harmonic and a nonzero coefficient. A custom callable
        counts as autonomous when dH/dt is exactly 0 on an 8 x 5 (q, p) sample
        at t = 0.1, 0.4 and 0.7."""
        if self.family is Family.CUSTOM:
            times, q, p = _autonomy_sample()
            return all(np.all(self.ops.dH_dt(self, t, q, p) == 0.0) for t in times)
        terms = (*self.potential.terms, *self.shift_profile.terms)
        return not any(j != 0 and (a != 0.0 or b != 0.0) for j, _, a, b in terms)


def legendre_transform(h: TonelliHamiltonian, t: float, q: float, v: float) -> LagrangianFnValue:
    """Convex conjugate L(t,q,v) = sup_p (p v - H) with its maximizer.

    Closed form for the mechanical and shifted-quadratic families; bisection
    on dH/dp for custom callables, which raise MaximizerNotFound when the
    maximizer lies within 1e-6 of the box width from a momentum-box edge.
    """
    value, p = (float(x) for x in h.ops.legendre(h, t, q, v))
    lo, hi = h.momentum_box
    if h.family is Family.CUSTOM and min(p - lo, hi - p) <= 1e-6 * (hi - lo):
        raise MaximizerNotFound(f"no interior Legendre maximizer in the momentum box at v={v}")
    return LagrangianFnValue(value, p)


def fenchel_gap(h: TonelliHamiltonian, t: float, q: float, v: float, p: float) -> float:
    """H(t,q,p) + L(t,q,v) - p*v; nonnegative, zero iff p is conjugate to v."""
    lag = legendre_transform(h, t, q, v)
    return float(h.value(t, q, p) + lag.value - p * v)


def mechanical(potential_terms: Sequence[Sequence[float]] = (), kinetic: float = 1.0, offset: float = 0.0) -> TonelliHamiltonian:
    """Convenience constructor for the mechanical family."""
    return TonelliHamiltonian(
        family=Family.MECHANICAL,
        kinetic_coefficient=kinetic,
        potential=TrigPolynomial.from_coeffs(potential_terms),
        constant_offset=offset,
    )


def shifted_quadratic(shift_terms: Sequence[Sequence[float]], drift: float = 0.0, offset: float = 0.0) -> TonelliHamiltonian:
    """Convenience constructor for the manufactured shifted-quadratic family."""
    return TonelliHamiltonian(
        family=Family.SHIFTED_QUADRATIC,
        shift_profile=TrigPolynomial.from_coeffs(shift_terms),
        drift=drift,
        constant_offset=offset,
    )


def free_hamiltonian() -> TonelliHamiltonian:
    return mechanical(())


def pendulum() -> TonelliHamiltonian:
    """H = p^2/2 + cos(2 pi q)."""
    return mechanical([(0, 1, 1.0, 0.0)])
