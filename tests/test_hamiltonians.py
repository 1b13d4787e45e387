import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from birkhoff_lab.errors import MaximizerNotFound, NotComplexAnalytic
from birkhoff_lab.flow import FlowSettings, _RK4, integrate_batch
from birkhoff_lab.hamiltonians import (
    COMPLEX_STEP,
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
from birkhoff_lab.lax_oleinik import lagrangian_batch

SQ = shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3, offset=0.2)


def custom_quartic():
    return TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: p**4 / 4 + p**2 / 2 + 0.3 * np.cos(2 * np.pi * q) * (1 + 0.5 * np.cos(2 * np.pi * t)),
        momentum_box=(-10.0, 10.0),
    )


def test_eval_examples():
    assert float(free_hamiltonian().value(0, 0, 2)) == 2.0
    assert float(pendulum().value(0, 0, 0)) == 1.0
    sq0 = shifted_quadratic([], drift=0.0, offset=0.0)
    assert float(sq0.value(0, 0.3, 1)) == 0.5


def test_periodicity_bitwise():
    for h in (pendulum(), SQ):
        for t, q, p in [(0.125, 0.375, 0.7), (0.0, 0.5, -1.2), (0.625, 0.0625, 3.0)]:
            assert float(h.value(t + 1, q, p)) == float(h.value(t, q, p))
            assert float(h.value(t, q + 1, p)) == float(h.value(t, q, p))


def test_legendre_closed_forms():
    lag = legendre_transform(free_hamiltonian(), 0, 0, 1)
    assert lag.value == 0.5 and lag.optimal_momentum == 1.0
    lag = legendre_transform(pendulum(), 0, 0, 0)
    assert lag.value == -1.0
    # mechanical with an offset: L = v^2/2 - V - offset, p = v
    h = mechanical([(0, 1, 0.25, 0.0)], offset=0.1)
    lag = legendre_transform(h, 0.0, 0.0, 1.0)
    assert lag.value == pytest.approx(0.5 - 0.25 - 0.1, abs=1e-14)
    assert lag.optimal_momentum == 1.0


def test_legendre_custom_against_dense_grid():
    h = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.5 * p**2,
        momentum_box=(-10.0, 10.0),
    )
    lag = legendre_transform(h, 0.0, 0.0, 0.7)
    # frozen dense-grid maximization over p in [-10, 10]: max at p = 0.7
    assert lag.value == pytest.approx(0.245, abs=1e-10)
    assert lag.optimal_momentum == pytest.approx(0.7, abs=1e-6)


def test_legendre_custom_quartic_across_the_box():
    h = custom_quartic()
    # dH/dp = p^3 + p is +-738 at p = +-9, inside the box (-10, 10)
    for v in np.linspace(-738.0, 738.0, 201):
        lag = legendre_transform(h, 0.3, 0.7, float(v))
        assert fenchel_gap(h, 0.3, 0.7, float(v), lag.optimal_momentum) <= 1e-9


def test_custom_quartic_conjugate_matches_cardano():
    # dH/dp = p^3 + p, so the maximizer is the real root of p^3 + p = v:
    # p = a - 1/(3a) with a = cbrt(|v|/2 + sqrt(v^2/4 + 1/27)), signed as v
    h = custom_quartic()
    qs, vs = np.meshgrid([0.1, 0.45, 0.8], np.linspace(-738.0, 738.0, 201))
    a = np.cbrt(np.abs(vs) / 2 + np.sqrt(vs**2 / 4 + 1 / 27))
    p = np.copysign(a - 1 / (3 * a), vs)
    for t in (0.0, 0.3, 0.7):
        exact = p * vs - h.value(t, qs, p)
        assert np.all(np.abs(lagrangian_batch(h, t, qs, vs) - exact) <= 1e-12 * (1 + np.abs(exact)))
        assert np.max(np.abs(h.ops.legendre(h, t, qs, vs)[1] - p)) <= 1e-8


def test_legendre_custom_supremum_on_box_edge_raises():
    h = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: 0.5 * p**2,
        momentum_box=(-10.0, 10.0),
    )
    for v in (10.5, -10.5):  # the maximizer p = v lies outside the box
        with pytest.raises(MaximizerNotFound):
            legendre_transform(h, 0.0, 0.0, v)
    lag = legendre_transform(h, 0.0, 0.0, 9.9)
    assert lag.value == pytest.approx(49.005, abs=1e-9)
    assert lag.optimal_momentum == pytest.approx(9.9, abs=1e-9)


def test_legendre_involution_mechanical():
    h = mechanical([(0, 1, 0.3, 0.2), (0, 2, -0.1, 0.0)], offset=0.05)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t, q, p = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-3, 3)
        vs = np.linspace(p - 0.4, p + 0.4, 4001)
        vals = [p * v - legendre_transform(h, t, q, v).value for v in vs]
        assert max(vals) == pytest.approx(float(h.value(t, q, p)), abs=1e-9)


def test_fenchel_examples():
    h = free_hamiltonian()
    assert fenchel_gap(h, 0, 0, 1, 1) == 0.0
    assert fenchel_gap(h, 0, 0, 1, 0) == 0.5


def test_fenchel_gap_sweep_all_families():
    rng = np.random.default_rng(11)
    for h in (pendulum(), SQ, custom_quartic()):
        for _ in range(200):
            t, q = rng.uniform(0, 1), rng.uniform(0, 1)
            v, p = rng.uniform(-3, 3), rng.uniform(-3, 3)
            gap = fenchel_gap(h, t, q, v, p)
            assert gap >= -1e-12
            lag = legendre_transform(h, t, q, v)
            assert fenchel_gap(h, t, q, v, lag.optimal_momentum) <= 1e-9


@given(
    t=st.floats(0, 1), q=st.floats(0, 1),
    v=st.floats(-4, 4), p=st.floats(-4, 4),
)
@settings(max_examples=200, deadline=None)
def test_fenchel_gap_nonnegative_property(t, q, v, p):
    assert fenchel_gap(pendulum(), t, q, v, p) >= -1e-12


def test_shifted_solves_hamilton_jacobi():
    h = SQ
    worst = 0.0
    for t in np.linspace(0, 1, 17):
        for q in np.linspace(0, 1, 23):
            w = h.shift_profile.deriv(t, q, 0, 1)
            res = h.shift_profile.deriv(t, q, 1, 0) + float(h.value(t, q, w))
            worst = max(worst, abs(res - h.constant_offset))
    assert worst <= 1e-10


def test_trig_polynomial_derivatives():
    poly = TrigPolynomial.from_coeffs([(1, 2, 0.3, -0.4)])
    t, q, e = 0.21, 0.43, 1e-6
    for nt, nq in [(1, 0), (0, 1), (1, 1), (0, 2)]:
        if nt:
            approx = (poly.deriv(t + e, q, nt - 1, nq) - poly.deriv(t - e, q, nt - 1, nq)) / (2 * e)
        else:
            approx = (poly.deriv(t, q + e, nt, nq - 1) - poly.deriv(t, q - e, nt, nq - 1)) / (2 * e)
        assert approx == pytest.approx(poly.deriv(t, q, nt, nq), abs=1e-6, rel=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-3, 3, allow_nan=False),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6),
)
def test_trig_polynomial_scalar_matches_array_bitwise(t, qs):
    poly = TrigPolynomial.from_coeffs([(1, 2, 0.3, -0.4), (0, -1, 0.7, 0.2), (2, 0, -0.1, 0.5)])
    qs = np.array(qs)
    for nt, nq in [(0, 0), (0, 1), (1, 1), (0, 2), (2, 0)]:
        vec = poly.deriv(t, qs, nt, nq)
        one = np.array([poly.deriv(t, q, nt, nq) for q in qs.tolist()])
        assert type(poly.deriv(t, qs[0], nt, nq)) is float
        assert np.array_equal(vec, one)


def test_trig_polynomial_without_terms_keeps_shape():
    poly = TrigPolynomial()
    assert poly.deriv(0.3, 0.2) == 0.0 and type(poly.deriv(0.3, 0.2)) is float
    assert np.array_equal(poly.deriv(0.3, np.zeros(4), 0, 1), np.zeros(4))


def test_trig_polynomial_harmonic_cap():
    with pytest.raises(ValueError):
        TrigPolynomial.from_coeffs([(9, 0, 1.0, 0.0)])


@pytest.mark.parametrize("drift", [np.inf, -np.inf, np.nan])
def test_drift_must_be_finite(drift):
    # no winding is nearest an infinite or NaN drift * span
    with pytest.raises(ValueError, match="drift must be finite"):
        shifted_quadratic([], drift=drift)


@pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan])
def test_offset_must_be_finite(offset):
    with pytest.raises(ValueError, match="offset must be finite"):
        mechanical([], offset=offset)
    with pytest.raises(ValueError, match="offset must be finite"):
        shifted_quadratic([], offset=offset)


@pytest.mark.parametrize("a, b", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0)])
def test_trig_polynomial_coefficients_must_be_finite(a, b):
    with pytest.raises(ValueError, match=r"term \(2,1\) has a non-finite coefficient"):
        TrigPolynomial.from_coeffs([(0, 0, 1.0, 0.0), (2, 1, a, b)])


def test_custom_requires_callable():
    with pytest.raises(ValueError):
        TonelliHamiltonian(family=Family.CUSTOM)


def test_custom_derivatives_are_complex_steps():
    # no difference is taken, so the quartic's dH/dp = p^3 + p and
    # dH/dq = -0.6 pi sin(2 pi q)(1 + 0.5 cos(2 pi t)) come out to rounding
    h = custom_quartic()
    rng = np.random.default_rng(3)
    t, q, p = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), rng.uniform(-5, 5, 50)
    assert np.allclose(h.ops.dH_dp(h, t, q, p), p**3 + p, rtol=4 * np.finfo(float).eps, atol=0)
    want = -0.6 * np.pi * np.sin(2 * np.pi * q) * (1 + 0.5 * np.cos(2 * np.pi * t))
    assert np.allclose(h.dH_dq(t, q, p), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "fn, why",
    [
        # abs drops the imaginary part, so the complex-step dH/dp is 2p, not 3p|p| + 2p
        (lambda t, q, p: abs(p) ** 3 + p**2, "dH/dp"),
        # float() of a complex time raises TypeError
        (lambda t, q, p: 0.5 * p**2 + 0.1 * np.cos(2 * np.pi * q) * math.cos(2 * math.pi * float(t)), "TypeError"),
    ],
    ids=["abs", "float"],
)
def test_custom_callable_must_be_complex_analytic(fn, why):
    with pytest.raises(NotComplexAnalytic, match=f"must accept complex arguments.*{why}"):
        TonelliHamiltonian(family=Family.CUSTOM, custom_fn=fn)


def test_time_independent_callable_stays_autonomous():
    h = TonelliHamiltonian(family=Family.CUSTOM, custom_fn=lambda t, q, p: p**4 / 4 + 0.3 * np.cos(2 * np.pi * q))
    assert h.autonomous is True
    assert custom_quartic().autonomous is False


def test_autonomous_is_worked_out_once(monkeypatch):
    h = TonelliHamiltonian(family=Family.CUSTOM, custom_fn=lambda t, q, p: 0.5 * p**2)
    calls = []
    dH_dt = type(h.ops).dH_dt
    monkeypatch.setattr(type(h.ops), "dH_dt", lambda *a: calls.append(1) or dH_dt(*a))
    assert h.autonomous and h.autonomous
    assert len(calls) == 3  # the three sample times, on the first read only
    pend = pendulum()
    assert pend.autonomous
    assert pend == pendulum() and hash(pend) == hash(pendulum())  # not a field


def test_legendre_maximizer_not_found_for_concave():
    bad = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: -0.5 * p**2,
        momentum_box=(-10, 10),
    )
    with pytest.raises(MaximizerNotFound):
        legendre_transform(bad, 0.0, 0.0, 0.5)


CONTRACT_FAMILIES = {
    "mechanical_time_dependent": mechanical([(1, 1, 0.3, -0.2), (0, 2, 0.1, 0.05)], offset=0.1),
    "shifted_quadratic": shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3),
    "custom_quartic": custom_quartic(),
}


def _reference_field(h, t, q, p):
    """(dH/dp, -dH/dq) as each family wrote its partials before vector_field:
    one `deriv` call per trig derivative for the closed forms, one complex
    evaluation per partial for a custom callable."""
    if h.family is Family.MECHANICAL:
        return p, -(h.potential.deriv(t, q, 0, 1) + 0.0 * p)
    if h.family is Family.SHIFTED_QUADRATIC:
        u = h.shift_profile
        r = p - u.deriv(t, q, 0, 1)
        return r + h.drift, -(-(r + h.drift) * u.deriv(t, q, 0, 2) - u.deriv(t, q, 1, 1))
    step = COMPLEX_STEP * 1j
    return np.imag(h.custom_fn(t, q, p + step)) / COMPLEX_STEP, -(np.imag(h.custom_fn(t, q + step, p)) / COMPLEX_STEP)


@pytest.mark.parametrize("name", sorted(CONTRACT_FAMILIES))
def test_vector_field_matches_reference_bitwise(name):
    # arrays, lone Python floats (which a closed form keeps as floats), and
    # one (t, q) with an array of momenta, at points where dV/dq, du/dq or p
    # is a signed zero
    h = CONTRACT_FAMILIES[name]
    t, q, p = (a.ravel() for a in np.meshgrid([0.0, 0.3, 0.75], [0.0, 0.25, 0.5, 0.8], [-1.5, -0.0, 0.0, 2.0]))
    points = [(t, q, p), (0.3, 0.25, p)] + list(zip(t.tolist(), q.tolist(), p.tolist()))
    for point in points:
        got, want = h.ops.vector_field(h, *point), _reference_field(h, *point)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        if h.family is not Family.CUSTOM and all(type(x) is float for x in point):
            assert all(type(a) is float for a in got)


@pytest.mark.parametrize("name", sorted(CONTRACT_FAMILIES))
def test_family_contract(name, monkeypatch):
    h = CONTRACT_FAMILIES[name]
    rng = np.random.default_rng(5)
    t, q, p = rng.uniform(0, 1, 40), rng.uniform(0, 1, 40), rng.uniform(-2, 2, 40)
    e = 1e-5
    dp, minus_dq = h.ops.vector_field(h, t, q, p)
    assert np.allclose(dp, (h.value(t, q, p + e) - h.value(t, q, p - e)) / (2 * e), rtol=0, atol=1e-6)
    assert np.allclose(-minus_dq, (h.value(t, q + e, p) - h.value(t, q - e, p)) / (2 * e), rtol=0, atol=1e-6)
    if h.family is Family.CUSTOM:  # autonomous reads the custom dH/dt
        dt = h.ops.dH_dt(h, t, q, p)
        assert np.allclose(dt, (h.value(t + e, q, p) - h.value(t - e, q, p)) / (2 * e), rtol=0, atol=1e-6)
    e = 1e-4  # convexity in p, by second differences
    assert np.all(h.value(t, q, p + e) - 2.0 * h.value(t, q, p) + h.value(t, q, p - e) > 0)

    qs, vs = np.meshgrid([0.1, 0.45, 0.8], [-2.0, -0.7, 0.0, 0.6, 1.9])
    for tt in (0.0, 0.3, 0.7):
        batch = lagrangian_batch(h, tt, qs, vs)
        scalar = np.vectorize(lambda qq, vv: legendre_transform(h, tt, qq, vv).value)(qs, vs)
        assert np.array_equal(batch, scalar)

    # "auto" takes the family's closed-form flow, its stepper, or RK4 for
    # custom callables
    monkeypatch.setattr(FlowSettings, "substeps_per_macro", 2)
    q0, p0 = np.array([0.3, 0.6]), np.array([0.8, -0.4])
    auto = integrate_batch(h, q0, p0, 0.0, 0.01, FlowSettings(integrator="auto"))
    if h.family is Family.CUSTOM:
        expected = integrate_batch(h, q0, p0, 0.0, 0.01, FlowSettings(integrator="rk4"))
        assert np.array_equal(auto[0], expected[0]) and np.array_equal(auto[1], expected[1])
    elif h.ops.solvable(h):
        q1, p1, *_ = h.ops.flow(h, q0, p0, 0.0, 0.01)
        assert np.array_equal(auto[0], q1) and np.array_equal(auto[1], p1)
    else:
        stepper = h.ops.stepper(h, 0.0, q0, p0)
        q1, p1 = stepper.step(q0, p0, 0.0, 0.005, 0.005)
        q2, p2 = stepper.step(q1, p1, 0.005, 0.005, 0.01)
        assert np.array_equal(auto[0], q2) and np.array_equal(auto[1], p2)

    # every stepper that applies to the family: built at a start point, its
    # integrand there is p dH/dp - H, bitwise, and a step keeps the shape of
    # a batch and of a lone point
    for make in [s for s in (getattr(h.ops, "stepper", None), _RK4) if s is not None]:
        for q0, p0 in ((np.array([0.3, 0.6, 0.85]), np.array([0.8, -0.4, 1.1])), (np.array([0.3]), np.array([0.8]))):
            stepper = make(h, 0.2, q0, p0)
            want = h.ops.vector_field(h, 0.2, q0, p0)[0] * p0 - h.value(0.2, q0, p0)
            assert np.array_equal(stepper.integrand(0.2, q0, p0), want)
            q1, p1 = stepper.step(q0, p0, 0.2, 0.005, 0.205)
            q2, p2 = stepper.step(q1, p1, 0.205, 0.005, 0.21)
            assert all(type(x) is np.ndarray and x.shape == q0.shape for x in (q1, p1, q2, p2))
