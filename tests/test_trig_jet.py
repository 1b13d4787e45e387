import math

import numpy as np
from hypothesis import given, settings, strategies as st

from birkhoff_lab.hamiltonians import MAX_HARMONIC, TWO_PI, TrigPolynomial, wrap_unit

ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]  # total degree <= 2

harmonic = st.integers(-MAX_HARMONIC, MAX_HARMONIC)
coefficient = st.floats(-2, 2, allow_nan=False)
terms = st.lists(st.tuples(harmonic, harmonic, coefficient, coefficient), max_size=5)
coordinate = st.floats(-3, 3, allow_nan=False)


def _bits(x):
    return type(x), np.shape(x), np.asarray(x, dtype=float).tobytes()


def _reference_deriv(poly, t, q, nt, nq):
    """The (nt, nq)-th derivative one order at a time: the term loop that
    evaluated a trig polynomial before jets."""
    tm = wrap_unit(np.asarray(t, dtype=float))
    qm = wrap_unit(np.asarray(q, dtype=float))
    out = np.zeros(np.broadcast(tm, qm).shape)
    n = nt + nq
    for j, k, a, b in poly.terms:
        fac = (TWO_PI**n) * (j**nt) * (k**nq)
        aa, bb = a, b
        for _ in range(n):
            aa, bb = bb, -aa
        theta = TWO_PI * (j * tm + k * qm)
        out = out + fac * (aa * np.cos(theta) + bb * np.sin(theta))
    return float(out) if out.ndim == 0 else out


@st.composite
def points(draw):
    """(t, q): each a float or an array of one common length."""
    n = draw(st.integers(1, 5))
    t, q = (
        draw(st.one_of(coordinate, st.lists(coordinate, min_size=n, max_size=n).map(np.array)))
        for _ in range(2)
    )
    return t, q


@settings(max_examples=200, deadline=None)
@given(terms, points(), st.lists(st.sampled_from(ORDERS), min_size=1, max_size=6))
def test_jet_is_deriv_bitwise(coeffs, point, orders):
    poly = TrigPolynomial.from_coeffs(coeffs)
    t, q = point
    jet = poly.jet(t, q, orders)
    assert len(jet) == len(orders)
    for got, (nt, nq) in zip(jet, orders):
        assert _bits(got) == _bits(poly.deriv(t, q, nt, nq))
        assert _bits(got) == _bits(_reference_deriv(poly, t, q, nt, nq))


def test_jet_of_empty_polynomial_matches_deriv():
    poly = TrigPolynomial()
    for t, q in [(0.3, 0.2), (0.3, np.zeros(4)), (np.zeros((2, 1)), np.zeros(3))]:
        jet = poly.jet(t, q, ORDERS[:2])
        for got, (nt, nq) in zip(jet, ORDERS):
            assert _bits(got) == _bits(poly.deriv(t, q, nt, nq))
        if np.ndim(q):
            assert jet[0] is not jet[1]  # no shared output array


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-0.0, 0.0, -1.0, math.nextafter(1.0, 0.0), -5e-324, 2.0**53 + 2.0])))
def test_wrap_unit_of_a_float_is_the_array_path_bitwise(x):
    # a finite Python float takes the float path and returns a Python float,
    # with the bits of the array path, -0.0 too
    got = wrap_unit(x)
    assert type(got) is float
    assert np.array([got]).tobytes() == wrap_unit(np.array([x])).tobytes()
