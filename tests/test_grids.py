import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from birkhoff_lab.grids import GridFunction, grid_from_trig, periodic_spline
from birkhoff_lab.hamiltonians import TrigPolynomial
from birkhoff_lab.reports import grid_to_csv


def test_resolution_power_of_two():
    GridFunction(np.zeros(64))
    with pytest.raises(ValueError):
        GridFunction(np.zeros(100))
    with pytest.raises(ValueError):
        GridFunction(np.zeros((64, 48)))
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, np.inf]))


def test_grid_is_one_dimensional():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((8, 8)))


def test_spectral_derivative_exact_for_trig():
    poly = TrigPolynomial.from_coeffs([(0, 3, 0.2, -0.4)])
    g = grid_from_trig(poly, 64)
    qs = g.nodes
    expected = poly.deriv(0.0, qs, 0, 1)
    assert np.max(np.abs(g.spectral_derivative() - expected)) <= 1e-12


def test_central_derivative_second_order():
    errs = []
    for n in (64, 128):
        g = grid_from_trig(TrigPolynomial.from_coeffs([(0, 1, 0.0, 1.0)]), n)
        d = g.central_derivative()
        errs.append(np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * g.nodes))))
    assert errs[1] <= errs[0] / 3.5


def test_periodic_spline_eval():
    g = grid_from_trig(TrigPolynomial.from_coeffs([(0, 2, 0.5, 0.0)]), 128)
    xs = np.array([0.013, 0.49, 0.731, 0.999])
    assert np.max(np.abs(g.eval(xs) - 0.5 * np.cos(4 * np.pi * xs))) <= 5e-7
    assert g.eval(0.25 + 1.0) == pytest.approx(float(g.eval(0.25)), abs=1e-12)


def _spline_case(n, rows, seed, scale, offset):
    """N(0, 1) samples times `scale` plus `offset`, one row or `rows` stacked,
    and abscissae: random points, every node, 0, the float below 1, and 1."""
    rng = np.random.default_rng(seed)
    y = scale * rng.normal(size=(n,) if rows is None else (rows, n)) + offset
    x = np.concatenate([rng.uniform(size=200), np.arange(n) / n, [0.0, np.nextafter(1.0, 0.0), 1.0]])
    return y, x


# the largest |numpy - scipy| over 40 000 random cases of this strategy was
# 6.1 eps max|y| for values and 19.1 eps n max|y| for first derivatives;
# on N(0, 1) data each spline alone stayed within 4 and 10 of a long-double solve
SPLINE_VALUE_C = 10.0
SPLINE_SLOPE_C = 32.0


@given(
    n=st.sampled_from([16, 256, 1024]),
    rows=st.none() | st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    offset=st.floats(-1e3, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_periodic_spline_matches_scipy(n, rows, seed, scale, offset):
    y, x = _spline_case(n, rows, seed, scale, offset)
    ours = periodic_spline(y)
    knots = np.append(np.arange(n) / n, 1.0)
    oracle = CubicSpline(knots, np.concatenate([y, y[..., :1]], axis=-1), axis=-1, bc_type="periodic")
    unit = np.finfo(float).eps * np.max(np.abs(y))
    for nu, bound in ((0, SPLINE_VALUE_C * unit), (1, SPLINE_SLOPE_C * unit * n)):
        got, want = ours(x, nu), oracle(x, nu)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound
    # it interpolates: every node returns its sample
    assert np.array_equal(ours(np.arange(n) / n), y)


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_stacked_spline_is_the_per_row_splines_bitwise(n):
    y, x = _spline_case(n, 9, n, 1.0, 0.0)
    stacked = periodic_spline(y)
    for nu in (0, 1):
        got = stacked(x, nu)
        for k, row in enumerate(y):
            assert np.array_equal(got[k], periodic_spline(row)(x, nu))
        # a scalar abscissa gives one value per row
        assert np.array_equal(stacked(float(x[0]), nu), got[:, 0])


def test_csv_roundtrip_1d(tmp_path):
    g = grid_from_trig(TrigPolynomial.from_coeffs([(0, 1, 0.3, 0.7)]), 32)
    path = tmp_path / "g.csv"
    grid_to_csv(g, path)
    with open(path) as fh:
        assert fh.readline().strip() == "index,q,value"
    values = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
    assert np.array_equal(g.values, values)
