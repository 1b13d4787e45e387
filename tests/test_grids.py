import numpy as np
import pytest

from birkhoff_lab.grids import GridFunction, grid_from_trig
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


def test_csv_roundtrip_1d(tmp_path):
    g = grid_from_trig(TrigPolynomial.from_coeffs([(0, 1, 0.3, 0.7)]), 32)
    path = tmp_path / "g.csv"
    grid_to_csv(g, path)
    with open(path) as fh:
        assert fh.readline().strip() == "index,q,value"
    values = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
    assert np.array_equal(g.values, values)
