"""Tests of the benchmark's span arithmetic and binding management.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Target, Tracer  # noqa: E402


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def _fake_package(monkeypatch):
    """A package `fakepkg` whose `b` module re-binds `a.inner` as `b.inner`."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def inner(x):
        return a.leaf(x) + a.leaf(x)

    def outer(x):
        return b.inner(x) * 2 + b.inner(x)

    a.leaf, a.inner = leaf, inner
    b.inner, b.outer = inner, outer
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_self_time_of_nested_calls(monkeypatch):
    a, b = _fake_package(monkeypatch)
    # outer [0, 20]; inner [1, 8] with leaves [2, 3] and [4, 6];
    # inner [10, 15] with leaves [11, 12] and [13, 14.5]
    ticks = [0, 1, 2, 3, 4, 6, 8, 10, 11, 12, 13, 14.5, 15, 20]
    tracer = Tracer("fakepkg", [Target("a", "leaf"), Target("a", "inner"), Target("b", "outer")],
                    clock=ScriptedClock(ticks))
    tracer.install()
    try:
        assert b.outer(1) == 12
    finally:
        tracer.restore()
    t = tracer.table()
    names = [tracer.names[i] for i in t["name_id"]]
    assert names == ["b.outer", "a.inner", "a.leaf", "a.leaf", "a.inner", "a.leaf", "a.leaf"]
    assert list(t["parent"]) == [-1, 0, 1, 1, 0, 4, 4]
    np.testing.assert_allclose(t["self"], [8, 4, 1, 2, 2.5, 1, 1.5])
    assert list(t["has_children"]) == [True, True, False, False, True, False, False]
    assert list(t["root"]) == [0] * 7


def test_roots_of_consecutive_top_level_calls(monkeypatch):
    a, b = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg", [Target("a", "leaf"), Target("b", "outer")])
    tracer.install()
    b.outer(0)
    a.leaf(0)
    b.outer(0)
    tracer.restore()
    assert list(tracer.table()["root"]) == [0, 0, 0, 0, 0, 5, 6, 6, 6, 6, 6]


def test_every_binding_is_wrapped_and_restored(monkeypatch):
    a, b = _fake_package(monkeypatch)
    originals = (a.leaf, a.inner, b.inner, b.outer)
    tracer = Tracer("fakepkg", [Target("a", "inner", lambda arguments, out: out + arguments["x"])])
    tracer.install()
    assert a.inner is b.inner and a.inner is not originals[1]
    b.outer(3)
    assert list(tracer.table()["work"]) == [11.0, 11.0]
    tracer.restore()
    assert (a.leaf, a.inner, b.inner, b.outer) == originals


def test_paused_tracer_records_nothing(monkeypatch):
    a, b = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg", [Target("a", "leaf")])
    tracer.install()
    tracer.paused = True
    b.outer(0)
    tracer.restore()
    assert len(tracer.table()["start"]) == 0


def test_methods_and_library_bindings():
    import birkhoff_lab
    from birkhoff_lab import cli, flow
    from birkhoff_lab.hamiltonians import TrigPolynomial

    before = (flow.trajectory, cli.trajectory, TrigPolynomial.deriv)
    tracer = Tracer(birkhoff_lab.__name__, [Target("flow", "trajectory"),
                                            Target("hamiltonians", "TrigPolynomial.deriv")])
    tracer.install()
    try:
        assert cli.trajectory is flow.trajectory and flow.trajectory is not before[0]
        TrigPolynomial.from_coeffs([(0, 1, 1.0, 0.0)]).value(0.0, 0.25)
    finally:
        tracer.restore()
    assert (flow.trajectory, cli.trajectory, TrigPolynomial.deriv) == before
    assert [tracer.names[i] for i in tracer.table()["name_id"]] == ["hamiltonians.TrigPolynomial.deriv"]
