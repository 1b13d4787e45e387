import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from birkhoff_lab.errors import UnsupportedIndex
from birkhoff_lab.spectral import (
    FIBER_HALFWIDTH,
    SHELL_FRACTION,
    Certificate,
    SampledFqi,
    fiber_selector,
    fibred_sum_fqi,
    fqi_from_csv,
    fqi_to_csv,
    global_invariants,
    negate,
    _bracket_cells,
    sample_fqi,
    selector_difference_bounds,
    selector_function,
    spectral_top,
    spectral_unit,
    sublevel_percolation_threshold,
    sum_additivity_check,
)


def trig(coeffs):
    def f(q):
        out = 0.0
        for k, (a, b) in enumerate(coeffs, start=1):
            out = out + a * np.cos(2 * np.pi * k * q) + b * np.sin(2 * np.pi * k * q)
        return out

    return f


def test_pure_quadratic_min():
    s = sample_fqi(lambda x: x**2, (1,))
    sv = spectral_unit(s)
    assert sv.value == 0.0
    assert sv.certificate is Certificate.GLOBAL_MIN
    assert s.values[sv.witness] == s.values.min()


def test_pure_saddle_threshold_zero():
    s = sample_fqi(lambda x, y: x**2 - y**2, (1, -1))
    sv = spectral_unit(s)
    assert sv.value == 0.0
    assert sv.certificate is Certificate.PERCOLATION_THRESHOLD
    # the joining cell is a grid saddle: a weakly lower and a weakly higher axis neighbour
    v, idx = s.values, sv.witness
    assert v[idx] == sv.value
    neighbours = [
        v[idx[:ax] + (idx[ax] + d,) + idx[ax + 1:]]
        for ax in range(v.ndim)
        for d in (-1, 1)
        if 0 <= idx[ax] + d < v.shape[ax]
    ]
    assert min(neighbours) <= sv.value <= max(neighbours)


def test_negative_quadratic_top():
    s = sample_fqi(lambda x: -(x**2), (-1,))
    assert spectral_top(s).value == 0.0


def test_bump_on_saddle_matches_fine_brute_force():
    f = lambda x, y: x**2 - y**2 + np.exp(-(x**2 + y**2))
    coarse = spectral_unit(sample_fqi(f, (1, -1))).value
    fine = spectral_unit(sample_fqi(f, (1, -1), fiber_resolution=513)).value
    step = 8.0 / 128
    assert abs(coarse - fine) <= step
    assert coarse == pytest.approx(1.0, abs=step)


def test_duality_involution_bitwise():
    f = lambda x, y: x**2 - y**2 + 0.7 * np.exp(-(x**2 + y**2)) + 0.1 * np.sin(x)
    s = sample_fqi(f, (1, -1))
    assert spectral_top(s).value == -spectral_unit(negate(s)).value


def test_unsupported_index():
    s = sample_fqi(lambda x, y: -(x**2) - y**2, (-1, -1))
    with pytest.raises(UnsupportedIndex):
        spectral_unit(s)
    with pytest.raises(UnsupportedIndex):
        spectral_top(negate(s))


def test_fiber_selector_reductions():
    f = trig([(0.3, 0.1), (0.0, -0.2)])
    qs = np.arange(32) / 32
    s_min = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=32, fiber_resolution=65)
    s_max = sample_fqi(lambda q, x: -(x**2) + f(q), (-1,), base_resolution=32, fiber_resolution=65)
    s_sad = sample_fqi(
        lambda q, x, y: x**2 - y**2 + f(q), (1, -1), base_resolution=32, fiber_resolution=33
    )
    for s, tol in ((s_min, 1e-12), (s_max, 1e-12), (s_sad, 8.0 / 32)):
        vals = np.array([fiber_selector(s, i) for i in range(32)])
        assert np.max(np.abs(vals - f(qs))) <= tol


def test_fiber_selector_duality_exact():
    f = trig([(0.2, -0.3)])
    for sig, fn in [
        ((1,), lambda q, x: x**2 + f(q)),
        ((-1,), lambda q, x: -(x**2) + f(q)),
        ((1, -1), lambda q, x, y: x**2 - y**2 + f(q) + 0.3 * np.exp(-(x**2) - y**2)),
    ]:
        s = sample_fqi(fn, sig, base_resolution=16, fiber_resolution=33)
        m = negate(s)
        for i in range(16):
            assert fiber_selector(m, i) == -fiber_selector(s, i)


def test_selector_function_bounds_and_lipschitz():
    f = trig([(0.3, 0.1)])
    s = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=64, fiber_resolution=65)
    sel = selector_function(s)
    qs = np.arange(64) / 64
    assert np.max(np.abs(sel.values.values - f(qs))) <= 1e-12
    assert sel.bounds_ok is True
    assert (sel.unit, sel.top) == (spectral_unit(s), spectral_top(s)) == global_invariants(s)
    assert sel.unit.value == pytest.approx(float(f(qs).min()), abs=1e-12)
    assert sel.top.value == pytest.approx(float(f(qs).max()), abs=1e-12)
    assert sel.lipschitz <= 2 * np.pi * (0.3 + 0.1) + 1e-6
    flat = sample_fqi(lambda q, x: x**2 + 0 * q, (1,), base_resolution=32, fiber_resolution=65)
    self_sel = selector_function(flat)
    assert self_sel.values.oscillation() == 0.0
    assert self_sel.lipschitz == 0.0


def test_selector_oscillation_bounded_by_critical_oscillation():
    # index-0 instances: selector = fiberwise min; critical values of each
    # fiber include those minima, so Osc(selector) <= Osc over the critical
    # locus + 2 grid steps
    rng = np.random.default_rng(6)
    for _ in range(10):
        coeffs = [(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(2)]
        f = trig(coeffs)
        s = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=64, fiber_resolution=65)
        sel = selector_function(s)
        crit_osc = float(np.ptp([fiber_selector(s, i) for i in range(64)]))
        assert sel.values.oscillation() <= crit_osc + 2 * s.fiber_step


def test_selector_nonexpansive_under_perturbation():
    f = trig([(0.3, 0.0)])
    s = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=32, fiber_resolution=65)
    rng = np.random.default_rng(7)
    for _ in range(5):
        delta = rng.uniform(-0.2, 0.2, 32)
        pert = SampledFqi(
            values=s.values + delta[:, None],
            signature=s.signature,
            shell_enforced=False,
        )
        a = selector_function(s).values.values
        b = selector_function(pert).values.values
        assert np.max(np.abs(a - b)) <= np.max(np.abs(delta)) + 1e-12


def test_additivity_separable_cases():
    f, g = trig([(0.2, 0.1)]), trig([(-0.15, 0.25)])
    combos = [((1,), (1,)), ((1,), (-1,)), ((-1,), (1,)), ((-1,), (-1,))]
    for s1_sig, s2_sig in combos:
        s1 = sample_fqi(
            lambda q, x: s1_sig[0] * x**2 + f(q), s1_sig, base_resolution=16, fiber_resolution=33
        )
        s2 = sample_fqi(
            lambda q, x: s2_sig[0] * x**2 + g(q), s2_sig, base_resolution=16, fiber_resolution=33
        )
        rep = sum_additivity_check(s1, s2, 5)
        assert abs(rep.difference) <= 1e-12


def test_additivity_with_pure_quadratic_is_stabilization():
    f = trig([(0.2, 0.1)])
    s1 = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=16, fiber_resolution=33)
    q2 = sample_fqi(lambda q, x: x**2 + 0 * q, (1,), base_resolution=16, fiber_resolution=33)
    rep = sum_additivity_check(s1, q2, 3)
    assert rep.part_selectors[1] == 0.0
    assert abs(rep.difference) <= 1e-12


def test_difference_bounds_sandwich():
    f, g = trig([(0.2, 0.1)]), trig([(-0.1, 0.3)])
    s1 = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=32, fiber_resolution=33)
    s2 = sample_fqi(lambda q, x: x**2 + g(q), (1,), base_resolution=32, fiber_resolution=33)
    rep = selector_difference_bounds(s1, s2)
    assert rep.ok
    assert rep.lower == pytest.approx(rep.min_gap, abs=1e-9)
    assert rep.upper == pytest.approx(rep.max_gap, abs=1e-9)
    same = selector_difference_bounds(s1, s1)
    assert same.lower == pytest.approx(0.0, abs=1e-12)
    assert same.upper == pytest.approx(0.0, abs=1e-12)


def test_shell_enforced_by_construction():
    s = sample_fqi(
        lambda x, y: x**2 - y**2 + 3 * np.exp(-0.1 * (x**2 + y**2)), (1, -1), fiber_resolution=65
    )
    assert s.shell_error() <= 1e-9
    with pytest.raises(ValueError):
        SampledFqi(
            values=s.values + np.linspace(0, 1, 65)[:, None],
            signature=(1, -1),
            shell_enforced=True,
        )


def _full_mask_shell(s):
    """The shell as a full-grid mask with the quadratic part on every cell:
    the reference for SampledFqi._shell_slabs."""
    grids = s.fiber_grids()
    mask = np.zeros(s.fiber_shape, dtype=bool)
    for g in grids:
        mask |= np.abs(g) > SHELL_FRACTION * FIBER_HALFWIDTH
    q = sum(sig * g**2 for sig, g in zip(s.signature, grids))
    return np.broadcast_to(mask, s.values.shape), np.broadcast_to(q, s.values.shape)


_SHELL_CASES = [((1,), 9), ((-1,), 9), ((1, -1), 17), ((-1, -1), 9), ((1, 1, -1), 9), ((-1, 1, 1), 5)]


@pytest.mark.parametrize("base", [None, 8])
@pytest.mark.parametrize("signature, m", _SHELL_CASES)
def test_shell_slabs_match_the_full_mask(signature, m, base):
    shape = ((base,) if base else ()) + (m,) * len(signature)
    raw = SampledFqi(np.random.default_rng(m).uniform(-1, 1, shape), signature, shell_enforced=False)
    mask, quad = _full_mask_shell(raw)
    assert raw.shell_error() == float(np.max(np.abs(raw.values[mask] - quad[mask])))
    s = sample_fqi(lambda *args: raw.values, signature, base_resolution=base, fiber_resolution=m)
    assert s.values.tobytes() == np.where(mask, quad, raw.values).tobytes()


@pytest.mark.parametrize("base", [None, 4])
@pytest.mark.parametrize("where, cell", [
    ("corner", (0, 8, 0)), ("edge", (8, 0, 4)), ("face", (4, 4, 8)), ("interior", (3, 5, 4)),
])
def test_one_shell_cell_moved_is_refused(where, cell, base):
    s = sample_fqi(lambda *a: np.cos(a[-1]) + 0.5, (1, 1, -1), base_resolution=base, fiber_resolution=9)
    values = s.values.copy()
    values[(1,) * bool(base) + cell] += 1e-6
    if where == "interior":  # |xi| <= 3 on every axis: inside the shell
        SampledFqi(values, s.signature, shell_enforced=True)
        return
    with pytest.raises(ValueError, match="outer shell deviates"):
        SampledFqi(values, s.signature, shell_enforced=True)


def test_the_base_axis_is_read_off_the_array():
    # the axes before the fiber are the base: none or one, never two
    s = SampledFqi(np.zeros((4, 5)), (1,), shell_enforced=False)
    assert s.base_resolution == 4 and s.fiber_shape == (5,)
    assert SampledFqi(np.zeros(5), (1,), shell_enforced=False).base_resolution is None
    for shape, signature in (((2, 4, 5), (1,)), ((5,), (1, 1))):
        with pytest.raises(ValueError, match="at most one base axis"):
            SampledFqi(np.zeros(shape), signature, shell_enforced=False)
    with pytest.raises(TypeError):  # a positional base is refused, not read as shell_enforced
        SampledFqi(np.zeros((4, 5)), (1,), 4)


def test_percolation_base_connectivity():
    # ends connect through the cheapest base point: threshold = min f
    f = trig([(0.3, 0.2)])
    s = sample_fqi(
        lambda q, x, y: x**2 - y**2 + f(q), (1, -1), base_resolution=32, fiber_resolution=33
    )
    sv = spectral_unit(s)
    qs = np.arange(32) / 32
    assert sv.value == pytest.approx(float(f(qs).min()), abs=1e-12)
    assert selector_function(s).unit == sv


def test_percolation_one_dimensional_is_max():
    # index 1 on a 1-D fiber: the two ends connect once the level clears the
    # interior maximum
    s = sample_fqi(lambda x: -(x**2) + 0.7 * np.exp(-(x**2)), (-1,), fiber_resolution=129)
    val, witness = sublevel_percolation_threshold(s.values, 0, (False,))
    assert val == pytest.approx(0.7, abs=1e-6)
    assert witness == (64,)


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _neighbor_tables(shape: tuple[int, ...], periodic_axes: tuple[bool, ...]):
    size = int(np.prod(shape))
    arr = np.arange(size).reshape(shape)
    tables = []
    for k, per in enumerate(periodic_axes):
        for sign in (-1, +1):
            nb = np.full(shape, -1, dtype=np.int64)
            src = np.moveaxis(arr, k, 0)
            dst = np.moveaxis(nb, k, 0)
            if sign < 0:
                dst[1:] = src[:-1]
                if per:
                    dst[0] = src[-1]
            else:
                dst[:-1] = src[1:]
                if per:
                    dst[-1] = src[0]
            tables.append(nb.ravel())
    return tables


def _union_find_percolation(values, neg_axis, periodic_axes):
    """Reference threshold: insert cells one at a time into a union-find whose
    two sentinels stand for the two faces of neg_axis."""
    shape = values.shape
    size = int(np.prod(shape))
    flat = values.ravel()
    order = np.lexsort((np.arange(size), flat))
    tables = _neighbor_tables(shape, periodic_axes)

    face = np.zeros(shape, dtype=np.int8)
    lo = np.moveaxis(face, neg_axis, 0)
    lo[0] = 1
    lo[-1] = 2
    face_flat = face.ravel()

    uf = _UnionFind(size + 2)
    sentinel_a, sentinel_b = size, size + 1
    inserted = bytearray(size)
    for c in map(int, order):
        inserted[c] = 1
        for nb in tables:
            m = int(nb[c])
            if m >= 0 and inserted[m]:
                uf.union(c, m)
        f = face_flat[c]
        if f == 1:
            uf.union(c, sentinel_a)
        elif f == 2:
            uf.union(c, sentinel_b)
        if uf.find(sentinel_a) == uf.find(sentinel_b):
            return float(flat[c]), tuple(int(i) for i in np.unravel_index(c, shape))
    raise AssertionError("sentinels never connected; negative axis faces missing")


@st.composite
def _percolation_case(draw):
    ndim = draw(st.integers(1, 3))
    neg_axis = draw(st.integers(0, ndim - 1))
    shape = tuple(draw(st.integers(2 if k == neg_axis else 1, 9)) for k in range(ndim))
    periodic = tuple(k != neg_axis and draw(st.booleans()) for k in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.round(rng.uniform(-1, 1, shape), 1)  # one decimal: ties are common
    return values, neg_axis, periodic


@given(case=_percolation_case())
@settings(max_examples=300, deadline=None)
def test_percolation_matches_union_find_oracle(case):
    values, neg_axis, periodic = case
    assert sublevel_percolation_threshold(values, neg_axis, periodic) == _union_find_percolation(
        values, neg_axis, periodic
    )
    assert _bracket_cells(values, neg_axis) == _rank_bracket(values, neg_axis)[1]


@st.composite
def _saddle_case(draw):
    """A periodic base times two fiber axes: a smooth separable saddle, or one
    plus noise rounded to one decimal (ties are common), so the rank bracket
    both closes and stays open."""
    shape = tuple(draw(st.integers(lo, 17)) for lo in (1, 2, 2))
    neg_axis = draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, x, y = np.meshgrid(np.arange(shape[0]) / shape[0], *(np.linspace(-1, 1, m) for m in shape[1:]),
                          indexing="ij")
    a, b = rng.uniform(-0.5, 0.5, 2)
    values = a * np.cos(2 * np.pi * q) + b * np.sin(2 * np.pi * q) + (x**2 - y**2 if neg_axis == 2 else y**2 - x**2)
    if draw(st.booleans()):
        values = np.round(values + draw(st.sampled_from((0.1, 0.5, 2.0))) * rng.uniform(-1, 1, shape), 1)
    return values, neg_axis, (True, False, False)


@given(case=_saddle_case())
@settings(max_examples=200, deadline=None)
def test_percolation_on_saddles_matches_union_find_oracle(case):
    values, neg_axis, periodic = case
    assert sublevel_percolation_threshold(values, neg_axis, periodic) == _union_find_percolation(
        values, neg_axis, periodic
    )
    assert _bracket_cells(values, neg_axis) == _rank_bracket(values, neg_axis)[1]


def test_percolation_refuses_axes_that_break_the_bracket():
    values = np.zeros((3, 4))
    for periodic in ((False,), (False, False, False), (False, True)):
        with pytest.raises(ValueError):
            sublevel_percolation_threshold(values, 1, periodic)


def _rank_bracket(values, neg_axis):
    """The bracket's (lo, hi) ranks and the cells at them, from a full lexsort:
    the reference for _bracket_cells."""
    flat = values.ravel()
    order = np.lexsort((np.arange(flat.size), flat))
    rank = np.empty(flat.size, dtype=np.intp)
    rank[order] = np.arange(flat.size)
    slices = [np.take(rank.reshape(values.shape), i, axis=neg_axis).min() for i in range(values.shape[neg_axis])]
    lines = np.moveaxis(rank.reshape(values.shape), neg_axis, -1).reshape(-1, values.shape[neg_axis])
    lo, hi = max(slices), min(line.max() for line in lines)
    return (lo, hi), (int(order[lo]), int(order[hi]))


def test_percolation_probe_count(monkeypatch):
    import scipy.ndimage

    noise = np.random.default_rng(3).uniform(-1, 1, (65, 65))
    (lo, hi), _ = _rank_bracket(noise, 1)
    expected = _union_find_percolation(noise, 1, (False, False))
    probes, sorts = [], []
    label, lexsort = scipy.ndimage.label, np.lexsort
    monkeypatch.setattr(scipy.ndimage, "label", lambda mask: probes.append(1) or label(mask))
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    saddle = lambda x, y: x**2 - y**2 + np.exp(-(x**2 + y**2))
    global_invariants(sample_fqi(saddle, (1, -1), fiber_resolution=513))
    f, g = trig([(0.3, -0.1), (0.1, 0.2)]), trig([(-0.2, 0.25), (0.0, -0.1)])
    s1 = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=32, fiber_resolution=33)
    s2 = sample_fqi(lambda q, x: x**2 + g(q), (1,), base_resolution=32, fiber_resolution=33)
    total = fibred_sum_fqi(s1, s2, negate_second=True)
    assert total.values.shape == (32, 33, 33)
    selector_function(total)
    assert probes == [] and sorts == []  # both brackets closed on every call: no sort, no probe

    assert sublevel_percolation_threshold(noise, 1, (False, False)) == expected
    assert sorts == [1]
    assert 1 <= len(probes) <= np.ceil(np.log2(hi - lo + 1))


def test_fqi_csv_roundtrip(tmp_path):
    f = trig([(0.1, -0.2)])
    quadratic = {(1,): lambda x: x**2, (1, -1): lambda x, y: x**2 - y**2,
                 (1, 1, -1): lambda x, y, z: x**2 + y**2 - z**2}
    instances = []
    for signature, quad in quadratic.items():
        m = 17 if len(signature) < 3 else 5
        instances.append(sample_fqi(quad, signature, fiber_resolution=m))
        instances.append(sample_fqi(lambda q, *x: quad(*x) + f(q), signature, base_resolution=8, fiber_resolution=m))
    s1 = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=8, fiber_resolution=9)
    s2 = sample_fqi(lambda q, x: x**2 - f(q), (1,), base_resolution=8, fiber_resolution=11)
    instances.append(fibred_sum_fqi(s1, s2, negate_second=True))
    assert not instances[-1].shell_enforced
    for s in instances:
        path = tmp_path / "inst.csv"
        fqi_to_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "value" and len(lines) == 1 + np.prod(s.values.shape)
        back = fqi_from_csv(path)
        assert np.array_equal(back.values, s.values)
        assert back.signature == s.signature
        assert back.base_resolution == s.base_resolution
        assert back.shell_enforced == s.shell_enforced


def test_fqi_csv_header_names_every_fiber_axis(tmp_path):
    s = sample_fqi(lambda x, y, z: x**2 + y**2 - z**2, (1, 1, -1), fiber_resolution=5)
    path = tmp_path / "inst.csv"
    fqi_to_csv(s, path)
    header, *rows = path.read_text().splitlines()
    assert header == "value"  # the axes are named by the sidecar, not by index columns
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    assert meta["fiber_resolution"] == [5, 5, 5] and meta["signature"] == [1, 1, -1]
    assert np.array_equal(np.array(rows, dtype=float), s.values.ravel())  # C order
    assert np.array_equal(fqi_from_csv(path).values, s.values)


def test_base_resolution_must_be_a_power_of_two(tmp_path):
    # every other grid on T^1 is a power of two; a 30-point base ran all 30
    # fiber selectors and then failed on the selector's grid
    with pytest.raises(ValueError, match="base_resolution 30 is not a power of two"):
        sample_fqi(lambda q, x: x**2, (1,), base_resolution=30, fiber_resolution=9)
    path = tmp_path / "inst.csv"
    fqi_to_csv(sample_fqi(lambda q, x: x**2, (1,), base_resolution=32, fiber_resolution=9), path)
    meta_path = path.with_suffix(".meta.json")
    meta_path.write_text(meta_path.read_text().replace('"base_resolution": 32', '"base_resolution": 30'))
    with pytest.raises(ValueError) as raised:
        fqi_from_csv(path)
    assert str(raised.value) == f"{meta_path}: base_resolution must be null or a power of two, not 30"


def test_fibred_sum_not_shell_enforced():
    s1 = sample_fqi(lambda x: x**2, (1,), fiber_resolution=17)
    s2 = sample_fqi(lambda x: -(x**2), (-1,), fiber_resolution=17)
    total = fibred_sum_fqi(s1, s2)
    assert not total.shell_enforced
    assert total.signature == (1, -1)


def test_spectral_classes_build_no_instance(monkeypatch):
    f = trig([(0.3, -0.1)])
    s1 = sample_fqi(lambda q, x: x**2 + f(q), (1,), base_resolution=8, fiber_resolution=17)
    s2 = sample_fqi(lambda q, x: x**2 - f(q), (1,), base_resolution=8, fiber_resolution=15)
    saddle = sample_fqi(lambda x, y: x**2 - y**2 + np.exp(-(x**2 + y**2)), (1, -1), fiber_resolution=33)
    mixed = sample_fqi(lambda q, x, y, z: x**2 + y**2 - z**2 + f(q), (1, 1, -1), base_resolution=4,
                       fiber_resolution=5)
    sums = [fibred_sum_fqi(s1, s2, negate_second=flip) for flip in (False, True)]
    instances = [s1, negate(s1), saddle, negate(saddle), *sums, *map(negate, sums)]

    def fiber_oracle(s, i):
        """The selector of the fiber over point i taken as its own instance."""
        fq = SampledFqi(s.values[i] if s.base_resolution else s.values, s.signature, shell_enforced=False)
        return (spectral_top(fq) if fq.index == fq.fiber_dims or fq.signature == (-1, 1) else spectral_unit(fq)).value

    want = [[fiber_oracle(s, i) for i in range(s.base_resolution or 1)] for s in instances]
    built = []
    post_init = SampledFqi.__post_init__
    monkeypatch.setattr(SampledFqi, "__post_init__", lambda self: built.append(1) or post_init(self))
    for s, selectors in zip(instances, want):
        global_invariants(s)
        assert [fiber_selector(s, i) for i in range(s.base_resolution or 1)] == selectors
        if s.base_resolution:
            selector_function(s)
    with pytest.raises(UnsupportedIndex, match="fiber signature"):  # a mixed signature on k >= 3 axes
        fiber_selector(mixed, 0)
    assert built == []
    for flip in (False, True):
        total = fibred_sum_fqi(s1, s2, negate_second=flip)
        assert len(built) == 1 and (total.values == s1.values[:, :, None] + (-1) ** flip * s2.values[:, None, :]).all()
        built.clear()


@pytest.mark.parametrize("damage", [
    "extra column", "missing cell", "duplicate cell", "nan value", "inf value", "old-format header",
    "extra meta key",
])
def test_fqi_from_csv_rejects_damaged_files(tmp_path, damage):
    s = sample_fqi(lambda q, x: x**2 + 0.1 * np.sin(2 * np.pi * q), (1,), base_resolution=4, fiber_resolution=5)
    path = tmp_path / "inst.csv"
    fqi_to_csv(s, path)
    header, *rows = path.read_text().splitlines()
    head, cell, tail = rows[:12], rows[12], rows[13:]  # cell (2, 2), inside the shell
    if damage == "old-format header":
        header = "q_index,xi1_index,value"
    rows = {
        "extra column": head + [cell + ",0"] + tail,
        "missing cell": head + tail,  # one row short
        "duplicate cell": rows + [cell],  # one row over
        "nan value": head + ["nan"] + tail,
        "inf value": head + ["inf"] + tail,
    }.get(damage, rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    if damage == "extra meta key":
        meta = path.with_suffix(".meta.json")
        meta.write_text(meta.read_text().replace("{", '{"fiber_halfwidth": 4.0, ', 1))
    with pytest.raises(ValueError) as raised:
        fqi_from_csv(path)
    if damage in ("extra column", "nan value", "inf value"):  # cell (2, 2) is on line 14
        assert str(raised.value) == f"{path}: line 14 is not one finite float"
    if damage in ("missing cell", "duplicate cell", "old-format header"):
        assert str(path) in str(raised.value)
