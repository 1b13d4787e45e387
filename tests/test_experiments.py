import dataclasses
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from birkhoff_lab import cli, experiments, reports
from birkhoff_lab.curves import (
    LagrangianCurve,
    curve_from_csv,
    evolve,
    from_potential,
    graph_check,
    graph_selector,
)
from birkhoff_lab.experiments import (
    ExperimentConfig,
    ReportBundle,
    config_echo,
    grid_kink_mask,
    lax_spacetime,
    load_config,
    longest_nondecreasing_gap_run,
    one_period,
    parse_trig_coeffs,
    run_autonomous_invariance,
    run_iteration_experiment,
    run_recurrence_experiment,
)
from birkhoff_lab.grids import grid_from_trig
from birkhoff_lab.hamiltonians import (
    Family,
    TonelliHamiltonian,
    TrigPolynomial,
    free_hamiltonian,
    pendulum,
    shifted_quadratic,
)
from birkhoff_lab.lax_oleinik import lax_negative, lax_positive, potential
from birkhoff_lab.reports import emit_reports, polyline_plot_svg
from birkhoff_lab.textio import write_text

MANUFACTURED = ExperimentConfig(
    hamiltonian=shifted_quadratic([(1, 1, 0.0, 0.05)], drift=0.3),
    initial_potential=TrigPolynomial.from_coeffs([(0, 1, 0.0, 0.05)]),
    n_max=3,
    m_max=3,
    quad_nodes=32,
)

SHOCK = ExperimentConfig(
    hamiltonian=free_hamiltonian(),
    initial_potential=TrigPolynomial.from_coeffs([(0, 1, 0.0, 1.0 / (2 * math.pi**2))]),
    n_max=2,
    m_max=2,
)


@pytest.fixture
def small_curves(monkeypatch):
    """Half the default curve nodes at twice the default resampling gap."""
    monkeypatch.setattr(experiments, "INITIAL_NODES", 512)
    monkeypatch.setattr(experiments, "SPACING", 4e-3)
    return monkeypatch


@pytest.fixture
def manufactured(small_curves):
    small_curves.setattr(experiments, "DETECTOR_WINDOW", 3)
    return MANUFACTURED


@pytest.fixture
def shock(small_curves):
    small_curves.setattr(experiments, "DETECTOR_WINDOW", 2)
    return SHOCK


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_alpha0(value):
    # a NaN alpha0 gives a NaN barrier
    with pytest.raises(ValueError):
        dataclasses.replace(MANUFACTURED, alpha0=value)


@pytest.mark.parametrize("field", ["resolution"])
@pytest.mark.parametrize("value", [0, 100])
def test_config_rejects_grid_sizes_not_a_power_of_two(field, value):
    with pytest.raises(ValueError, match=f"{field} {value} is not a power of two"):
        dataclasses.replace(MANUFACTURED, **{field: value})


def test_parse_trig_coeffs():
    poly = parse_trig_coeffs("0 1 0.0 0.05; 1 2 0.3 -0.4")
    assert poly.terms == ((0, 1, 0.0, 0.05), (1, 2, 0.3, -0.4))
    assert parse_trig_coeffs("").terms == ()
    with pytest.raises(ValueError):
        parse_trig_coeffs("1 2 3")


def test_load_config_defaults_and_file(tmp_path):
    cfg = load_config(None)
    assert cfg.hamiltonian.family is Family.SHIFTED_QUADRATIC
    assert cfg.n_max == 8 and cfg.resolution == 256
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[hamiltonian]\n"
        "family = mechanical\n"
        "potential_coeffs = 0 1 1.0 0.0  # pendulum well\n"
        "offset = 0.25\n"
        "[experiment]\n"
        "n_max = 3\n"
        "resolution = 128\n"
        "seed = 7\n",
        encoding="utf-8",
    )
    cfg = load_config(ini)
    assert cfg.hamiltonian.family is Family.MECHANICAL
    assert cfg.hamiltonian.constant_offset == 0.25
    assert cfg.n_max == 3 and cfg.resolution == 128 and cfg.seed == 7
    echo = config_echo(cfg)
    assert echo["offset"] == 0.25 and echo["seed"] == 7


def test_readme_ini_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    ini = tmp_path / "readme.ini"
    ini.write_text(block, encoding="utf-8")
    assert load_config(ini) == load_config(None)


def test_config_echo_of_the_defaults(tmp_path):
    # each family echoes its own [hamiltonian] keys, none of the other's
    common = {
        "offset": 0.0,
        "initial_potential_coeffs": [(0, 1, 0.0, 0.05)],
        "limit_potential_coeffs": None,
        "n_max": 8,
        "m_max": 8,
        "resolution": 256,
        "seed": 0,
        "quad_nodes": 8,
        "macro_step": 1e-2,
        "integrator": "auto",
        "substeps_per_macro": 4,
    }
    assert config_echo(load_config(None)) == {
        "family": "shifted_quadratic", "shift_coeffs": [(1, 1, 0.0, 0.05)], "drift": 0.3, **common,
    }
    ini = tmp_path / "mechanical.ini"
    ini.write_text("[hamiltonian]\nfamily = mechanical\n", encoding="utf-8")
    assert config_echo(load_config(ini)) == {
        "family": "mechanical", "kinetic": 1.0, "potential_coeffs": [], **common,
    }


@pytest.mark.parametrize("text", [
    "[experiment]\nn_maxx = 3\n",
    "[experimant]\nn_max = 3\n",
    "[flow]\nrk4_tol = 1e-9\n",
], ids=["key", "section", "unreadable-field"])
def test_load_config_rejects_unknown_sections_and_keys(tmp_path, text):
    ini = tmp_path / "typo.ini"
    ini.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="unknown"):
        load_config(ini)


@pytest.mark.parametrize("text", [
    "family = shifted_quadratic\nkinetic = 2.0\npotential_coeffs = 0 1 5.0 0.0\n",
    "family = mechanical\nshift_coeffs = 1 1 0.0 0.5\ndrift = 7\n",
], ids=["mechanical-keys", "shifted-quadratic-keys"])
def test_load_config_rejects_keys_of_the_other_family(tmp_path, text):
    ini = tmp_path / "family.ini"
    ini.write_text("[hamiltonian]\n" + text, encoding="utf-8")
    with pytest.raises(ValueError, match="is read by family"):
        load_config(ini)


def test_detector_gap_logic():
    assert longest_nondecreasing_gap_run([]) == 0
    assert longest_nondecreasing_gap_run([3]) == 1
    assert longest_nondecreasing_gap_run([1, 2, 3, 4]) == 4  # equal gaps allowed
    assert longest_nondecreasing_gap_run([1, 2, 4, 8]) == 4  # growing gaps
    assert longest_nondecreasing_gap_run([1, 5, 6, 7]) == 3  # 5,6,7
    assert longest_nondecreasing_gap_run([1, 2, 4, 5]) == 3  # gap shrink breaks runs


def _recursive_longest_run(hits):
    """Memoised recursion over pairs, O(m^3): the oracle for the detector."""
    h = sorted(hits)
    m = len(h)
    if m <= 2:
        return m
    best = 2
    memo = {}

    def extend(i, j):  # longest run ending with (h[i], h[j])
        key = (i, j)
        if key in memo:
            return memo[key]
        gap = h[j] - h[i]
        out = 2
        for k in range(i):
            if h[i] - h[k] <= gap:
                out = max(out, extend(k, i) + 1)
        memo[key] = out
        return out

    for j in range(m):
        for i in range(j):
            best = max(best, extend(i, j))
    return best


@given(hits=st.lists(st.integers(0, 40), max_size=30))
@settings(max_examples=300, deadline=None)
def test_detector_matches_recursive_oracle(hits):
    # values in 0..40 with up to 30 draws repeat often: duplicate hits are gaps of 0
    assert longest_nondecreasing_gap_run(hits) == _recursive_longest_run(hits)


def test_detector_has_no_cubic_cliff():
    hits = np.random.default_rng(4).integers(0, 10**6, 2000).tolist()
    t0 = time.perf_counter()
    longest_nondecreasing_gap_run(hits)
    assert time.perf_counter() - t0 < 2.0


def test_iteration_positive_case(manufactured):
    bundle = run_iteration_experiment(manufactured)
    assert bundle.verdict == "PASS"
    assert bundle.detectors["forward"]["fired"] and bundle.detectors["backward"]["fired"]
    assert all(r.is_graph for r in bundle.records)
    assert len(bundle.records) == 6
    assert {r.n for r in bundle.records} == {-3, -2, -1, 1, 2, 3}


def test_iteration_negative_case_contrapositive(shock):
    bundle = run_iteration_experiment(shock)
    assert bundle.verdict == "PASS"
    assert "contrapositive" in bundle.reason
    assert not (bundle.detectors["forward"]["fired"] and bundle.detectors["backward"]["fired"])
    rec1 = next(r for r in bundle.records if r.n == 1)
    assert not rec1.is_graph and rec1.fold_count >= 2


def test_iteration_inconclusive_without_data(manufactured, monkeypatch):
    # thresholds below the numerical floor: nothing fires, all iterates stay
    # graphs, and no graph assertion may be made
    monkeypatch.setattr(experiments, "HAUSDORFF_TOL", 1e-13)
    monkeypatch.setattr(experiments, "GAUGE_TOL", 1e-13)
    bundle = run_iteration_experiment(manufactured)
    assert all(r.is_graph for r in bundle.records)
    assert bundle.verdict == "INCONCLUSIVE"


def test_recurrence_manufactured(manufactured):
    bundle = run_recurrence_experiment(manufactured)
    assert bundle.verdict == "PASS"
    assert bundle.detectors["forward"]["fired"] and bundle.detectors["backward"]["fired"]
    assert max(v for _, v in bundle.series["return_forward"]) <= 1e-4
    assert "curve/value consistency over iterates 1..3" in bundle.events
    ((n_max, gap),) = bundle.series["consistency"]
    assert n_max == 3 and gap <= 10.0 / manufactured.resolution
    assert f"curve/value consistency {gap:.3e}" in bundle.reason


def test_recurrence_nonexpansive_return_bound():
    cfg = ExperimentConfig(
        hamiltonian=pendulum(),
        initial_potential=TrigPolynomial.from_coeffs([(0, 1, 1.0, 0.0)]),
        n_max=16,
        m_max=2,
        resolution=128,
    )
    u0, pm, alpha0 = one_period(cfg)
    us = [u0]
    for _ in range(cfg.n_max):
        us.append(lax_negative(us[-1], pm, alpha0))
    # ||u_{n+k} - u_n|| <= ||u_k - u_0||: chained non-expansiveness, k = 4
    bound = np.max(np.abs(us[4].values - us[0].values))
    for a, b in zip(us, us[4:]):
        assert np.max(np.abs(b.values - a.values)) <= bound + 1e-12
    bundle = run_recurrence_experiment(cfg)
    assert "curve/value consistency skipped: iterate 1 has a kink" in bundle.events
    inc = [v for _, v in bundle.series["increments_forward"]]
    assert all(a >= b - 1e-12 for a, b in zip(inc, inc[1:]))
    assert inc[-1] <= 1e-3


@pytest.mark.parametrize("n, bound", [(256, 1.2e-4), (512, 3e-5)])
def test_selector_of_shock_iterates_is_the_lax_oleinik_value(n, bound):
    # the cross-layer oracle: the least sheet of the k-th forward iterate is
    # T^-_k u0 + k alpha0 and the greatest sheet of the k-th backward iterate
    # (minus the selector of the curve with p and h negated) is T^+_k u0 -
    # k alpha0, through folds; the gap is the potential's O(n^-2) error
    cfg = dataclasses.replace(SHOCK, resolution=n)
    u0, pm, alpha0 = one_period(cfg)
    fwd = bwd = from_potential(grid_from_trig(cfg.initial_potential, experiments.INITIAL_NODES))
    uf = ub = u0
    for k in (1, 2, 3):
        fwd = evolve(cfg.hamiltonian, fwd, k - 1.0, float(k), cfg.flow_settings, spacing=experiments.SPACING)
        bwd = evolve(cfg.hamiltonian, bwd, 1.0 - k, -float(k), cfg.flow_settings, spacing=experiments.SPACING)
        uf, ub = lax_negative(uf, pm, alpha0), lax_positive(ub, pm, alpha0)
        assert not graph_check(fwd).is_graph and not graph_check(bwd).is_graph
        least = graph_selector(fwd, n).values + k * alpha0
        greatest = -graph_selector(LagrangianCurve(bwd.q_lift, -bwd.p, -bwd.primitive), n).values - k * alpha0
        assert np.max(np.abs(least - uf.values)) <= bound
        assert np.max(np.abs(greatest - ub.values)) <= bound


def test_invariance_autonomous_guard():
    with pytest.raises(ValueError):
        run_autonomous_invariance(MANUFACTURED)  # time-dependent shift
    moving_well = TonelliHamiltonian(
        family=Family.CUSTOM,
        custom_fn=lambda t, q, p: p**2 / 2 + 0.3 * np.cos(2 * np.pi * (q - t)),
    )
    cfg = ExperimentConfig(
        hamiltonian=moving_well,
        initial_potential=TrigPolynomial(),
        resolution=16,
        quad_nodes=2,
    )
    with pytest.raises(ValueError, match="autonomous"):
        run_autonomous_invariance(cfg)


def test_invariance_shifted(monkeypatch):
    monkeypatch.setattr(experiments, "SPACING", 4e-3)
    cfg = ExperimentConfig(
        hamiltonian=shifted_quadratic([(0, 1, 0.0, 0.05)], drift=0.3),
        initial_potential=TrigPolynomial.from_coeffs([(0, 1, 0.0, 0.05)]),
        resolution=256,
        quad_nodes=32,
    )
    bundle = run_autonomous_invariance(cfg)
    assert bundle.verdict == "PASS"
    assert max(v for _, v in bundle.series["invariance"]) <= 1e-4


def test_invariance_through_a_kinked_fixed_point():
    # free flow from the shock profile settles on a fixed point with kink
    # cells; the least sheet of its flowed graph still follows u - alpha0 t
    bundle = run_autonomous_invariance(SHOCK)
    assert grid_kink_mask(bundle.curves[0].primitive).any()  # the graph of u carries u
    assert bundle.verdict == "PASS"
    assert max(v for _, v in bundle.series["invariance"]) <= 1e-4


def test_grid_kink_mask():
    qs = np.arange(256) / 256
    smooth = np.sin(2 * np.pi * qs)
    assert not grid_kink_mask(smooth).any()
    kinked = np.minimum(qs, 1 - qs)
    mask = grid_kink_mask(kinked)
    assert mask.any()
    assert set(np.nonzero(mask)[0]) <= {0, 127, 128, 129, 255}


def test_emit_reports_roundtrip(tmp_path, shock):
    bundle = run_iteration_experiment(shock)
    files = emit_reports(bundle, tmp_path)
    names = {f.name for f in files}
    assert {"diagnostics.csv", "report.json", "phase_portrait.svg",
            "return_distance.svg", "defect_hist.svg"} <= names
    rows = (tmp_path / "diagnostics.csv").read_text().strip().splitlines()
    assert rows[0] == "n,hausdorff_to_candidate,gauge,is_graph,fold_count,node_count,primitive_osc"
    assert len(rows) - 1 == len(bundle.records)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["verdict"] == "PASS"
    assert payload["config"]["n_max"] == 2
    svg = (tmp_path / "phase_portrait.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_emit_reports_witness_reproducible(tmp_path, shock):
    bundle = run_iteration_experiment(shock)
    assert bundle.witness is not None
    emit_reports(bundle, tmp_path)
    curve = curve_from_csv(tmp_path / "witness_curve.csv")
    rec = next(r for r in bundle.records if r.n == bundle.witness)
    fr = graph_check(curve)
    assert fr.is_graph == rec.is_graph
    assert len(fr.fold_parameters) == rec.fold_count


def _drawn_portrait(bundle, tmp_path, monkeypatch):
    """The series emit_reports hands to the phase portrait, in data units."""
    drawn = {}
    monkeypatch.setattr(reports, "polyline_plot_svg", lambda path, series, *a: drawn.setdefault(path.name, series))
    emit_reports(bundle, tmp_path)
    return drawn["phase_portrait.svg"]


def test_phase_portrait_follows_folded_curves(tmp_path, monkeypatch, shock):
    # drawn in parameter order and broken at period crossings, no drawn
    # segment of a folded iterate jumps between its sheets
    bundle = run_iteration_experiment(shock)
    assert not all(graph_check(c).is_graph for c in bundle.curves.values())
    for (name, qs, ps), n in zip(_drawn_portrait(bundle, tmp_path, monkeypatch), sorted(bundle.curves)):
        c = bundle.curves[n]
        widest = np.max(np.hypot(np.diff(c.closed_lift()), np.diff(c.closed_p())))
        assert name == f"n={n}" and sum(map(len, qs)) == c.n_nodes
        for q, p in zip(qs, ps):
            assert np.max(np.hypot(np.diff(q), np.diff(p)), initial=0.0) <= widest * (1 + 1e-12)


def test_phase_portrait_of_a_graph_is_its_nodes_sorted_by_q(tmp_path, monkeypatch):
    nodes = np.arange(64) / 64
    curve = LagrangianCurve(nodes + 0.3, np.sin(2 * np.pi * nodes) / 10, np.zeros(64))
    bundle = ReportBundle(kind="iteration", verdict="PASS", reason="", curves={0: curve})
    [(_, qs, ps)] = _drawn_portrait(bundle, tmp_path, monkeypatch)
    order = np.argsort(curve.q, kind="stable")
    assert len(qs) == 1 and np.array_equal(qs[0], curve.q[order]) and np.array_equal(ps[0], curve.p[order])


def test_emit_reports_empty_bundle(tmp_path):
    bundle = ReportBundle(kind="iteration", verdict="NO_DATA", reason="")
    emit_reports(bundle, tmp_path)
    rows = (tmp_path / "diagnostics.csv").read_text().strip().splitlines()
    assert len(rows) == 1  # header only
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["verdict"] == "NO_DATA"


def test_emit_reports_deterministic(tmp_path, manufactured):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_reports(run_iteration_experiment(manufactured), a)
    emit_reports(run_iteration_experiment(manufactured), b)
    for name in ("diagnostics.csv", "report.json", "phase_portrait.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_polyline_plot_draws_values_equal_to_rounding_as_equal(tmp_path):
    # one ulp apart: scaled to the range of the values they would sit on
    # opposite edges of the plot
    path = tmp_path / "plot.svg"
    xs = [1, 2, 3]
    polyline_plot_svg(path, [("a", [xs], [[1.390316998156393] * 3]), ("b", [xs], [[1.3903169981563932] * 3])], "t")
    drawn = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    ys = [[point.split(",")[1] for point in points.split()] for points in drawn]
    assert len(ys) == 2 and ys[0] == ys[1]


def _reference_scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in vals]


def _reference_polyline_plot_svg(path, series, title, xlabel="", ylabel=""):
    """polyline_plot_svg as a loop over Python scalars: the oracle its numpy
    scaling and one-format-per-polyline drawing must match byte for byte."""
    xs_all = [x for _, xs, _ in series for piece in xs for x in piece]
    ys_all = [y for _, _, ys in series for piece in ys for y in piece]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    lo_x, hi_x = min(xs_all), max(xs_all)
    lo_y, hi_y = min(ys_all), max(ys_all)
    if hi_y - lo_y <= 4 * np.finfo(float).eps * max(abs(lo_y), abs(hi_y)):
        hi_y = lo_y + 1.0
    parts, (x0, y0, x1, y1) = reports._svg_frame(title)
    for k, (name, xs, ys) in enumerate(series):
        if not any(map(len, xs)):
            continue
        color = reports._PALETTE[k % len(reports._PALETTE)]
        for piece_x, piece_y in zip(xs, ys):
            px = _reference_scale(piece_x, lo_x, hi_x, x0, x1)
            py = _reference_scale(piece_y, lo_y, hi_y, y1, y0)
            pts = " ".join(f"{a:.4f},{b:.4f}" for a, b in zip(px, py))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>\n')
        if name:
            parts.append(
                f'<text x="{x1 - 8}" y="{y0 + 14 + 13 * k}" font-family="monospace" '
                f'font-size="11" text-anchor="end" fill="{color}">{name}</text>\n'
            )
    parts.extend(reports._x_ticks(x0, x1, y1, lo_x, hi_x))
    for frac, val in ((0.0, lo_y), (1.0, hi_y)):
        parts.append(
            f'<text x="{x0 - 6}" y="{y1 - frac * (y1 - y0) + 4:.1f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{val:.4g}</text>\n'
        )
    if xlabel:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{reports.PLOT_HEIGHT - 8}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>\n'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{ylabel}</text>\n'
        )
    write_text(path, "".join(parts) + "</svg>\n")


def _assert_drawn_as_reference(directory, series, *labels):
    polyline_plot_svg(directory / "plot.svg", series, *labels)
    _reference_polyline_plot_svg(directory / "reference.svg", series, *labels)
    assert (directory / "plot.svg").read_bytes() == (directory / "reference.svg").read_bytes()


@pytest.mark.parametrize("command", ["birkhoff", "recurrence", "invariance"])
def test_polyline_plots_of_pipeline_bundles_match_the_reference(tmp_path, monkeypatch, command):
    drawn = []

    def both(path, series, *labels):
        _assert_drawn_as_reference(tmp_path, series, *labels)
        drawn.append(path.name)

    monkeypatch.setattr(reports, "polyline_plot_svg", both)
    argv = ["--quiet", "--resolution", "64", "--out", str(tmp_path / "out"), command]
    if command == "invariance":  # needs an autonomous Hamiltonian
        cfg = tmp_path / "auto.ini"
        cfg.write_text(
            "[hamiltonian]\nfamily = shifted_quadratic\nshift_coeffs = 0 1 0.0 0.05\ndrift = 0.3\n"
            "[experiment]\ninitial_potential_coeffs = 0 1 0.0 0.05\n",
            encoding="utf-8",
        )
        argv[:0] = ["--config", str(cfg)]
    assert cli.main(argv) in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE)
    assert drawn == ["phase_portrait.svg", "return_distance.svg"]


_FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def _piece_pair(draw):
    """Equal-length x and y pieces, each an int tuple, a float list or an ndarray."""
    n = draw(st.integers(0, 6))

    def piece():
        kind = draw(st.sampled_from(["ints", "floats", "ndarray"]))
        if kind == "ints":
            return tuple(draw(st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n)))
        values = draw(st.lists(_FINITE | st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n))
        return values if kind == "floats" else np.array(values)

    return piece(), piece()


_SERIES = st.lists(
    st.tuples(st.sampled_from(["", "a", "n=1"]), st.lists(_piece_pair(), max_size=3)).map(
        lambda s: (s[0], [x for x, _ in s[1]], [y for _, y in s[1]])
    ),
    max_size=4,
)


@given(series=_SERIES)
@settings(max_examples=300, deadline=None)
def test_polyline_plot_matches_the_reference(tmp_path_factory, series):
    _assert_drawn_as_reference(tmp_path_factory.mktemp("plot"), series, "t", "x", "y")


@given(values=st.lists(_FINITE | st.integers(-10**9, 10**9), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_scale_keeps_the_bits_of_the_scalar_loop(values):
    lo, hi = min(values), max(values)
    for out_lo, out_hi in ((60, 620), (375, 30)):
        want = np.array(_reference_scale(values, lo, hi, out_lo, out_hi), dtype=float)
        assert reports._scale(values, lo, hi, out_lo, out_hi).tobytes() == want.tobytes()


@pytest.mark.parametrize("series", [
    [],
    [("a", [[1, 2, 3]], [[1.390316998156393] * 3]), ("b", [[1, 2, 3]], [[1.3903169981563932] * 3])],
    [("a", [[0.25]], [[-3.5]])],
    [("a", [[-1e300, 1e300], []], [[1e300, -1e300], []]), ("", [np.array([3.0])], [np.array([-1e300])])],
    [("a", [[0.0, 1.0, -0.0]], [[-0.0, 2.0, 0.0]])],
    [("a", [[-0.0, 1.0, 0.0]], [[0.0, 2.0, -0.0]])],
    [("a", [(0, 1)], [[-0.0, 0.0]]), ("b", [[-0.0]], [[0]])],
], ids=["no-series", "rounding-equal-y", "one-point", "near-1e300", "zero-first", "minus-zero-first", "int-zero"])
def test_polyline_plot_edge_cases_match_the_reference(tmp_path, series):
    _assert_drawn_as_reference(tmp_path, series, "t", "x", "y")


def test_lax_spacetime_knots_use_configured_potential_settings(monkeypatch):
    from dataclasses import replace

    monkeypatch.setattr(experiments, "CALIBRATION_HORIZON", 0.25)
    cfg = replace(MANUFACTURED, resolution=64, quad_nodes=4, alpha0=0.0)
    u = lax_spacetime(cfg)
    cur = grid_from_trig(cfg.initial_potential, 64)
    rows = [cur.values]
    for j in range(4):
        pm = potential(cfg.hamiltonian, j / 16, (j + 1) / 16, 64, quad_nodes=4)
        cur = lax_negative(cur, pm, 0.0)
        rows.append(cur.values)
    assert np.array_equal(u.knots, np.array(rows))
