"""Experiment pipelines: curve iteration, value recurrence, invariance checks.

The iteration pipeline flows an initial exact graph over integer times in
both directions, scores every iterate against a candidate limit (Hausdorff
distance and primitive-oscillation gauge), and runs the recurrence detector:
a direction counts as convergent when enough scored iterates dip under both
thresholds along a subsequence with nondecreasing gaps. Only a bidirectional
detection licenses asserting the graph property of every iterate; a fold
without bidirectional detection is the consistent (contrapositive) outcome.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .calibration import SpaceTimeFunction, grid_kink_mask, spacetime_from_lax
from .curves import (
    LagrangianCurve,
    evolve,
    from_potential,
    graph_check,
    graph_selector,
    hausdorff_distance,
    oscillation,
    reduced_complexity_gauge,
)
from .errors import FixedPointNotReached, ResamplingBudgetExceeded
from .flow import FlowSettings
from .grids import GridFunction, grid_from_trig, require_power_of_two
from .hamiltonians import (
    TonelliHamiltonian,
    TrigPolynomial,
    mechanical,
    shifted_quadratic,
)
from .lax_oleinik import (
    QUAD_NODES,
    PotentialMatrix,
    lax_negative,
    lax_positive,
    mane_critical_value,
    potential,
)

INITIAL_NODES = 1024  # curve nodes at t = 0 (a power of two)
SPACING = 2e-3  # phase-space resampling gap of every evolved curve
HAUSDORFF_TOL = GAUGE_TOL = 1e-4  # detector thresholds
DETECTOR_WINDOW = 4  # detected subsequence length
CALIBRATION_HORIZON = 1.0  # the calibration candidate's window is [0, CALIBRATION_HORIZON]
CALIBRATION_TOLERANCE = 5e-3  # least domination defect that passes calibration


@dataclass(frozen=True)
class ExperimentConfig:
    hamiltonian: TonelliHamiltonian
    initial_potential: TrigPolynomial
    limit_potential: TrigPolynomial | None = None
    n_max: int = 8
    m_max: int = 8
    resolution: int = 256
    seed: int = 0
    outdir: str = "out"
    flow_settings: FlowSettings = field(default_factory=FlowSettings)
    alpha0: float | None = None  # None: the critical value (mane_critical_value)
    quad_nodes: int = QUAD_NODES  # sub-quadrature nodes per single-step potential

    def __post_init__(self):
        if self.n_max < 1 or self.m_max < 1:
            raise ValueError("iterate counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.alpha0 is not None and not np.isfinite(self.alpha0):
            raise ValueError("a pinned alpha0 must be finite")
        require_power_of_two(self.resolution, "resolution")


@dataclass(frozen=True)
class DiagnosticsRecord:
    n: int
    hausdorff_to_candidate: float
    gauge: float
    is_graph: bool
    fold_count: int
    node_count: int
    primitive_osc: float


@dataclass
class ReportBundle:
    kind: str
    verdict: str
    reason: str
    records: list[DiagnosticsRecord] = field(default_factory=list)
    witness: int | None = None
    detectors: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)  # n -> LagrangianCurve
    events: list[str] = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)
    seed: int = 0


# ---------------------------------------------------------------------------
# config files (INI, utf-8, '#' comments). Each [experiment] and [flow] key
# below is the ExperimentConfig / FlowSettings field of the same name and
# takes its type and default from that field; a section or key that no
# setting reads is an error (README lists them all)

EXPERIMENT_KEYS = ("n_max", "m_max", "resolution", "seed", "quad_nodes")
FLOW_KEYS = ("macro_step", "integrator", "substeps_per_macro")
FAMILY_KEYS = {"mechanical": ("kinetic", "potential_coeffs"), "shifted_quadratic": ("shift_coeffs", "drift")}
CONFIG_KEYS = {
    "hamiltonian": ("family", *FAMILY_KEYS["mechanical"], *FAMILY_KEYS["shifted_quadratic"], "offset"),
    "experiment": ("initial_potential_coeffs", "limit_potential_coeffs", "alpha0", *EXPERIMENT_KEYS),
    "flow": FLOW_KEYS,
    "output": ("outdir",),
}


def _typed_keys(section: configparser.SectionProxy, cls, keys: tuple[str, ...]) -> dict:
    """The keys present in the section, each parsed by the type of the
    default of the field of `cls` it names."""
    kind = {f.name: type(f.default) for f in fields(cls)}
    return {key: kind[key](section[key]) for key in keys if key in section}


def parse_trig_coeffs(text: str) -> TrigPolynomial:
    """Parse ';'-separated 'j k a b' terms into a trig polynomial."""
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 4:
            raise ValueError(f"coefficient term {chunk!r} is not 'j k a b'")
        j, k, a, b = parts
        terms.append((int(j), int(k), float(a), float(b)))
    return TrigPolynomial.from_coeffs(terms)


def hamiltonian_from_config(cp: configparser.ConfigParser) -> TonelliHamiltonian:
    """The [hamiltonian] family; a key only the other family reads is an error."""
    sec = cp["hamiltonian"]
    family = sec.get("family", "shifted_quadratic").strip().lower()
    if family not in FAMILY_KEYS:
        raise ValueError(f"config cannot declare family {family!r} (custom is API-only)")
    for other, keys in FAMILY_KEYS.items():
        for key in keys:
            if other != family and key in sec:
                raise ValueError(f"[hamiltonian] key {key!r} is read by family {other}, not {family}")
    offset = sec.getfloat("offset", 0.0)
    if family == "mechanical":
        return mechanical(
            parse_trig_coeffs(sec.get("potential_coeffs", "")).terms,
            kinetic=sec.getfloat("kinetic", 1.0),
            offset=offset,
        )
    return shifted_quadratic(
        parse_trig_coeffs(sec.get("shift_coeffs", "1 1 0.0 0.05")).terms,
        drift=sec.getfloat("drift", 0.3),
        offset=offset,
    )


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",))
    cp.read_dict({section: {} for section in CONFIG_KEYS})
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    for name in cp.sections():
        if name not in CONFIG_KEYS:
            raise ValueError(f"unknown config section [{name}]")
        unknown = sorted(set(cp[name]) - set(CONFIG_KEYS[name]))
        if unknown:
            raise ValueError(f"unknown keys in config section [{name}]: {unknown}")
    exp = cp["experiment"]
    limit_text = exp.get("limit_potential_coeffs", "").strip()
    return ExperimentConfig(
        hamiltonian=hamiltonian_from_config(cp),
        initial_potential=parse_trig_coeffs(exp.get("initial_potential_coeffs", "0 1 0.0 0.05")),
        limit_potential=parse_trig_coeffs(limit_text) if limit_text else None,
        outdir=cp["output"].get("outdir", "out"),
        flow_settings=FlowSettings(**_typed_keys(cp["flow"], FlowSettings, FLOW_KEYS)),
        alpha0=exp.getfloat("alpha0") if exp.get("alpha0", "").strip() else None,
        **_typed_keys(exp, ExperimentConfig, EXPERIMENT_KEYS),
    )


def config_echo(config: ExperimentConfig) -> dict:
    """The config under the keys `load_config` reads, with only the family's
    own [hamiltonian] keys (none for a custom callable)."""
    h = config.hamiltonian
    family_values = {
        "kinetic": h.kinetic_coefficient,
        "potential_coeffs": list(h.potential.terms),
        "shift_coeffs": list(h.shift_profile.terms),
        "drift": h.drift,
    }
    return {
        "family": h.family.value,
        **{key: family_values[key] for key in FAMILY_KEYS.get(h.family.value, ())},
        "offset": h.constant_offset,
        "initial_potential_coeffs": list(config.initial_potential.terms),
        "limit_potential_coeffs": list(config.limit_potential.terms)
        if config.limit_potential
        else None,
        **{key: getattr(config, key) for key in EXPERIMENT_KEYS},
        **{key: getattr(config.flow_settings, key) for key in FLOW_KEYS},
    }


# ---------------------------------------------------------------------------
# detector

def longest_nondecreasing_gap_run(hits: list[int]) -> int:
    """Length of the longest subsequence whose consecutive gaps never shrink.

    O(m^2) dynamic programme over the sorted hits: run[k, i] is the longest
    run ending with (h[k], h[i]). A run ending with (h[k], h[i]) extends by
    h[j] when h[i] - h[k] <= h[j] - h[i], i.e. for every k from
    searchsorted(h, 2 h[i] - h[j]) up to i, so a suffix maximum of column i
    gives the best predecessor of each pair (i, j).
    """
    h = np.sort(np.asarray(hits))
    m = len(h)
    if m <= 2:
        return m
    run = np.zeros((m, m), dtype=np.int32)
    for i in range(m - 1):
        # suffix[k] = max(run[k:i, i]); with no predecessor (k = i) the pair is a run of 2
        suffix = np.append(np.maximum.accumulate(run[:i, i][::-1])[::-1], 1)
        first = np.minimum(np.searchsorted(h, 2 * h[i] - h[i + 1 :]), i)
        run[i, i + 1 :] = 1 + suffix[first]
    return int(run.max())


def run_detector(records: list[DiagnosticsRecord]) -> dict:
    """The iterates under both thresholds, and whether DETECTOR_WINDOW of them
    have nondecreasing gaps."""
    hits = sorted(abs(r.n) for r in records if r.hausdorff_to_candidate < HAUSDORFF_TOL and r.gauge < GAUGE_TOL)
    return {"hits": hits, "fired": longest_nondecreasing_gap_run(hits) >= DETECTOR_WINDOW}


# ---------------------------------------------------------------------------
# pipelines

def _bundle(kind: str, verdict: str, config: ExperimentConfig) -> ReportBundle:
    """A pipeline's bundle, before its results: the verdict it starts from,
    an empty reason, the config echo and the seed."""
    return ReportBundle(kind=kind, verdict=verdict, reason="", config_echo=config_echo(config), seed=config.seed)


def _diagnose(n: int, curve: LagrangianCurve, candidate: LagrangianCurve, u_lim: GridFunction) -> DiagnosticsRecord:
    fr = graph_check(curve)
    return DiagnosticsRecord(
        n=n,
        hausdorff_to_candidate=hausdorff_distance(curve, candidate),
        gauge=reduced_complexity_gauge(curve, u_lim),
        is_graph=fr.is_graph,
        fold_count=len(fr.fold_parameters),
        node_count=curve.n_nodes,
        primitive_osc=oscillation(curve.primitive),
    )


def run_iteration_experiment(config: ExperimentConfig) -> ReportBundle:
    """Theorem-style pipeline over curve iterates in both time directions."""
    l0 = from_potential(grid_from_trig(config.initial_potential, INITIAL_NODES))
    u_lim = grid_from_trig(config.limit_potential or config.initial_potential, INITIAL_NODES)
    candidate = from_potential(u_lim)
    bundle = _bundle("iteration", "NO_DATA", config)
    bundle.curves[0] = l0
    l0_graph = graph_check(l0).is_graph

    directions = {}
    for label, count, step in (("forward", config.n_max, +1), ("backward", config.m_max, -1)):
        cur = l0
        recs: list[DiagnosticsRecord] = []
        for i in range(count):
            s, t = step * i, step * (i + 1)
            try:
                cur = evolve(config.hamiltonian, cur, float(s), float(t), config.flow_settings, spacing=SPACING)
            except ResamplingBudgetExceeded as exc:
                bundle.events.append(f"{label} iterate {t}: stretching blow-up ({exc})")
                break
            rec = _diagnose(t, cur, candidate, u_lim)
            recs.append(rec)
            bundle.curves[t] = cur
        directions[label] = recs
        bundle.records.extend(recs)

    bundle.records.sort(key=lambda r: r.n)
    bundle.detectors = {label: run_detector(recs) for label, recs in directions.items()}
    fired_f, fired_b = bundle.detectors["forward"]["fired"], bundle.detectors["backward"]["fired"]
    bundle.series["hausdorff"] = [(r.n, r.hausdorff_to_candidate) for r in bundle.records]
    bundle.series["gauge"] = [(r.n, r.gauge) for r in bundle.records]

    non_graph = [r.n for r in bundle.records if not r.is_graph]
    if not l0_graph:
        non_graph.insert(0, 0)
    if fired_f and fired_b:
        if not non_graph:
            bundle.verdict, bundle.reason = "PASS", (
                "bidirectional reduced-complexity convergence detected; "
                "every iterate is a graph over the zero section"
            )
        else:
            bundle.verdict, bundle.reason = "FAIL", (
                f"bidirectional convergence detected but iterate {non_graph[0]} is not a graph"
            )
            bundle.witness = non_graph[0]
    elif non_graph:
        bundle.verdict, bundle.reason = "PASS", (
            f"non-graph iterate {non_graph[0]} occurred without bidirectional "
            "convergence (contrapositive)"
        )
        bundle.witness = non_graph[0]
    elif fired_f or fired_b:
        bundle.verdict, bundle.reason = "INCONCLUSIVE", (
            "one-directional convergence only (Question 2 regime)"
        )
    else:
        bundle.verdict, bundle.reason = "INCONCLUSIVE", (
            "no convergent subsequence detected in either direction"
        )
    return bundle


def resolve_potential_settings(config: ExperimentConfig) -> dict:
    """Keyword settings of every potential built from the config."""
    return {"n": config.resolution, "quad_nodes": config.quad_nodes}


def resolve_alpha0(config: ExperimentConfig) -> float:
    """The pinned alpha0, else the critical value under the config's
    potential settings."""
    if config.alpha0 is not None:
        return config.alpha0
    return mane_critical_value(config.hamiltonian, **resolve_potential_settings(config))


def one_period(config: ExperimentConfig) -> tuple[GridFunction, PotentialMatrix, float]:
    """The initial value grid, the one-period potential and alpha0: what every
    iteration of the one-period Lax operators starts from."""
    u0 = grid_from_trig(config.initial_potential, config.resolution)
    alpha0 = resolve_alpha0(config)
    pm = potential(config.hamiltonian, 0.0, 1.0, **resolve_potential_settings(config))
    return u0, pm, alpha0


def run_recurrence_experiment(config: ExperimentConfig) -> ReportBundle:
    """Value-function recurrence under the one-period operators."""
    n = config.resolution
    h = config.hamiltonian
    u0, pm, alpha0 = one_period(config)
    bundle = _bundle("recurrence", "PASS", config)

    iterates = {}
    for label, count, lax in (("forward", config.n_max, lax_negative), ("backward", config.m_max, lax_positive)):
        us = iterates[label] = [u0]
        for _ in range(count):
            us.append(lax(us[-1], pm, alpha0))
        returns = [float(np.max(np.abs(u.values - u0.values))) for u in us[1:]]
        hits = [k for k, r in enumerate(returns, start=1) if r < GAUGE_TOL]
        bundle.series[f"return_{label}"] = list(enumerate(returns, start=1))
        bundle.detectors[label] = {"hits": hits, "fired": bool(hits)}
    fwd = iterates["forward"]
    inc_f = [float(np.max(np.abs(a.values - b.values))) for a, b in zip(fwd[1:], fwd[:-1])]
    bundle.series["increments_forward"] = list(enumerate(inc_f, start=1))
    bundle.events.append(f"alpha0 = {float(alpha0)!r}")

    kinked = next((k for k, u in enumerate(fwd) if grid_kink_mask(u.values).any()), None)
    consistency = None
    if kinked is not None:
        bundle.events.append(f"curve/value consistency skipped: iterate {kinked} has a kink")
    else:
        bundle.events.append(f"curve/value consistency over iterates 1..{config.n_max}")
        cur = from_potential(u0)
        consistency = 0.0
        for k in range(1, config.n_max + 1):
            cur = evolve(h, cur, float(k - 1), float(k), config.flow_settings, spacing=SPACING)
            gap = graph_selector(cur, n).values + k * alpha0 - fwd[k].values
            consistency = max(consistency, float(np.max(np.abs(gap))))
        bundle.series["consistency"] = [(config.n_max, consistency)]
        if consistency > 10.0 / n:
            bundle.verdict = "FAIL"
            bundle.reason = (
                f"curve and value evolutions disagree by {consistency:.3e} (> 10/{n})"
            )
            return bundle
    rec_f = bundle.detectors["forward"]["fired"]
    rec_b = bundle.detectors["backward"]["fired"]
    parts = []
    parts.append(
        "recurrence detected in both directions" if (rec_f and rec_b)
        else "no bidirectional recurrence of the value function"
    )
    if consistency is not None:
        parts.append(f"curve/value consistency {consistency:.3e}")
    if inc_f and inc_f[-1] < min(inc_f) + 1e-12:
        parts.append("one-period increments settle (stationary regime)")
    bundle.reason = "; ".join(parts)
    return bundle


def run_autonomous_invariance(config: ExperimentConfig) -> ReportBundle:
    """Fixed-point construction and flow invariance of its graph (autonomous)."""
    h = config.hamiltonian
    if not h.autonomous:
        raise ValueError("invariance experiment needs an autonomous Hamiltonian")
    n = config.resolution
    u, pm, alpha0 = one_period(config)
    budget = 512
    residual = np.inf
    for _ in range(budget):
        nxt = lax_negative(u, pm, alpha0)
        residual = float(np.max(np.abs(nxt.values - u.values)))
        u = nxt
        if residual < 1e-4:
            break
    else:
        raise FixedPointNotReached(f"one-period residual {residual} after {budget} iterations")

    curve = from_potential(u, derivative="central")
    bundle = _bundle("invariance", "NO_DATA", config)
    bundle.curves[0] = curve
    bundle.events.append(f"alpha0 = {float(alpha0)!r}")
    bundle.events.append(f"fixed-point residual = {float(residual)!r}")

    # T_t u = u - alpha0 t for a fixed point, and the least sheet of the
    # flowed graph is T_t u, kinks and folds included (graph_selector)
    worst = 0.0
    for t in (k / 10.0 for k in range(1, 10)):
        lt = evolve(h, curve, 0.0, t, config.flow_settings, spacing=SPACING)
        d = float(np.max(np.abs(graph_selector(lt, n).values - (u.values - alpha0 * t))))
        worst = max(worst, d)
        bundle.series.setdefault("invariance", []).append((t, d))
    bundle.verdict = "PASS" if worst < 10.0 / n else "FAIL"
    bundle.reason = (
        f"max |selector - (u - alpha0 t)| {worst:.3e} over t in (0,1) "
        f"({'below' if worst < 10.0 / n else 'above'} 10/{n})"
    )
    return bundle


def lax_spacetime(config: ExperimentConfig) -> SpaceTimeFunction:
    """Candidate solution on [0, CALIBRATION_HORIZON] for the calibration pipeline."""
    u0 = grid_from_trig(config.initial_potential, config.resolution)
    alpha0 = resolve_alpha0(config)
    return spacetime_from_lax(config.hamiltonian, u0, 0.0, CALIBRATION_HORIZON, alpha0, quad_nodes=config.quad_nodes)
