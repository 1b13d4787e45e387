"""One benchmark process: import, generate inputs, then repeat the steps.

Run by `run.py`, never by hand. It prints `ready` once set-up (imports plus
input generation) is done, then `probe <seconds>` (see probe.py), and one
JSON object as its last line. With `--setup-only` it stops after the probe.
Every step starts with a cold potential cache, as a fresh CLI process would.
Checks run outside the timed region, with tracing paused.

The host probe also runs before and after every step. Rescaling each step's
time by the probe time around it gives `wall_ref_s`, the repetition's time
at the probe's nominal speed.

With `--trace 1` the first repetition runs untraced, to give the tracing
overhead; at least two more run with every layer function wrapped, so that
work counts can be compared between repetitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import birkhoff_lab
from birkhoff_lab import lax_oleinik

sys.path.insert(0, str(Path(__file__).resolve().parent))
from probe import PROBE_NOMINAL_S, host_probe  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import build  # noqa: E402


def _pairs(a, out):
    return len(a["q"]) * a["b"].n_nodes * 3  # points x segments x 3 winding images


def _point_substeps(a, out):
    s, t, settings = a["s"], a["t"], a["settings"]
    macro = 0 if t == s else max(1, math.ceil(abs(t - s) / settings.macro_step - 1e-12))
    return len(a["q_lift"]) * macro * settings.substeps_per_macro


def _nodes_out(a, out):
    return (out[0] if isinstance(out, tuple) else out).n_nodes


def _emitted_bytes(a, out):
    return sum(os.path.getsize(p) for p in out)


# (module, qualname, work-count kind, count from the call's arguments and result)
LAYERS = [
    ("cli", "main", None, None),
    ("experiments", "load_config", None, None),
    ("experiments", "run_detector", None, None),
    ("reports", "emit_reports", "bytes", _emitted_bytes),
    ("curves", "evolve", "nodes_out", _nodes_out),
    ("curves", "points_to_curve_distance", "pairs", _pairs),
    ("curves", "graph_check", None, None),
    ("flow", "trajectory", None, None),
    ("flow", "integrate_batch", "point_substeps", _point_substeps),
    ("hamiltonians", "TrigPolynomial.deriv", None, None),
    ("hamiltonians", "TonelliHamiltonian.dH_dq", None, None),
    ("grids", "GridFunction.eval", None, None),
    ("grids", "grid_from_trig", None, None),
    ("lax_oleinik", "potential", None, lambda a, out: out.entries.nbytes),
    ("lax_oleinik", "minplus_compose", "cell_ops", lambda a, out: a["a"].resolution ** 3),
    ("lax_oleinik", "lagrangian_batch", "cells",
     lambda a, out: np.broadcast(np.asarray(a["q"]), np.asarray(a["v"])).size),
    ("lax_oleinik", "lax_negative", None, None),
    ("lax_oleinik", "lax_positive", None, None),
    ("lax_oleinik", "peierls_barrier", None, None),
    ("calibration", "domination_check", None, None),
    ("calibration", "spacetime_from_lax", None, None),
    ("calibration", "calibrated_curve", None, None),
    ("spectral", "sublevel_percolation_threshold", "cells", lambda a, out: a["values"].size),
    ("spectral", "fqi_from_csv", "bytes", lambda a, out: os.path.getsize(a["path"])),
    ("spectral", "selector_function", None, None),
]
STEP_SPAN = "bench.step"


def make_tracer() -> Tracer:
    targets = [Target(module, qualname, count) for module, qualname, _, count in LAYERS]
    return Tracer("birkhoff_lab", targets)


def layer_metrics(tracer: Tracer, t: dict, rep: int) -> dict[str, float]:
    """Per-layer calls, self time and work counts of one traced repetition."""
    in_rep = t["rep"] == rep
    out = {}
    for module, qualname, kind, _ in LAYERS:
        name = f"{module}.{qualname}"
        sel = in_rep & (t["name_id"] == tracer.span_id(name))
        out[f"{name}.calls"] = int(np.count_nonzero(sel))
        out[f"{name}.self_s"] = float(np.sum(t["self"][sel]))
        if kind is not None:
            out[f"{name}.{kind}"] = int(np.sum(t["work"][sel]))
        if name == "lax_oleinik.potential":  # a call that built nothing was a cache hit
            built = sel & t["has_children"]
            out[f"{name}.cache_hits"] = int(np.count_nonzero(sel & ~t["has_children"]))
            out[f"{name}.cache_misses"] = int(np.count_nonzero(built))
            out[f"{name}.miss_mb"] = float(np.sum(t["work"][built])) / 1e6
    steps = in_rep & (t["name_id"] == tracer.span_id(STEP_SPAN))
    out["bench.unattributed_s"] = float(np.sum(t["self"][steps]))
    out["bench.spans"] = int(np.count_nonzero(in_rep))
    return out


def step_shares(tracer: Tracer, t: dict, rep: int, step_names: list[str], top: int = 4) -> dict:
    """The largest self times inside each step of one traced repetition."""
    step_id = tracer.span_id(STEP_SPAN)
    roots = np.nonzero((t["rep"] == rep) & (t["name_id"] == step_id))[0]
    labels = ["(unattributed)" if i == step_id else n for i, n in enumerate(tracer.names)]
    shares = {}
    for name, r in zip(step_names, roots):
        wall = float(t["end"][r] - t["start"][r])
        sel = t["root"] == r
        by_layer = np.bincount(t["name_id"][sel], weights=t["self"][sel], minlength=len(labels))
        ranked = np.argsort(-by_layer)[:top]
        shares[name] = {"wall_s": wall, "top": [[labels[i], by_layer[i] / wall] for i in ranked]}
    return shares


def _fingerprint(outdir: Path | None) -> str | None:
    if outdir is None or not (outdir / "report.json").exists():
        return None
    digest = hashlib.sha256()
    for name in ("report.json", "diagnostics.csv"):
        digest.update((outdir / name).read_bytes())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(birkhoff_lab.__file__).resolve().parent.parent != src.resolve():
        print(f"birkhoff_lab imported from {birkhoff_lab.__file__}, not {src}", file=sys.stderr)
        return 3
    steps = build(args.workload, args.seed, Path(args.work))
    print("ready", flush=True)
    print(f"probe {host_probe()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = make_tracer() if args.trace else None
    step_walls = {s.name: [] for s in steps}
    rep_walls, rep_walls_ref, traced_reps = [], [], []
    fingerprints: dict[str, str] = {}
    problems: list[str] = []
    attempted = failed = 0
    begin = time.perf_counter()
    rep = 0
    while True:
        traced = tracer is not None and rep > 0
        if traced and rep == 1:
            tracer.install()
        wall = wall_ref = 0.0
        probe_before = host_probe()
        for step in steps:
            lax_oleinik.clear_potential_cache()
            gc.collect()
            if traced:
                tracer.repetition, tracer.paused = rep, False
            t0 = time.perf_counter()
            try:
                result = tracer.span(STEP_SPAN, step.run) if traced else step.run()
                error = None
            except Exception:  # a failing step counts as failed; the run goes on
                result, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            wall += dt
            probe_after = host_probe()
            wall_ref += dt * PROBE_NOMINAL_S / (0.5 * (probe_before + probe_after))
            probe_before = probe_after
            step_walls[step.name].append(dt)
            if traced:
                tracer.paused = True
            attempted += 1
            try:
                found = [error] if error else step.check(result)
                fp = _fingerprint(step.outdir)
                if fp is not None and fingerprints.setdefault(step.name, fp) != fp:
                    found.append("report.json / diagnostics.csv differ from the first repetition")
            except (OSError, ValueError, KeyError, TypeError, IndexError):  # missing or malformed output
                found = [traceback.format_exc(limit=3)]
            if found:
                failed += 1
                problems.extend(f"rep {rep} {step.name}: {p}" for p in found)
        rep_walls.append(wall)
        rep_walls_ref.append(wall_ref)
        if traced:
            traced_reps.append(rep)
        rep += 1
        if time.perf_counter() - begin >= args.seconds and (tracer is None or len(traced_reps) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rep_walls": rep_walls,
        "rep_walls_ref": rep_walls_ref,
        "step_walls": step_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        tracer.restore()
        table = tracer.table()
        per_rep = [layer_metrics(tracer, table, r) for r in traced_reps]
        traced_walls = [rep_walls[r] for r in traced_reps]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["bench.traced_wall_s"] = statistics.median(traced_walls)
        metrics["bench.trace_overhead_s"] = metrics["bench.traced_wall_s"] - rep_walls[0]
        unsteady = sorted(k for k in per_rep[0] if not k.endswith("_s")
                          and len({m[k] for m in per_rep}) > 1)
        metrics["bench.count_mismatches"] = len(unsteady)
        result["trace"] = metrics
        result["unsteady_counts"] = unsteady
        result["traced_reps"] = len(traced_reps)
        result["shares"] = step_shares(tracer, table, traced_reps[0], [s.name for s in steps])
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
