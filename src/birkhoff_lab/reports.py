"""Report emission: diagnostics CSV, versioned JSON, self-contained SVG plots.

Everything written here is byte-deterministic for a fixed bundle: textio
writes the files (CSV cells by its one rule, JSON with sorted keys), and the
SVG writer formats coordinates with a fixed precision and embeds no external
assets. It scales the coordinates of each polyline in numpy, by the same IEEE
operations in the same order as a scalar loop would, and formats them with
one `%.4f` pass per polyline.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .curves import curve_to_csv
from .experiments import DiagnosticsRecord, ReportBundle
from .grids import GridFunction
from .lax_oleinik import PotentialMatrix
from .textio import write_csv, write_json, write_text

SCHEMA_VERSION = 3
PLOT_WIDTH, PLOT_HEIGHT = 640, 420
HISTOGRAM_BINS = 24

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


# ---------------------------------------------------------------------------
# CSV emitters


def grid_to_csv(u: GridFunction, path) -> None:
    """`index,q,value` rows over the uniform grid."""
    write_csv(path, ["index", "q", "value"], [np.arange(u.resolution), u.nodes, u.values])


def potential_to_csv(pm: PotentialMatrix, path) -> None:
    """Matrix CSV with coordinate row/column headers."""
    grid = np.arange(pm.resolution) / pm.resolution
    write_csv(path, ["y\\x", *grid], [grid, *pm.entries.T])


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled for byte determinism)


def _svg_frame(title):
    """The opening parts of a plot (page, title, axis box) and the box corners."""
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    x0, y0, x1, y1 = 60, 30, width - 20, height - 45
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{width / 2:.1f}" y="18" font-family="monospace" font-size="13" '
        f'text-anchor="middle">{title}</text>\n',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="black" stroke-width="1"/>\n',
    ]
    return parts, (x0, y0, x1, y1)


def _x_ticks(x0, x1, y1, lo, hi):
    return [
        f'<text x="{x0 + frac * (x1 - x0):.1f}" y="{y1 + 16}" font-family="monospace" '
        f'font-size="11" text-anchor="middle">{val:.4g}</text>\n'
        for frac, val in ((0.0, lo), (1.0, hi))
    ]


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(vals, dtype=float) - lo) / span * (out_hi - out_lo)


def _range(pieces) -> tuple[float, float]:
    """(min, max) over every value of the pieces, and (0.0, 1.0) when there
    are none.

    Python's min/max over the values as floats: ndarray.min would pick -0.0
    from a tie with 0.0 and label a tick "-0". The list is dropped on return,
    before any polyline is drawn.
    """
    values = np.concatenate([np.empty(0), *(np.asarray(p, dtype=float) for p in pieces)]).tolist()
    return (min(values), max(values)) if values else (0.0, 1.0)


def polyline_plot_svg(path, series, title, xlabel="", ylabel=""):
    """series: list of (name, xs, ys), each drawn in one colour with one legend
    entry; xs and ys are lists of pieces, each drawn as one polyline.

    y values that all agree to rounding are drawn as equal, on the bottom edge
    of a unit y-range, so a last-bit difference is not stretched over the plot.
    """
    lo_x, hi_x = _range(piece for _, xs, _ in series for piece in xs)
    lo_y, hi_y = _range(piece for _, _, ys in series for piece in ys)
    if hi_y - lo_y <= 4 * np.finfo(float).eps * max(abs(lo_y), abs(hi_y)):
        hi_y = lo_y + 1.0
    parts, (x0, y0, x1, y1) = _svg_frame(title)
    for k, (name, xs, ys) in enumerate(series):
        if not any(map(len, xs)):
            continue
        color = _PALETTE[k % len(_PALETTE)]
        for piece_x, piece_y in zip(xs, ys):
            px = _scale(piece_x, lo_x, hi_x, x0, x1)
            py = _scale(piece_y, lo_y, hi_y, y1, y0)
            pts = " ".join(["%.4f,%.4f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>\n')
        if name:
            parts.append(
                f'<text x="{x1 - 8}" y="{y0 + 14 + 13 * k}" font-family="monospace" '
                f'font-size="11" text-anchor="end" fill="{color}">{name}</text>\n'
            )
    parts.extend(_x_ticks(x0, x1, y1, lo_x, hi_x))
    for frac, val in ((0.0, lo_y), (1.0, hi_y)):
        parts.append(
            f'<text x="{x0 - 6}" y="{y1 - frac * (y1 - y0) + 4:.1f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{val:.4g}</text>\n'
        )
    if xlabel:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{PLOT_HEIGHT - 8}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>\n'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{ylabel}</text>\n'
        )
    write_text(path, "".join(parts) + "</svg>\n")


def histogram_svg(path, values, title):
    """HISTOGRAM_BINS equal bins over the range of the values, widened by 1/2
    on each side, as numpy widens a single value's, when it is too narrow
    for that many distinct edges (values a few ulps apart)."""
    values = np.asarray(list(values), dtype=float)
    parts, (x0, y0, x1, y1) = _svg_frame(title)
    if len(values):
        lo, hi = float(values.min()), float(values.max())
        if np.any(np.diff(np.linspace(lo, hi, HISTOGRAM_BINS + 1)) <= 0):
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(lo, hi))
        top = max(1, counts.max())
        bw = (x1 - x0) / HISTOGRAM_BINS
        for i, c in enumerate(counts):
            bh = (y1 - y0) * (c / top)
            parts.append(
                f'<rect x="{x0 + i * bw:.3f}" y="{y1 - bh:.3f}" width="{bw:.3f}" '
                f'height="{bh:.3f}" fill="#1f77b4" stroke="black" stroke-width="0.5"/>\n'
            )
        parts.extend(_x_ticks(x0, x1, y1, edges[0], edges[-1]))
    write_text(path, "".join(parts) + "</svg>\n")


# ---------------------------------------------------------------------------
# bundle emission


def emit_reports(bundle: ReportBundle, outdir) -> list[Path]:
    """Write diagnostics.csv, report.json, SVG plots, and any witness curve."""
    out = Path(outdir)
    csv_path = out / "diagnostics.csv"
    names = [f.name for f in fields(DiagnosticsRecord)]
    write_csv(csv_path, names, [[getattr(r, name) for r in bundle.records] for name in names])

    json_path = out / "report.json"
    write_json(json_path, {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "birkhoff-lab", "version": __version__},
        "kind": bundle.kind,
        "verdict": bundle.verdict,
        "reason": bundle.reason,
        "witness": bundle.witness,
        "detectors": bundle.detectors,
        "events": bundle.events,
        "series": {k: [[a, b] for a, b in v] for k, v in bundle.series.items()},
        "config": bundle.config_echo,
        "seed": bundle.seed,
        "record_count": len(bundle.records),
    })
    written = [csv_path, json_path]

    portrait = []
    for n in sorted(bundle.curves):
        # in parameter order, a new piece at each period crossing of the
        # lift: no drawn segment jumps between the sheets of a fold
        c = bundle.curves[n]
        starts = (np.flatnonzero(np.diff(np.floor(c.closed_lift()))) + 1) % c.n_nodes
        pieces = np.split(np.roll(np.arange(c.n_nodes), -starts[0]), np.sort((starts - starts[0]) % c.n_nodes)[1:])
        portrait.append((f"n={n}", [c.q[i] for i in pieces], [c.p[i] for i in pieces]))
    svg1 = out / "phase_portrait.svg"
    polyline_plot_svg(svg1, portrait, "iterates in phase space", "q", "p")
    written.append(svg1)

    series = []
    for name in ("return_forward", "return_backward", "hausdorff", "gauge", "invariance"):
        if name in bundle.series and bundle.series[name]:
            xs, ys = zip(*bundle.series[name])
            series.append((name, [xs], [ys]))
    svg2 = out / "return_distance.svg"
    polyline_plot_svg(svg2, series, "convergence diagnostics", "iterate", "distance")
    written.append(svg2)

    hist_vals = [r.gauge for r in bundle.records]
    if "increments_forward" in bundle.series:
        hist_vals.extend(v for _, v in bundle.series["increments_forward"])
    svg3 = out / "defect_hist.svg"
    histogram_svg(svg3, hist_vals, "gauge / increment histogram")
    written.append(svg3)

    if bundle.witness is not None and bundle.witness in bundle.curves:
        wpath = out / "witness_curve.csv"
        curve_to_csv(bundle.curves[bundle.witness], wpath)
        written.append(wpath)
    return written
