"""Command-line front end.

Subcommands: flow, potential, mane, barrier, spectral, calibrate, birkhoff,
recurrence, invariance. Global flags --config/--out/--seed/--resolution/
--quiet. Exit codes: 0 PASS, 1 FAIL, 2 INCONCLUSIVE, >= 10 errors (details on
stderr unless --quiet).

A subcommand flag is something a caller varies: the calibration horizon and
tolerance (experiments.CALIBRATION_HORIZON, CALIBRATION_TOLERANCE) are
constants.

Potentials take their settings from experiments.resolve_potential_settings
and alpha0 from experiments.resolve_alpha0, except in `mane` and `barrier`,
which ignore a pinned alpha0: `mane` computes the critical value (Karp's
minimum cycle mean of the one-period potential), and `barrier` normalizes by
its own one-period potential's, the only constant its Kleene star is finite
at. `barrier` exits 0 or >= 10, never 2.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import calibrated_curve, domination_check
from .errors import BirkhoffLabError, KinkAtSeed
from .experiments import (
    CALIBRATION_HORIZON,
    CALIBRATION_TOLERANCE,
    ExperimentConfig,
    lax_spacetime,
    load_config,
    resolve_potential_settings,
    run_autonomous_invariance,
    run_iteration_experiment,
    run_recurrence_experiment,
)
from .flow import PhasePoint, trajectory
from .lax_oleinik import mane_critical_value, peierls_barrier, potential
from .reports import emit_reports, potential_to_csv
from .spectral import fqi_from_csv, global_invariants, selector_function
from .textio import make_dir, write_csv, write_json

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_ERROR = 0, 1, 2, 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; that slot is taken
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _verdict_exit(verdict: str) -> int:
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(verdict, EXIT_INCONCLUSIVE)


def _count(text: str) -> int:
    """argparse type: a positive integer."""
    value = int(text)  # argparse reports "x" as an "invalid integer value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite(text: str) -> float:
    """argparse type: a finite float (inf and nan reach no verdict)."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="birkhoff-lab", description=__doc__)
    p.add_argument("--version", action="version", version=f"birkhoff-lab {__version__}")
    p.add_argument("--config", type=str, default=None, help="INI config path")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override random seed")
    p.add_argument("--resolution", type=int, default=None, help="override grid resolution")
    p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("flow", help="integrate one trajectory")
    sp.add_argument("--q", type=_finite, default=0.0)
    sp.add_argument("--p", type=_finite, default=0.5)
    sp.add_argument("--t0", type=_finite, default=0.0)
    sp.add_argument("--t1", type=_finite, default=1.0)

    sp = sub.add_parser("potential", help="action potential matrix")
    sp.add_argument("--t0", type=_finite, default=0.0)
    sp.add_argument("--t1", type=_finite, default=1.0)

    sub.add_parser("mane", help="critical value (a pinned alpha0 is not used)")

    sub.add_parser("barrier", help="Peierls barrier matrix (a pinned alpha0 is not used)")

    sp = sub.add_parser("spectral", help="invariants of a sampled CSV instance")
    sp.add_argument("--fqi", type=str, required=True, help="CSV path (sidecar .meta.json)")

    sp = sub.add_parser("calibrate", help="domination sweep and calibrated shots")
    sp.add_argument("--curves", type=_count, default=1000)

    sub.add_parser("birkhoff", help="bidirectional iteration experiment")
    sub.add_parser("recurrence", help="value-function recurrence experiment")
    sub.add_parser("invariance", help="autonomous invariance experiment")
    return p


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.resolution is not None:
        config = replace(config, resolution=args.resolution)
    if args.out is not None:
        config = replace(config, outdir=args.out)
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help/--version or argument errors
        return exc.code if isinstance(exc.code, int) else 0
    try:
        config = _apply_overrides(load_config(args.config), args)
        out = Path(config.outdir)
        make_dir(out)  # an unwritable --out fails here, before any work
        say = (lambda *a: None) if args.quiet else print
        h = config.hamiltonian
        settings = resolve_potential_settings(config)

        if args.command == "flow":
            tr = trajectory(h, PhasePoint(args.q, args.p), args.t0, args.t1, config.flow_settings)
            write_csv(out / "trajectory.csv", ["t", "q", "p", "action_increment"],
                      [tr.times, tr.q, tr.p, tr.action_increments])  # no increment after the last knot
            say(f"endpoint q={float(tr.q[-1])!r} p={float(tr.p[-1])!r} action={tr.total_action!r}")
            return EXIT_PASS

        if args.command == "potential":
            pm = potential(h, args.t0, args.t1, **settings)
            potential_to_csv(pm, out / "potential.csv")
            say(f"potential [{args.t0},{args.t1}] written; min={float(pm.entries.min())!r}")
            return EXIT_PASS

        if args.command == "mane":
            alpha0 = mane_critical_value(h, **settings)
            write_json(out / "mane.json", {"alpha0": alpha0})
            say(f"alpha0 = {alpha0!r}")
            return EXIT_PASS

        if args.command == "barrier":
            res = peierls_barrier(h, 0.0, **settings)
            potential_to_csv(res.matrix, out / "barrier.csv")
            write_json(out / "barrier.json", {"alpha0": res.alpha0, "converged": True})
            say(f"barrier at alpha0 = {res.alpha0!r}")
            return EXIT_PASS

        if args.command == "spectral":
            s = fqi_from_csv(args.fqi)
            payload = {"index": s.index, "fiber_dims": s.fiber_dims}
            if s.base_resolution:
                sel = selector_function(s)
                unit, top = sel.unit, sel.top
                payload["selector_oscillation"] = sel.values.oscillation()
                payload["selector_lipschitz"] = sel.lipschitz
                payload["bounds_ok"] = sel.bounds_ok
            else:
                unit, top = global_invariants(s)
            for key, sv in (("unit", unit), ("top", top)):
                if sv is not None:
                    payload[key] = {"value": sv.value, "certificate": sv.certificate.value,
                                    "witness": list(sv.witness)}
            write_json(out / "spectral.json", payload)
            say(json.dumps(payload, sort_keys=True))
            return EXIT_PASS

        if args.command == "calibrate":
            u = lax_spacetime(config)
            dom = domination_check(u, h, count=args.curves, seed=config.seed)
            shots = []
            rng = np.random.default_rng(config.seed)
            for q0 in rng.uniform(0, 1, 8):
                try:
                    rep = calibrated_curve(u, h, 0.0, float(q0), CALIBRATION_HORIZON, config.flow_settings)
                except KinkAtSeed:
                    continue
                shots.append(rep.to_dict())
            ok = dom.min_defect >= -CALIBRATION_TOLERANCE
            write_json(out / "calibration.json", {
                "min_defect": dom.min_defect,
                "curves": dom.count,
                "tolerance": CALIBRATION_TOLERANCE,
                "verdict": "PASS" if ok else "FAIL",
                "calibrated_shots": shots,
            })
            say(f"min defect {dom.min_defect!r} over {dom.count} curves -> {'PASS' if ok else 'FAIL'}")
            return EXIT_PASS if ok else EXIT_FAIL

        if args.command == "birkhoff":
            bundle = run_iteration_experiment(config)
        elif args.command == "recurrence":
            bundle = run_recurrence_experiment(config)
        elif args.command == "invariance":
            bundle = run_autonomous_invariance(config)
        else:  # pragma: no cover
            raise AssertionError(args.command)
        emit_reports(bundle, out)
        say(f"verdict: {bundle.verdict} ({bundle.reason})")
        return _verdict_exit(bundle.verdict)

    except BirkhoffLabError as exc:
        if not args.quiet:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        if not args.quiet:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR + 1


if __name__ == "__main__":
    raise SystemExit(main())
