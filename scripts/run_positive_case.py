#!/usr/bin/env python3
"""Manufactured recurrent family: both pipelines plus full report emission.

The shifted-quadratic family with a traveling-wave profile has an invariant
graph that returns to itself every period, so the bidirectional detector
fires at every integer and all iterates stay graphs.
"""

import sys
from pathlib import Path

from birkhoff_lab.experiments import load_config, run_iteration_experiment, run_recurrence_experiment
from birkhoff_lab.reports import emit_reports


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/positive")
    cfg = load_config(None)

    bundle = run_iteration_experiment(cfg)
    emit_reports(bundle, outdir / "iteration")
    print(f"iteration: {bundle.verdict} | {bundle.reason}")

    rec = run_recurrence_experiment(cfg)
    emit_reports(rec, outdir / "recurrence")
    print(f"recurrence: {rec.verdict} | {rec.reason}")
    worst = max(v for _, v in rec.series["return_forward"])
    print(f"worst return distance over {cfg.n_max} periods: {worst:.3e}")
    return 0 if bundle.verdict == "PASS" and rec.verdict == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
