#!/usr/bin/env python3
"""Free-flow shock case: the initial graph folds at t* = 1/2.

With v = sin(2 pi q) / (2 pi^2) the characteristics q + t v'(q) cross once
1 + t v''(q) hits zero, so the first integer iterate is already non-graph and
the detector must stay silent in at least one direction; the consistent
outcome is the contrapositive verdict.
"""

import math
import sys
from pathlib import Path

from birkhoff_lab.experiments import ExperimentConfig, run_iteration_experiment
from birkhoff_lab.hamiltonians import TrigPolynomial, free_hamiltonian
from birkhoff_lab.reports import emit_reports


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/shock")
    amp = 1.0 / (2 * math.pi**2)
    cfg = ExperimentConfig(
        hamiltonian=free_hamiltonian(),
        initial_potential=TrigPolynomial.from_coeffs([(0, 1, 0.0, amp)]),
        n_max=4,
        m_max=4,
    )
    bundle = run_iteration_experiment(cfg)
    emit_reports(bundle, outdir)
    print(f"verdict: {bundle.verdict} | {bundle.reason}")
    for r in bundle.records:
        print(
            f"  n={r.n:+d}: graph={r.is_graph} folds={r.fold_count} "
            f"hausdorff={r.hausdorff_to_candidate:.3e} gauge={r.gauge:.3e}"
        )
    return 0 if bundle.verdict == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
