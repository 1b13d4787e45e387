#!/usr/bin/env python3
"""Pendulum study: critical value, barrier, weak solutions, calibrated shots.

Prints the critical constant, barrier diagnostics at the potential
maximum, the refined fixed-point residual at two resolutions, and a few
forward calibrated shots seeded on the kink-free arc of the positive weak
solution. Exits 0 (PASS) when the critical value is within 5e-3 of the
pendulum's max V = 1, the residual falls below 0.75 of itself from 256 to 512
points, and the domination minimum defect is at least -5e-3 (`calibrate`'s
default tolerance); otherwise it names each check that failed and exits 1.
"""

import sys
from pathlib import Path

from birkhoff_lab.calibration import calibrated_curve, domination_check, spacetime_from_grid
from birkhoff_lab.errors import KinkAtSeed
from birkhoff_lab.hamiltonians import pendulum
from birkhoff_lab.lax_oleinik import mane_critical_value, peierls_barrier, positive_weak_kam
from birkhoff_lab.reports import grid_to_csv, potential_to_csv


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/pendulum")
    outdir.mkdir(parents=True, exist_ok=True)
    h = pendulum()

    alpha0 = mane_critical_value(h, 256)
    print(f"critical value: {alpha0!r}")

    residuals = {}
    for n in (256, 512):
        barrier = peierls_barrier(h, 0, n)
        u, res = positive_weak_kam(h, alpha0, 0, 0.0, n, barrier=barrier)
        residuals[n] = res
        print(f"N={n}: barrier(0,0) = {barrier.matrix.entries[0, 0]:.3e}, "
              f"fixed-point residual = {res:.3e}")
        if n == 256:
            potential_to_csv(barrier.matrix, outdir / "barrier.csv")
            grid_to_csv(u, outdir / "weak_kam_solution.csv")
    ratio = residuals[512] / residuals[256]
    print(f"residual halving 256 -> 512: {ratio:.3f}")

    # calibrated shots want a sharp derivative profile: rebuild at a finer
    # single-step span before seeding on the kink-free arc
    sharp = peierls_barrier(h, 0, 256, max_span=1 / 16)
    u_sharp, _ = positive_weak_kam(h, alpha0, 0, 0.0, 256, barrier=sharp)
    st = spacetime_from_grid(u_sharp, 0.0, 1.0, alpha0)
    for seed in (0.2, 0.45, 0.65):
        try:
            rep = calibrated_curve(st, h, 0.0, seed, 0.25)
        except KinkAtSeed:
            print(f"  seed {seed}: kink, skipped")
            continue
        print(f"  seed {seed}: defect {rep.defect:+.2e} "
              f"momentum {rep.max_momentum_residual:.2e} "
              f"hj {rep.max_hj_residual:.2e}")
    dom = domination_check(st, h, count=1000, seed=0)
    print(f"domination over 1000 random curves: min defect {dom.min_defect:+.3e}")

    failed = [name for name, ok in (
        ("critical value within 5e-3 of max V = 1", abs(alpha0 - 1.0) <= 5e-3),
        ("residual ratio 256 -> 512 below 0.75", ratio < 0.75),
        ("domination min defect at least -5e-3", dom.min_defect >= -5e-3),
    ) if not ok]
    for name in failed:
        print(f"FAILED: {name}")
    print(f"verdict: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
