#!/usr/bin/env python3
"""birkhoff-lab benchmark: time to a verdict, set-up, memory and correctness.

    python3 perfbench/run.py --workload weak_kam --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the root of a source checkout (the package is imported from
`src/`). Each run starts fresh single-threaded processes, one at a time:
one that only sets up (import plus input generation), the worker, which
also sets up and then repeats the workload's steps for `--seconds` seconds
(at least once), and one more that only sets up. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. `--all` runs every workload untraced and traced and prints
one table. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import PROBE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curve_iteration", "weak_kam", "spectral_invariants", "rk4_flow")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker; return (seconds until it printed `ready`, its other stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                            env=_env(), stdout=subprocess.PIPE, bufsize=0)
    ready, out = None, b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError("worker ran past the deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and out.startswith(b"ready\n"):
                ready = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return ready, out.decode("utf-8").splitlines()[1:]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up SETUP_SAMPLES times, run the workload once; return the worker's result."""
    if not (ROOT / "src" / "birkhoff_lab" / "__init__.py").is_file():
        raise BenchError(f"no birkhoff_lab sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{workload}-{seed}-{os.getpid()}"
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def setup(argv: list[str]) -> tuple[float, float, list[str]]:
        """(set-up seconds, the same at the probe's nominal speed, remaining lines)."""
        ready, lines = _spawn(base + argv, deadline)
        if not lines or not lines[0].startswith("probe "):
            raise BenchError("worker printed no probe time")
        return ready, ready * PROBE_NOMINAL_S / float(lines[0].split()[1]), lines[1:]

    try:
        # set-up samples before and after the worker, so one slow spell of
        # the host does not decide the median
        samples = [setup(["--work", str(work / "setup0"), "--setup-only"])]
        spans = scratch / f"spans-{workload}-seed{seed}.npz"
        samples.append(setup(["--trace", str(trace), "--work", str(work / "run"),
                              "--spans", str(spans)]))
        samples += [setup(["--work", str(work / f"setup{i}"), "--setup-only"])
                    for i in range(1, SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = samples[1][2]
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setups"] = [s[0] for s in samples]
    result["setups_ref"] = [s[1] for s in samples]
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_host(result: dict, **inputs) -> None:
    host = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **result["versions"],
        "threads": {v: "1" for v in THREAD_VARS},
        **inputs,
    }
    print("host " + json.dumps(host, sort_keys=True))


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable lines; return the final result object."""
    reps, setups = result["rep_walls"], result["setups"]
    _print_host(result, workload=workload, seed=seed, trace=trace)
    for name, walls in result["step_walls"].items():
        print(f"step {name}: median {statistics.median(walls):.3f} s over {len(walls)} samples")
    for p in result["problems"]:
        print(f"check failed: {p}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac {fail_frac:.4f} ratio ({result['failed']} of {result['attempted']} steps)")
    if trace:
        trace_metrics = result["trace"]
        print(f"traced repetitions: {result['traced_reps']} (after 1 untraced)")
        for key in result["unsteady_counts"]:
            print(f"work count differs between repetitions: {key}")
        for step, share in result["shares"].items():
            top = ", ".join(f"{k} {v:.0%}" for k, v in share["top"])
            print(f"share {step} ({share['wall_s']:.2f} s): {top}")
        metrics = {k: _metric(v, _unit(k)) for k, v in sorted(trace_metrics.items())}
    else:
        refs = result["rep_walls_ref"]
        print(f"wall_s, as timed: median {statistics.median(reps):.4f} s over {len(reps)} "
              f"repetitions ({', '.join(f'{w:.3f}' for w in reps)})")
        print(f"wall_ref_s median {statistics.median(refs):.4f} s over {len(refs)} repetitions "
              f"({', '.join(f'{w:.3f}' for w in refs)})")
        print(f"setup, as timed: median {statistics.median(setups):.4f} s over {len(setups)} "
              f"processes ({', '.join(f'{w:.3f}' for w in setups)})")
        print(f"setup_s median {statistics.median(result['setups_ref']):.4f} s over "
              f"{len(setups)} processes ({', '.join(f'{w:.3f}' for w in result['setups_ref'])})")
        print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB (1 process)")
        metrics = {
            "wall_ref_s": _metric(statistics.median(result["rep_walls_ref"]), "s"),
            "setup_s": _metric(statistics.median(result["setups_ref"]), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def run_all(seed: int, seconds: float) -> None:
    rows = []
    for workload in WORKLOADS:
        plain = run_once(workload, seed, seconds, 0)
        traced = run_once(workload, seed, seconds, 1)
        rows.append((workload, plain, traced))
    _print_host(rows[0][1], seed=seed, seconds=seconds)
    print(f"{'workload':<20} {'wall_s':>14} {'wall_ref_s':>10} {'setup_s':>12} "
          f"{'peak_rss_mb':>12} {'fail_frac':>10} {'overhead_s':>11}")
    for workload, plain, traced in rows:
        reps, setups = plain["rep_walls"], plain["setups"]
        overhead = traced["trace"]["bench.traced_wall_s"] - statistics.median(reps)
        print(f"{workload:<20} {statistics.median(reps):>8.3f} (n={len(reps)}) "
              f"{statistics.median(plain['rep_walls_ref']):>10.3f} "
              f"{statistics.median(plain['setups_ref']):>6.3f} (n={len(setups)}) "
              f"{plain['peak_rss_mb']:>12.1f} "
              f"{plain['failed'] / plain['attempted']:>10.4f} {overhead:>11.3f}")
    print("units: wall_s s as timed and wall_ref_s s at the probe's nominal speed (medians "
          "over repetitions), setup_s s at the probe's nominal speed (median over processes), "
          "peak_rss_mb MB, fail_frac ratio (failed / attempted steps), "
          "overhead_s s (traced wall_s - untraced wall_s)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            run_all(args.seed, args.seconds)
            return 0
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
        final = report(args.workload, args.seed, args.trace, result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
