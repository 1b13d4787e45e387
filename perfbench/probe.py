"""A host-speed probe: fixed pure-Python work, timed.

The host's speed drifts with the load of other tenants, by up to 2x over
minutes on a shared 2-vCPU host, and the drift moves interpreter-bound code
most. The benchmark times this probe next to every step and every set-up,
and rescales those times to the probe's nominal speed.
"""

import time

PROBE_NOMINAL_S = 0.03  # the probe's time on this host when no other tenant competes


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's current interpreter speed."""
    t0 = time.perf_counter()
    d = {}
    for i in range(300_000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.perf_counter() - t0
