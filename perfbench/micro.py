"""Layer microbenchmarks of ``statevec``, called through its public
functions on fixed inputs (independent of the workload seed).

At L=20 the state is 16 MiB, which fits in a 105 MiB L3 cache, so these
are cache-resident figures.  ``apply_gate`` copies the state before the
kernel runs, so each figure includes one copy.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from fcqw import statevec

REPEATS = 5
RNG_SHOTS = 1000


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def statevec_metrics(L: int = 20) -> dict[str, float]:
    rng = np.random.default_rng(12345)
    amps = rng.standard_normal(1 << L) + 1j * rng.standard_normal(1 << L)
    state = statevec.StateVector(L, amps / np.linalg.norm(amps))
    lo, hi = L // 3, 2 * L // 3
    gates = {
        "rz": statevec.rz(hi, 0.3),
        "h": statevec.h(hi),
        "hy": statevec.hy(hi),
        "cnot": statevec.cnot(lo, hi),
        "swap": statevec.swap(lo, hi),
    }
    out = {}
    for name, gate in gates.items():
        statevec.apply_gate(state, gate)  # warm the allocator
        t = _median_time(lambda: statevec.apply_gate(state, gate))
        out[f"statevec.{name}_ns_per_amp"] = t / (1 << L) * 1e9

    def draw_streams():
        for s in range(RNG_SHOTS):
            statevec.shot_rng(7, s)

    out["statevec.shot_rng_us"] = _median_time(draw_streams) / RNG_SHOTS * 1e6
    return out
