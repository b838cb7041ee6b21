"""Span recorder that wraps fcqw's coarse public entry points from outside.

``Recorder.installed()`` replaces each entry point in every fcqw module
that bound it (``harness.run_noisy`` and ``noise.run_noisy`` are the same
function object, so both names get the wrapper) and restores the
originals on exit.  Calls made inside fcqw therefore nest:
``harness.run_experiment`` > ``noise.run_noisy`` > ``circuits.simulate``.
Per-gate kernels are not wrapped.

A span is (name, start, end, parent index, counts).  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its direct children.  The benchmark opens one ``bench.*``
span per stage, so the self times of all spans add up to the traced
wall time, and the ``bench`` spans' self time is the benchmark's own.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import fcqw
from fcqw import circuits, floquet, harness, noise, observables, qasm

#: every module that may have bound a wrapped entry point by name
MODULES = (fcqw, harness, noise, circuits, floquet, observables, qasm)

BUILDERS = (
    "build_fcqw_walk", "build_fcqw_step", "build_xy_trotter",
    "build_hopping_ladder", "build_onsite_layer",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_circuit(args, kwargs, result):
    return {"gates": len(result)}


def _count_simulate(args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "circuit")
    return {"amp_gate_updates": len(circuit) << circuit.num_qubits}


def _count_lowered(args, kwargs, result):
    n_cnot = sum(1 for g in result.instructions if g.kind == "cnot")
    return {"gates": len(result), "cnots": n_cnot}


def _count_run_noisy(args, kwargs, result):
    spec = _arg(args, kwargs, 2, "spec")
    return {"shots": result.shots, "p_cnot": spec.p_cnot, "p_1q": spec.p_1q}


def _count_qasm(args, kwargs, result):
    return {"bytes": len(result.encode())}


#: (module, function, counter) for every wrapped entry point
ENTRY_POINTS = (
    [(harness, "run_experiment", None),
     (noise, "run_noisy", _count_run_noisy),
     (noise, "amplitude_decay_sweep", None),
     (circuits, "simulate", _count_simulate),
     (circuits, "lower_swaps", _count_lowered)]
    + [(circuits, name, _count_circuit) for name in BUILDERS]
    + [(qasm, "emit_qasm3", _count_qasm)]
    + [(observables, name, None) for name in (
        "site_density_exact", "site_density_counts",
        "restricted_site_density_counts", "post_process")]
    + [(floquet, name, None) for name in (
        "quasi_energy_spectrum", "fcqw_step_operator", "xy_step_operator",
        "reduce_to_single_particle", "effective_hamiltonian", "winding_number")]
)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            # counted after the span closes: the counting is the
            # benchmark's own time, charged to the enclosing span
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point in every module that bound it."""
        replaced = []
        for home, fname, counter in ENTRY_POINTS:
            original = getattr(home, fname)
            layer = home.__name__.rsplit(".", 1)[-1]
            wrapper = self._wrap(f"{layer}.{fname}", original, counter)
            for module in MODULES:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)
                    replaced.append((module, fname, original))
        try:
            yield self
        finally:
            for module, fname, original in replaced:
                setattr(module, fname, original)

    def self_times(self) -> list[float]:
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out


def layer_metrics(rec: Recorder, shipped: tuple[str, ...]) -> dict:
    """Per-layer figures from one traced round; every value is a float."""
    spans = rec.spans
    selfs = rec.self_times()
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def pick(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def total(idx):
        return float(sum(spans[i].duration for i in idx))

    def self_total(idx):
        return float(sum(selfs[i] for i in idx))

    def counted(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    m: dict[str, float] = {}

    builder_names = {f"circuits.{b}" for b in BUILDERS}
    outer_builders = [i for i in pick(*builder_names)
                      if spans[i].parent < 0 or spans[spans[i].parent].name not in builder_names]
    sims = pick("circuits.simulate")
    amp_updates = counted(sims, "amp_gate_updates")
    m["circuits.build_s"] = total(outer_builders)
    m["circuits.gates_built"] = float(counted(outer_builders, "gates"))
    m["circuits.simulate_s"] = total(sims)
    m["circuits.amp_gate_updates"] = float(amp_updates)
    m["circuits.ns_per_amp_gate"] = total(sims) / amp_updates * 1e9 if amp_updates else 0.0
    # computed, not measured: one complex128 read and one write per
    # amplitude per gate
    m["circuits.bytes_moved_computed"] = float(amp_updates * 32)
    m["circuits.self_s"] = self_total([i for i, s in enumerate(spans)
                                       if s.name.startswith("circuits.")])

    noisy = pick("noise.run_noisy")
    sweeps = pick("noise.amplitude_decay_sweep")
    lowered = {spans[c].parent: spans[c].counts for c in pick("circuits.lower_swaps")}
    statevector = {i for i in noisy
                   if any(spans[c].name == "circuits.simulate" for c in children.get(i, []))}
    classical = [i for i in noisy if i not in statevector]
    shots_c = counted(classical, "shots")
    shots_s = counted(statevector, "shots")
    gate_shots = fault_shots = 0.0
    for i in noisy:
        c, low = spans[i].counts, lowered.get(i, {"gates": 0, "cnots": 0})
        gate_shots += low["gates"] * c["shots"]
        fault_shots += (c["p_cnot"] * low["cnots"]
                        + c["p_1q"] * (low["gates"] - low["cnots"])) * c["shots"]
    shots = shots_c + shots_s
    m["noise.run_noisy_s"] = total(noisy)
    m["noise.self_s"] = self_total(noisy + sweeps)
    m["noise.shots_classical"] = float(shots_c)
    m["noise.shots_statevector"] = float(shots_s)
    m["noise.us_per_shot_classical"] = total(classical) / shots_c * 1e6 if shots_c else 0.0
    m["noise.us_per_shot_statevector"] = total(statevector) / shots_s * 1e6 if shots_s else 0.0
    m["noise.lowered_gates_per_shot"] = gate_shots / shots if shots else 0.0
    m["noise.expected_faults_per_shot"] = fault_shots / shots if shots else 0.0
    m["noise.sweep_s"] = total(sweeps)

    spectra = pick("floquet.quasi_energy_spectrum")
    m["floquet.spectrum_s"] = total(spectra)
    m["floquet.spectrum_calls"] = float(len(spectra))
    m["floquet.operator_s"] = total(pick("floquet.fcqw_step_operator", "floquet.xy_step_operator"))
    m["floquet.reduce_self_s"] = self_total(pick("floquet.reduce_to_single_particle"))
    m["floquet.heff_s"] = total(pick("floquet.effective_hamiltonian"))
    m["floquet.winding_s"] = total(pick("floquet.winding_number"))
    m["floquet.self_s"] = self_total([i for i, s in enumerate(spans)
                                      if s.name.startswith("floquet.")])

    obs = [i for i, s in enumerate(spans) if s.name.startswith("observables.")]
    m["observables.s"] = total(obs)
    m["observables.calls"] = float(len(obs))

    emits = pick("qasm.emit_qasm3")
    m["qasm.emit_s"] = total(emits)
    m["qasm.bytes"] = float(counted(emits, "bytes"))

    runs = pick("harness.run_experiment")
    m["harness.run_experiment_s"] = total(runs)
    m["harness.self_s"] = self_total(runs)
    m["harness.experiments"] = float(len(runs))
    bench = [i for i, s in enumerate(spans) if s.name.startswith("bench.")]
    stage_time = {spans[i].name[len("bench."):]: spans[i].duration for i in bench}
    for name in shipped:
        m[f"harness.config.{name}_s"] = float(stage_time.get(name, 0.0))

    m["trace.wall_s"] = total(bench)
    m["trace.bench_self_s"] = self_total(bench)
    m["trace.spans"] = float(len(spans))
    return m
