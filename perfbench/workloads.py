"""The benchmark's three workloads, built from a seed.

A workload is a list of stages that run back to back in one process.  A
stage is either one experiment (a validated config passed to
``harness.run_experiment``) or one library call sequence.  Building the
list validates every config and generates every input, which is what
``setup_s`` times; running a stage is what ``wall_s`` times.

Every call into fcqw goes through a module attribute looked up at call
time (``harness.run_experiment``, not a name bound at import), so the
span recorder in ``spans.py`` sees the calls the benchmark makes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from fcqw import circuits, floquet, harness

WORKLOADS = ("noisy_walk", "dense", "spectra")

#: the configs shipped in configs/, in the order the workloads run them
SHIPPED = {
    "noisy_walk": (
        "chiral_robustness",
        "chiral_propagation_noisy",
        "amplitude_scaling_steps",
        "amplitude_scaling_size",
    ),
    "dense": ("chiral_propagation", "nonchiral_localization"),
    "spectra": ("disorder_spectra", "nonchiral_localization_L20"),
}
SHIPPED_CONFIGS = tuple(name for names in SHIPPED.values() for name in names)

#: the noise block of the shipped noisy configs
SHIPPED_NOISE = {"p_cnot": 0.007, "p_1q": 0.0003, "p_readout": 0.01}
TIMES = [0.1, 0.48, 0.86, 1.24, 1.62, 2.0]

REDUCE_TOL = 1e-12
HEFF_TOL = 1e-9


@dataclass
class Stage:
    """One timed operation.  ``run(outdir)`` does the work and returns
    whatever ``verify`` needs; ``verify(outdir, value)`` returns a list of
    problems and the number of checks the program recorded (None for a
    library stage, which records none by design)."""

    name: str
    run: Callable[[Path], object]
    verify: Callable[[Path, object], tuple[list[str], int | None]]


def _experiment(name: str, data: dict) -> Stage:
    cfg = harness.validate_config(data)

    def run(outdir: Path):
        return harness.run_experiment(cfg, outdir)

    def verify(outdir: Path, _value):
        ok, messages = harness.check_result_dir(outdir)
        n_checks = len(json.loads((outdir / "checks.json").read_text())["checks"])
        problems = [] if ok else [f"{name}: {m}" for m in messages if not m.startswith("PASS")]
        return problems, n_checks

    return Stage(name, run, verify)


def _shipped(root: Path, name: str, seed: int, tiny: bool) -> Stage:
    data = json.loads((root / "configs" / f"{name}.json").read_text())
    data["seed"] = seed
    data.pop("output_dir", None)
    if tiny:
        _shrink(data)
    return _experiment(name, data)


def _shrink(data: dict) -> None:
    """Smallest sizes that still run every code path, for the smoke test."""
    if "shots" in data:
        data["shots"] = min(data["shots"], 2000)
    if data["kind"] == "amplitude_scaling":
        data["values"] = data["values"][:3]
        data["sweep_seeds"] = 1
    if data["kind"] == "chiral_robustness":
        data["W_values"] = data["W_values"][:2]
    if data["kind"] == "disorder_spectra":
        data["realizations"] = 4


def _reduce_step(L: int, profile) -> Stage:
    """Reduce one walk step to the one-excitation sector; cross-checked
    against the analytic L x L step operator."""

    def run(_outdir):
        return floquet.reduce_to_single_particle(circuits.build_fcqw_step(L, profile))

    def verify(_outdir, op):
        ref = floquet.fcqw_step_operator(L, profile).matrix
        err = float(np.max(np.abs(op.matrix - ref)))
        return ([] if err <= REDUCE_TOL else [f"reduce_fcqw_step: |diff| = {err:.3e}"]), None

    return Stage(f"reduce_fcqw_step_L{L}", run, verify)


def _reduce_xy(L: int, profile, trotter) -> Stage:
    """Reduce a trotterized XY circuit; the reduction itself raises on
    leakage out of the sector or a non-unitary block."""

    def run(_outdir):
        return floquet.reduce_to_single_particle(circuits.build_xy_trotter(L, profile, trotter))

    return Stage(f"reduce_xy_trotter_L{L}", run, lambda _o, _v: ([], None))


def _effective_hamiltonians(L: int, profiles) -> Stage:
    """-i log U of every chiral realization; cross-checked by expm."""

    def run(_outdir):
        out = []
        for p in profiles:
            op = floquet.fcqw_step_operator(L, p)
            out.append((op.matrix, floquet.effective_hamiltonian(op)))
        return out

    def verify(_outdir, pairs):
        err = max(float(np.max(np.abs(scipy.linalg.expm(1j * h) - u))) for u, h in pairs)
        return ([] if err <= HEFF_TOL else [f"effective_hamiltonian: |expm - U| = {err:.3e}"]), None

    return Stage(f"effective_hamiltonian_L{L}", run, verify)


def build(workload: str, seed: int, root: Path, tiny: bool = False) -> list[Stage]:
    """Validate the configs and generate the inputs of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    stages = []
    if workload == "dense":
        L_walk, L_xy, L_noisy, L_reduce = (10, 8, 6, 8) if tiny else (20, 14, 8, 14)
        noisy_shots = 10 if tiny else 50
        stages.append(
            _experiment(
                f"chiral_propagation_L{L_walk}",
                {"kind": "chiral_propagation", "L": L_walk, "steps": [L_walk], "W": 4.0,
                 "profile": "box", "start_site": 0, "seed": seed},
            )
        )
        stages.append(
            _experiment(
                f"nonchiral_localization_L{L_xy}",
                {"kind": "nonchiral_localization", "L": L_xy, "times": TIMES,
                 "W_values": [0.0, 3.0, 6.0], "profile": "box", "start_site": 3, "J": 1.0,
                 "trotter_n": 8, "method": "statevector", "seed": seed},
            )
        )
        stages.append(
            _experiment(
                f"nonchiral_localization_noisy_L{L_noisy}",
                {"kind": "nonchiral_localization", "L": L_noisy, "times": TIMES,
                 "W_values": [0.0, 6.0], "profile": "uniform" if tiny else "box",
                 "start_site": 3, "J": 1.0, "trotter_n": 8, "method": "statevector",
                 "noise": dict(SHIPPED_NOISE), "shots": noisy_shots, "seed": seed},
            )
        )
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(L_reduce,)))
        profile = circuits.PotentialProfile.random_symmetric(L_reduce, 4.0, rng)
        stages.append(_reduce_step(L_reduce, profile))
        stages.append(_reduce_xy(L_reduce, profile, circuits.TrotterConfig(1.0, 1.0, 8)))
    elif workload == "spectra":
        L, realizations = (10, 8) if tiny else (40, 400)
        stages.append(
            _experiment(
                f"disorder_spectra_L{L}",
                {"kind": "disorder_spectra", "L": L, "W": 4.0,
                 "realizations": realizations, "seed": seed},
            )
        )
        ensemble = floquet.DisorderEnsemble(realizations, 4.0, "uniform_symmetric", seed)
        stages.append(_effective_hamiltonians(L, floquet.sample_disorder_profiles(ensemble, L)))
    stages += [_shipped(root, name, seed, tiny) for name in SHIPPED[workload]]
    return stages
