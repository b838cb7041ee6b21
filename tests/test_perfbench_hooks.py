"""The names the benchmark in ``perfbench/`` reaches into fcqw for.

``perfbench/smoke.py`` runs the benchmark end to end but takes about a
minute; these checks only resolve the hooks, so a renamed or deleted
entry point fails here first.
"""
import importlib
import re
from pathlib import Path

import pytest

from fcqw import harness, noise, statevec
from fcqw.circuits import Circuit, PotentialProfile, build_fcqw_walk
from fcqw.noise import NoiseSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_span_entry_point_resolves(perfbench_module):
    spans = perfbench_module("spans")
    for module, name, _ in spans.ENTRY_POINTS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_every_statevec_name_micro_calls_resolves(perfbench_module):
    perfbench_module("micro")
    called = set(re.findall(r"\bstatevec\.(\w+)\(", (PERFBENCH / "micro.py").read_text()))
    assert {"StateVector", "rz", "h", "hy", "cnot", "swap", "apply_gate", "shot_rng"} <= called
    for name in called:
        assert hasattr(statevec, name), name


@pytest.mark.parametrize("superposed", [False, True], ids=["classical", "statevector"])
def test_run_noisy_span_counts_shots_and_probabilities(perfbench_module, superposed):
    # called as the harness calls it; the trace tells the sampler path by
    # a circuits.simulate child span
    spans = perfbench_module("spans")
    L = 4
    circuit = build_fcqw_walk(L, PotentialProfile.uniform(L, 0.0), 2)
    if superposed:
        circuit = Circuit(L, (statevec.h(0), *circuit.instructions))
    spec = NoiseSpec(p_cnot=0.02, p_1q=0.001, seed=1)
    with spans.Recorder().installed() as rec:
        noise.run_noisy(circuit, 1, spec, 10)
    names = [s.name for s in rec.spans]
    assert names == ["noise.run_noisy", "circuits.lower_swaps"] + (
        ["circuits.simulate"] if superposed else [])
    assert rec.spans[0].counts == {"shots": 10, "p_cnot": 0.02, "p_1q": 0.001}


NOISE = {"p_cnot": 0.02, "p_1q": 0.001, "p_readout": 0.01}


@pytest.mark.parametrize("data, points, sweep", [
    ({"kind": "chiral_propagation", "L": 4, "steps": [1, 3], "noise": NOISE, "shots": 30},
     2, False),
    ({"kind": "amplitude_scaling", "L": 4, "axis": "steps_at_fixed_L", "values": [1, 2, 3],
      "noise": NOISE, "shots": 20, "sweep_seeds": 2}, 3, True),
], ids=["chiral_propagation", "amplitude_scaling"])
def test_noise_spans_nest_under_the_run(perfbench_module, tmp_path, data, points, sweep):
    # a noisy run, traced as the benchmark traces it: every sampler call
    # is a run_noisy span inside the run (and the sweep), with its shots
    spans = perfbench_module("spans")
    cfg = harness.validate_config(data)
    with spans.Recorder().installed() as rec:
        harness.run_experiment(cfg, tmp_path)

    def ancestors(i):
        names = []
        while (i := rec.spans[i].parent) >= 0:
            names.append(rec.spans[i].name)
        return names

    noisy = [i for i, s in enumerate(rec.spans) if s.name == "noise.run_noisy"]
    for i in noisy:
        assert "harness.run_experiment" in ancestors(i)
        assert ("noise.amplitude_decay_sweep" in ancestors(i)) == sweep
    shots = sum(rec.spans[i].counts["shots"] for i in noisy)
    assert shots == cfg.shots * points * cfg.sweep_seeds


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_every_workload_config_validates(perfbench_module, tiny):
    # building a workload validates its configs and runs nothing, so a
    # tightened validation cannot reject a benchmark config unnoticed
    workloads = perfbench_module("workloads")
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 1, PERFBENCH.parent, tiny)


@pytest.mark.parametrize("workload", ["noisy_walk", "dense", "spectra"])
def test_every_workload_stage_runs_and_verifies(perfbench_module, workload, tmp_path):
    # one full-scale round at the benchmark's first seed: a changed return
    # type or attribute that a stage reads fails here, not as a failed
    # benchmark operation; no statistical check is asserted beyond seed 1
    workloads = perfbench_module("workloads")
    for stage in workloads.build(workload, 1, PERFBENCH.parent):
        outdir = tmp_path / stage.name
        problems, _ = stage.verify(outdir, stage.run(outdir))
        assert problems == [], stage.name
