"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that counts and the artifact digest repeat exactly
between two runs of the same seed, and that the benchmark refuses to run
without the package sources.  It does not require the program's checks
to pass at tiny sizes: some of them are statistical and need the full
shot counts.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

#: per-layer figures that are counts made by the program, so must repeat
COUNTS = (
    "circuits.gates_built", "circuits.amp_gate_updates",
    "noise.shots_classical", "noise.shots_statevector",
    "harness.experiments", "harness.checks", "harness.unchecked_experiments",
    "harness.artifact_bytes", "floquet.spectrum_calls",
    "observables.calls", "qasm.bytes",
)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _parse(done: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    for line in lines:
        if line.startswith("trace "):  # self times + benchmark's own = traced wall
            _, _, self_sum, _, wall = line.split()
            assert abs(float(self_sum) - float(wall)) < 1e-6, line
    return json.loads(lines[-1]), digest


def _check_workload(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        first, digest_a = _parse(_run(workload, trace))
        second, digest_b = _parse(_run(workload, trace))
        for result in (first, second):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            for metric in SPEC[section]:
                got = result["metrics"].get(metric["name"])
                assert got is not None, f"{workload}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], f"{workload}: {metric['name']} unit"
            assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        assert digest_a == digest_b, f"{workload}: digest differs between runs"
        # a plain run's round count follows the clock; a traced run has two
        ratio = [r["failed"] / r["attempted"] for r in (first, second)]
        assert ratio[0] == ratio[1], f"{workload}: fail ratio {ratio}"
        if trace == 1:
            assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
            for name in COUNTS:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload}: {name} {a} != {b}"


def test_noisy_walk():
    _check_workload("noisy_walk")


def test_dense():
    _check_workload("dense")


def test_spectra():
    _check_workload("spectra")


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("spectra", 0, cwd=Path(tmp))
        assert done.returncode != 0
        assert not done.stdout.strip()


if __name__ == "__main__":
    for test in (test_noisy_walk, test_dense, test_spectra, test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
