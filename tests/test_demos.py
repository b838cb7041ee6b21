import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcqw

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

#: SHA-256 (first 16 hex digits) of each demo's standard output; a change
#: to the package must leave what the demos print unchanged (demo 04's since
#: faults are drawn as geometric gaps per gate class)
STDOUT_DIGESTS = {
    "01_chiral_walk.py": "fa856404a746bfc6",
    "02_winding_and_spectra.py": "8527430b12e48670",
    "03_effective_hamiltonian.py": "ed362c7abcc3dae8",
    "04_noisy_shots_and_mitigation.py": "4e0601c99efce81c",
    "05_anderson_localization.py": "76a1069258a335ed",
}
#: SHA-256 (first 16 hex digits) of each file a demo writes into its cwd;
#: the other demos write none
FILE_DIGESTS = {
    "03_effective_hamiltonian.py": {"effective_hamiltonian_L16.csv": "17a3e2b1a188e45c"},
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_DIGESTS) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # run from an empty directory: a demo may write files into its cwd
    paths = [str(Path(fcqw.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == STDOUT_DIGESTS[demo.name]
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert written == FILE_DIGESTS.get(demo.name, {})
