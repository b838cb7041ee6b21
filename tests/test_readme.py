import os
import re
import subprocess
import sys
from pathlib import Path

import fcqw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path):
    # the first python block of the README, run as a reader would run it
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    paths = [str(Path(fcqw.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
