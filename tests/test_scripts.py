import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "gamma_candidates.py"
GOLDEN = ROOT / "tests" / "data" / "gamma_candidates.out"


def test_gamma_screen_runs_and_reports():
    # the screen's augmented matrices are symmetric with a cycle, so this
    # pins the diagonalization route of determinant byte for byte
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_bytes()
