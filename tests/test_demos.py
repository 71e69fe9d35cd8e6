"""The five demo scripts, run as scripts, against their stored stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / demo.replace(".py", ".txt")).read_text()
