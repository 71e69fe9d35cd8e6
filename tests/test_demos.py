"""The five demo scripts, run as scripts, against their stored stdout, and the
README library tour against the results its comments state."""

import ast
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


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = []
    # each bare expression's trailing comment is the repr of its value
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            expected = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
            assert repr(eval(ast.unparse(stmt), namespace)) == expected
            checked.append(expected)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["[1, 3, 6, 10, 15, 21, 28, 36, 45]", "'QuantumPoly'"]
