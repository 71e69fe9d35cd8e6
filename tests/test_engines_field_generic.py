"""The exact engines read the rule for exact values from the field.

The reduction kernel, the sparse echelon and the dimension oracle compute
through `Field.lift`, `settle` and `element` and never branch on the field;
asking for the characteristic there would be a second home for that rule.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("groebner.py", "linalg.py")


def test_engines_never_ask_for_the_characteristic():
    calls = []
    for name in ENGINES:
        path = ROOT / "src" / "ncquad" / name
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "characteristic"
            ):
                calls.append(f"{name}:{node.lineno}")
    assert calls == []
