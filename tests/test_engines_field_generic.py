"""The exact engines read the rule for exact values from the field.

The reduction kernel, the sparse echelon and the dimension oracle compute
through `Field.lift`, `settle` and `element` and never branch on the field;
asking for the characteristic there would be a second home for that rule.
"""

import ast
from pathlib import Path

from ncquad.scalars import GF, QQ, QQ_THETA

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


def test_lift_is_idempotent():
    # `_graded_dims` hands lifted values to `SparseEchelon.add`, which lifts
    # them again, so a value must lift to itself
    texts = {
        QQ: ("0", "1", "-5", "3/4", "-7/2"),
        QQ_THETA: ("0", "2", "w", "1/2-3*w", "-4/3"),
        GF(31): ("0", "1", "-1", "30", "17"),
    }
    for field, cases in texts.items():
        for text in cases:
            x = field.parse(text)
            v = field.lift(x)
            assert field.lift(v) == v and type(field.lift(v)) is type(v), (field, text)
            y = field.element(field.settle(v))
            assert y == x and type(y) is type(x), (field, text)
