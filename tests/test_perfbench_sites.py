"""The benchmark tracer wraps library functions at the module attributes they
are called through; every one of those sites must exist in the package."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_function_sites_exist(tracing):
    for name, (modules, attr, _, _) in tracing.FUNCTIONS.items():
        for mod in modules:
            assert callable(getattr(mod, attr, None)), f"{name}: {mod.__name__}.{attr} is missing"


def test_method_sites_exist(tracing):
    for name, (cls, attr, _, _) in tracing.METHODS.items():
        assert callable(cls.__dict__.get(attr)), f"{name}: {cls.__name__}.{attr} is missing"


def test_sklyanin_calls_go_through_wrapped_sites(tracing):
    from ncquad import QQ_THETA, sklyanin

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.open_op(0, "probe")
        sklyanin.are_isomorphic(
            sklyanin.ParamTriple.make(QQ_THETA, 1, 2, 1), sklyanin.ParamTriple.make(QQ_THETA, 2, 1, 1)
        )
        # a monomial triple needs a witness search, which reduces relation spans
        sklyanin.classify(sklyanin.ParamTriple.make(QQ_THETA, 1, 1, 1))
        tracer.close_op()
    finally:
        tracer.uninstall()
    assert tracer.counts["sklyanin.are_isomorphic.calls"] == 1
    assert tracer.counts["sklyanin.classify.calls"] == 3
    assert tracer.counts["ncpoly.apply_sub.calls"] > 0
    assert tracer.counts["linalg.rref.calls"] > 0


def test_recursion_goes_through_wrapped_site(tracing):
    # the recursion solves its 3x3 systems in closed form, with no call to
    # linalg.nullspace
    from ncquad import GF, sklyanin

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.open_op(0, "probe")
        f31 = GF(31)
        states = sklyanin.coefficient_recursion(f31, f31.from_int(4), f31.from_int(4), 3)
        tracer.close_op()
    finally:
        tracer.uninstall()
    assert states[-1].outcome is sklyanin.RecursionOutcome.CONTINUE
    assert tracer.counts["sklyanin.coefficient_recursion.calls"] == 1
    assert tracer.counts["linalg.nullspace.calls"] == 0
