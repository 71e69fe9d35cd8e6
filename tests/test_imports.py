"""Every name a package module imports is used there.

The one exception is a name the traced benchmark run wraps at that module
(`perfbench/tracing.FUNCTIONS`): the wrapper replaces the module attribute,
so the import has to stay even where the module itself never calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncquad"


def traced_import_sites():
    """(module, attribute) pairs that `tracing.FUNCTIONS` wraps, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)
    )
    sites = set()
    for entry in table.values:
        modules, attr = entry.elts[0], entry.elts[1]
        sites |= {(mod.id, attr.value) for mod in modules.elts}
    return sites


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_traced_sites_are_read():
    sites = traced_import_sites()
    assert ("quadratic", "rank") in sites
    assert ("cli", "graded_dim_oracle") in sites


def test_no_unused_imports():
    sites = traced_import_sites()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used and (path.stem, name) not in sites:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []
