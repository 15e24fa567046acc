"""What deletions leave behind in the package source: an imported name that
its module never uses, and a module-level private name that no module of
the package refers to.  References from the tests do not count."""

import ast
from pathlib import Path

import elliptic_poisson

SOURCES = sorted(Path(elliptic_poisson.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Names a module loads, its ``__all__`` entries and the names inside
    string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # __all__ entries and annotations such as "ParamPoly"
                inner = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # ValueError: a NUL byte on 3.10
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if _is_private(name))


def _references(tree):
    """Names loaded, attributes read and names imported from a module."""
    refs = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def test_every_import_is_used():
    # the package's __init__ imports to re-export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = _used_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert not unused


def test_every_private_name_is_referenced():
    trees = {path: _parse(path) for path in SOURCES}
    assert "poly.py" in {path.name for path in trees}
    refs = set().union(*map(_references, trees.values()))
    unreferenced = [f"{path.name}: {name}" for path, tree in trees.items()
                    for name in _private_definitions(tree) if name not in refs]
    assert not unreferenced
