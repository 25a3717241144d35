"""Package layout: every exported name and every public method is used by
the package itself, and the light-cone modules stay numpy-only.

A name in a module's `__all__`, or a public method or property of a
package class, that nothing in `src/lorentzlab` reads is a helper only
tests use; it belongs in `tests/oracles.py` or nowhere. Methods are
matched by attribute name, so a read of any attribute with that name
counts. `minkowski` and `quadrature` (the section frame, the exact
integrals and the estimators) import nothing from the FEM pipeline or
scipy.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lorentzlab"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _defined_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def _read_name(node: ast.AST) -> str | None:
    """The name a node loads, if it loads a name or an attribute."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def _references(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(name read, top-level definition it is read in) for every load of a
    name or attribute; the `__all__` strings are constants, not loads."""
    out = set()
    for top in tree.body:
        owner = _defined_name(top)
        for node in ast.walk(top):
            name = _read_name(node)
            if name is not None:
                out.add((name, owner))
    return out


def unused_exports() -> list[str]:
    trees = _trees()
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name in _exported(tree):
            used = any(
                ref == name and (other != module or owner != name)
                for other, pairs in refs.items()
                for ref, owner in pairs
            )
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def unused_methods() -> list[str]:
    """Public methods and properties of package classes never read in the
    package outside their own body."""
    trees = _trees()
    unused = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                used = any(
                    _read_name(node) == method.name and id(node) not in own
                    for other in trees.values()
                    for node in ast.walk(other)
                )
                if not used:
                    unused.append(f"{module}.{cls.name}.{method.name}")
    return unused


def imported_modules(tree: ast.Module) -> set[str]:
    """First component of every module a tree imports, relative to the
    package for package modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            if node.module in (None, "lorentzlab"):  # from . import fem
                names.update(alias.name for alias in node.names)
    return {name.removeprefix("lorentzlab.").split(".")[0] for name in names}


def test_light_cone_modules_import_no_fem_pipeline_or_scipy():
    trees = _trees()
    for module in ("minkowski", "quadrature"):
        forbidden = imported_modules(trees[module]) & {"fem", "bounds", "pipeline", "cli", "scipy"}
        assert not forbidden, f"{module} imports {sorted(forbidden)}"


def test_every_export_is_used_inside_the_package():
    assert unused_exports() == []


def test_every_public_method_is_used_inside_the_package():
    assert unused_methods() == []
