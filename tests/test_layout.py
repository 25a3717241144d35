"""Package layout: every exported name is used by the package itself.

A name in a module's `__all__` that nothing in `src/lorentzlab` reads is
a helper only tests use; it belongs in `tests/oracles.py` or nowhere.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lorentzlab"


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


def _references(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(name read, top-level definition it is read in) for every load of a
    name or attribute; the `__all__` strings are constants, not loads."""
    out = set()
    for top in tree.body:
        owner = _defined_name(top)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((node.attr, owner))
    return out


def unused_exports() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
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


def test_every_export_is_used_inside_the_package():
    assert unused_exports() == []
