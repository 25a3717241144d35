"""Package layout: every exported name and every public method is used by
the package itself, every stored value is read, and the light-cone
modules stay numpy-only.

A name in a module's `__all__`, or a public method or property of a
package class, that nothing in `src/lorentzlab` reads is a helper only
tests use; it belongs in `tests/oracles.py` or nowhere. Methods are
matched by attribute name, so a read of any attribute with that name
counts. Likewise a field of a package dataclass or NamedTuple, or a
`self.<attr>` a package class stores, must be read as an attribute of
that name somewhere in the package: a value computed and never read is
work and code for nothing. So is a module-level import its module never
reads. `minkowski` and `quadrature` (the section frame, the exact
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


# records the report writes field by field, through `dataclasses.fields`
# or `_asdict`, so that a field is read without its name being written
REPORTED_FIELD_BY_FIELD = {"pipeline.RunReport", "quadrature.MonteCarloCheck"}


def _attribute_reads(trees: dict[str, ast.Module]) -> set[str]:
    """Every attribute name loaded anywhere in the trees; a bare name of the
    same spelling (a local variable, say) is not a read of a field."""
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _dotted(node: ast.expr) -> str:
    """The last name of `name`, `module.name` or a call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple."""
    return any(_dotted(d) == "dataclass" for d in cls.decorator_list) or any(
        _dotted(base) == "NamedTuple" for base in cls.bases
    )


def _classes(trees: dict[str, ast.Module]):
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                yield module, cls


def unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """Fields of dataclasses and NamedTuples nothing in the trees reads."""
    reads = _attribute_reads(trees)
    return [
        f"{module}.{cls.name}.{stmt.target.id}"
        for module, cls in _classes(trees)
        if _is_record(cls) and f"{module}.{cls.name}" not in REPORTED_FIELD_BY_FIELD
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads
    ]


def unread_attributes(trees: dict[str, ast.Module]) -> list[str]:
    """`self.<attr>` values a class stores that nothing in the trees reads."""
    reads = _attribute_reads(trees)
    unread = []
    for module, cls in _classes(trees):
        stored = {
            node.attr
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _dotted(node.value) == "self"
        }
        unread += [f"{module}.{cls.name}.{attr}" for attr in sorted(stored - reads)]
    return unread


def unread_imports(trees: dict[str, ast.Module]) -> list[str]:
    """Names a module-level import binds that nothing in its module loads;
    a `from __future__` import binds none."""
    unread = []
    for module, tree in trees.items():
        loads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loads:
                        unread.append(f"{module}.{name}")
    return unread


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


def test_every_stored_field_and_attribute_is_read_inside_the_package():
    trees = _trees()
    assert unread_fields(trees) == []
    assert unread_attributes(trees) == []


def test_every_module_level_import_is_read_by_its_module():
    assert unread_imports(_trees()) == []


SAMPLE = """
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class Record:
    used: int
    unused: int


class Pair(NamedTuple):
    left: float
    right: float


class Holder:
    def __init__(self, kind):
        self.kind = kind
        self.size = 1


def read(record, pair, holder):
    kind = record.used + pair.left
    return holder.size, kind
"""


def test_stored_value_guards_flag_what_is_never_read():
    # a local variable named like a field does not count as reading it
    trees = {"sample": ast.parse(SAMPLE)}
    assert unread_fields(trees) == ["sample.Record.unused", "sample.Pair.right"]
    assert unread_attributes(trees) == ["sample.Holder.kind"]
    assert unread_imports(trees) == ["sample.threading"]
