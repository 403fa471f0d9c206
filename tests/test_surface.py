"""Every public name is read somewhere outside tests/.

A name in a module's `__all__` passes when code under src/, scripts/ or
perfbench/ (its tests included) refers to it outside its own definition:
as a name the module itself reads, an import `from tsgbomp.<module> import
name` (or a relative one), or an attribute `<module>.name`. A name that only
tests/ reads is either used, deleted, or listed in ALLOWED with a one-line
reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tsgbomp"
CODE_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

ALLOWED = {
    ("analysis", "real_part_lower_bound_check"): "the subject of acceptance criterion 6",
}


def _public_names(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _imported_module(node: ast.ImportFrom, path: Path) -> str | None:
    """The package module a `from ... import` reads from, if it is one."""
    if node.level:
        if path.parent != PACKAGE or node.level != 1:
            return None
        return node.module
    if node.module and node.module.startswith("tsgbomp."):
        return node.module[len("tsgbomp."):]
    return None


def _references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs the file at `path` refers to."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == PACKAGE else None
    refs: set[tuple[str, str]] = set()

    def visit(node: ast.AST, skip: str | None) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if own and node.id != skip:
                refs.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in MODULES:
                refs.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(node, path)
            if module:
                refs.update((module, alias.name) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, skip)

    for stmt in tree.body:
        # a definition that reads its own name (recursion) does not count
        name = getattr(stmt, "name", None)
        visit(stmt, name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None)
    return refs


def _all_references() -> set[tuple[str, str]]:
    refs: set[tuple[str, str]] = set()
    for directory in CODE_DIRS:
        for path in directory.rglob("*.py"):
            refs |= _references(path)
    return refs


REFERENCES = _all_references()


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_read(module):
    unread = [
        name for name in _public_names(module)
        if (module, name) not in REFERENCES and (module, name) not in ALLOWED
    ]
    assert not unread, f"tsgbomp.{module} exports names only tests read: {unread}"


def test_allowlist_names_unread_public_names():
    # an entry that is read, or no longer public, has to leave the list
    for module, name in ALLOWED:
        assert name in _public_names(module)
        assert (module, name) not in REFERENCES
