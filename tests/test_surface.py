"""Every public name and public member is read somewhere outside tests/.

A name in a module's `__all__` passes when code under src/, scripts/ or
perfbench/ (its tests included) refers to it outside its own definition:
as a name the module itself reads, an import `from tsgbomp.<module> import
name` (or a relative one), or an attribute `<module>.name`. A method or
property of a class in `__all__` passes when that code reads an attribute
of its name; dataclass fields are outside the rule. A name or member
(`Class.member`) that only tests/ reads is either used, deleted, or listed
in ALLOWED with a one-line reason.
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
    ("signal_model", "CountComparison.describe"): "acceptance criterion 7's report line",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _public_names(module: str) -> list[str]:
    for node in _tree(module).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _public_members(module: str) -> list[str]:
    """`Class.member` for each public method and property of each class in
    the module's `__all__`."""
    public = _public_names(module)
    return [
        f"{cls.name}.{fn.name}"
        for cls in _tree(module).body
        if isinstance(cls, ast.ClassDef) and cls.name in public
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]


def _imported_module(node: ast.ImportFrom, path: Path) -> str | None:
    """The package module a `from ... import` reads from, if it is one."""
    if node.level:
        if path.parent != PACKAGE or node.level != 1:
            return None
        return node.module
    if node.module and node.module.startswith("tsgbomp."):
        return node.module[len("tsgbomp."):]
    return None


def _references(path: Path, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs the file at `path`, parsed as `tree`, refers to."""
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


TREES = {
    path: ast.parse(path.read_text()) for directory in CODE_DIRS for path in directory.rglob("*.py")
}
REFERENCES = set().union(*(_references(path, tree) for path, tree in TREES.items()))
ATTRIBUTES_READ = {
    node.attr
    for tree in TREES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_read(module):
    unread = [
        name for name in _public_names(module)
        if (module, name) not in REFERENCES and (module, name) not in ALLOWED
    ]
    assert not unread, f"tsgbomp.{module} exports names only tests read: {unread}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_member_is_read(module):
    unread = [
        member for member in _public_members(module)
        if member.split(".")[1] not in ATTRIBUTES_READ and (module, member) not in ALLOWED
    ]
    assert not unread, f"tsgbomp.{module} has public members only tests read: {unread}"


def test_allowlist_names_unread_public_names():
    # an entry that is read, or no longer public, has to leave the list
    for module, name in ALLOWED:
        if "." in name:
            assert name in _public_members(module)
            assert name.split(".")[1] not in ATTRIBUTES_READ
        else:
            assert name in _public_names(module)
            assert (module, name) not in REFERENCES
