"""Every top-level import in a foundry module is used.

An import that nothing reads looks like a dependency that is not there. Each
module under `src/foundry` except the package `__init__`s (which import to
re-export) is parsed with `ast`; a name bound by a top-level import must occur
as a name somewhere in the module. A name inside a quoted annotation, such as
`"HolTerm"` in `tuple["HolTerm", ...]`, counts as a use; a name that appears
only in a docstring or a message does not.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "foundry"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a top-level import binds, with the import's line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    quoted = [
        s.value
        for ann in _annotations(tree)
        for s in ast.walk(ann)
        if isinstance(s, ast.Constant) and isinstance(s.value, str)
    ]
    for text in quoted:
        try:
            sub = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_what_it_should():
    source = '''
"""Uses Gone in a docstring only."""
from __future__ import annotations
import os.path
from typing import Mapping, Union
from dataclasses import dataclass, field as fld
from .kernel import Gone, Quoted, Aliased, Kept

Alias = Union[Aliased, int]

def f(x: "Quoted") -> Mapping:
    raise ValueError("Gone")

def g():
    import json
    return Kept, os.path
'''
    assert unused_imports(source) == ["dataclass (line 6)", "fld (line 6)", "Gone (line 7)"]
    assert len(MODULES) > 30
