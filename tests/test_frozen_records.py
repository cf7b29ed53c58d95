"""Each kind of frozen record in foundry is built one way.

A frozen class whose fields are all plain (no `default_factory`) and whose
construction checks nothing (no `__post_init__`) is built by
`foundry.span.node`; `dataclasses.dataclass` builds only the records that
need one of the two. Each module under `src/foundry` is parsed with `ast`,
and a top-level class decorated `@dataclass(frozen=True, ...)` must define a
`__post_init__` or call `field(default_factory=...)`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "foundry"
MODULES = sorted(SRC.rglob("*.py"))


def _frozen_dataclass(decorator: ast.expr) -> bool:
    return (
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Name) and decorator.func.id == "dataclass"
        and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in decorator.keywords
        )
    )


def _needs_dataclass(cls: ast.ClassDef) -> bool:
    post_init = any(isinstance(b, ast.FunctionDef) and b.name == "__post_init__" for b in cls.body)
    factory = any(
        isinstance(n, ast.keyword) and n.arg == "default_factory" for n in ast.walk(cls)
    )
    return post_init or factory


def plain_frozen_dataclasses(source: str) -> list[str]:
    """`name (line n)` for each top-level frozen dataclass that `node` could build."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        and any(_frozen_dataclass(d) for d in node.decorator_list)
        and not _needs_dataclass(node)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_plain_frozen_records_are_nodes(path):
    assert plain_frozen_dataclasses(path.read_text()) == []


def test_the_scan_sees_what_it_should():
    source = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Plain:
    x: int

@dataclass(frozen=True, slots=True)
class Slotted:
    x: int = 0

@dataclass(frozen=True)
class Checked:
    x: int
    def __post_init__(self):
        pass

@dataclass(frozen=True)
class Factory:
    x: dict = field(default_factory=dict)

@dataclass
class Mutable:
    x: int

@node
class Built:
    x: int
'''
    assert plain_frozen_dataclasses(source) == ["Plain (line 5)", "Slotted (line 9)"]
    assert len(MODULES) > 30
