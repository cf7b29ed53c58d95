"""Every record in foundry is built one way: by `foundry.span.node`.

No module under `src/foundry` imports `dataclasses`, so no record is a
dataclass and no `foundry check` loads `dataclasses` (or `inspect`, which
it imports). Each module is parsed with `ast`, and every `import` and
`from ... import` in it, at any depth, is checked.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "foundry"
MODULES = sorted(SRC.rglob("*.py"))


def dataclasses_imports(source: str) -> list[str]:
    """`line n` for each import of `dataclasses` in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_plain_frozen_records_are_nodes(path):
    assert dataclasses_imports(path.read_text()) == []


def test_the_scan_sees_what_it_should():
    source = '''
from dataclasses import dataclass, field
import dataclasses
import dataclasses as dc, os
from . import dataclasses_helper

def later():
    from dataclasses import replace
    return replace

import dataclasses_json
'''
    assert dataclasses_imports(source) == ["line 2", "line 3", "line 4", "line 8"]
    assert len(MODULES) > 30
