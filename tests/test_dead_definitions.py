"""Every top-level function and class in a foundry module is referenced.

A definition that nothing reads is code to maintain and to trust for nothing.
Each module under `src/foundry` is parsed with `ast`, and each top-level
function or class it defines must be referenced somewhere in `src`, `tests`
or `benchmarks`: as a name, as an attribute, as an imported name, or as a
string constant, as `calculi.CALCULI` names each runner class, grammar and
printer. A package `__init__` imports its public names only to re-export
them, so an import there does not count: a re-exported name must still be
used elsewhere. A dict key is a label, such as the rule name a script types,
so a string used as one does not count; a name that appears only in a
docstring or a comment does not count either.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "foundry"
SOURCES = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py"))


def definitions(tree: ast.Module) -> dict[str, int]:
    """Each top-level function and class the module defines, with its line."""
    return {
        node.name: node.lineno for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def references(tree: ast.Module, imports: bool = True) -> set[str]:
    """The names the module refers to, counting the names it imports only if
    `imports` is set."""
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            if imports:
                out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys:
            out.add(node.value)
    return out


def dead(modules: dict[str, str], sources: dict[str, str]) -> list[str]:
    """`module: name (line n)` for each definition in modules that no source
    references; the sources are keyed by file path."""
    used = set().union(*(
        references(ast.parse(text), imports=pathlib.PurePath(path).name != "__init__.py")
        for path, text in sources.items()
    ))
    return [
        f"{module}: {name} (line {line})"
        for module, text in modules.items()
        for name, line in definitions(ast.parse(text)).items()
        if name not in used
    ]


def test_every_top_level_definition_is_referenced():
    modules = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert len(modules) > 30
    assert dead(modules, {str(p): p.read_text() for p in SOURCES}) == []


def test_the_scan_sees_what_it_should():
    module = '''
"""Mentions Docstring only here."""
RULES = {"Keyed": 1}
RUNNERS = {"x": ("mod", "Named")}

def Called(): return Attr.x
def Docstring(): pass
def Keyed(): pass
def Named(): pass
class Attr: pass
class Exported: pass
def Recursive(): return Recursive()
def dead_helper(): pass
def Reexported(): pass
'''
    user = '''
from m import Exported
import m
m.Attr
Called()
'''
    package = '''
from .m import Exported, Reexported
'''
    sources = {"m.py": module, "user.py": user, "__init__.py": package}
    assert dead({"m.py": module}, sources) == [
        "m.py: Docstring (line 7)", "m.py: Keyed (line 8)", "m.py: dead_helper (line 13)",
        "m.py: Reexported (line 14)",
    ]
