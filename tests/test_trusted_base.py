"""The trusted base is a named, closed set of modules that hold only checking code.

A proof checked by foundry is as good as the code that checked it, so that
code is kept small and named (the de Bruijn criterion: Pollack, "How to
believe a machine-checked proof", 1998; Barendregt & Wiedijk, "The challenge
of computer mathematics", 2005). `TRUSTED` lists it: the four kernels, the
syntax they check, and `errors` and `span`, which build their records and
compile the `==` that alpha-equivalence is. Every other module is untrusted:
the parsers, runners, derived rules, oracles, transforms and builtin
theories can fail to check a proof, never certify a false one.

Each module under `src/foundry` is parsed with `ast`, and the scan fails on:

- a module-level import in a trusted module of a module that is neither
  trusted nor in the standard library;
- a function-level import in a trusted module other than the printers that
  format error and `repr` text, listed in `PRINTER_IMPORTS`;
- a reference to a certificate's guard from outside the functions that
  `GUARDS` names: `_certify` mints a FOL certificate, `_CERT_TOKEN` and
  `_KERNEL_TOKEN` unlock the certificate and theorem constructors, and
  `_thm` mints a HOL theorem.

The README lists the same modules, each with its line count.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "foundry"

TRUSTED = (
    "errors", "span",
    "fol.syntax", "fol.proof", "fol.hilbert", "fol.theory",
    "stlc.syntax", "stlc.typing", "stlc.reduce",
    "hol.kernel",
    "dtt.syntax", "dtt.kernel",
)

# (importing module, imported module): the only imports a trusted module
# makes inside a function, each to format the text of an error or a `repr`.
PRINTER_IMPORTS = {("hol.kernel", "hol.printer"), ("dtt.kernel", "dtt.printer")}

# Each guarded name and the functions, as `module:qualified name`, that may
# refer to it. A module may import a guarded name only if one of them is in it.
GUARDS = {
    "_certify": {"fol.proof:check_nd", "fol.hilbert:check_hilbert"},
    "_CERT_TOKEN": {"fol.proof:CertifiedSequent.__init__", "fol.proof:_certify"},
    "_KERNEL_TOKEN": {"hol.kernel:HolTheorem.__init__", "hol.kernel:_thm"},
    "_thm": {"hol.kernel:*"},
}


def read_sources() -> dict[str, str]:
    """Every module's source, keyed by its dotted name below `foundry`."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path.read_text()
    return out


def _imported(module: str, node, sources: dict) -> list[str]:
    """The modules an import statement in `module` loads: a dotted name
    below `foundry`, `foundry` for the package itself, or a top-level name
    outside foundry marked `std:` if it is in the standard library and
    `other:` if not."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    elif node.level == 0:
        targets = [node.module]
    else:
        # Relative imports start from the module's package, or from the
        # module itself if it is a package.
        parts = module.split(".") if module else []
        if module and not any(m.startswith(f"{module}.") for m in sources):
            parts = parts[:-1]
        base = ".".join(["foundry", *parts[: len(parts) - node.level + 1]])
        if node.module:
            targets = [f"{base}.{node.module}"]
        else:
            # `from . import x` loads submodule x, or reads a name of the package.
            targets = [
                f"{base}.{a.name}" if f"{base}.{a.name}".removeprefix("foundry.") in sources else base
                for a in node.names
            ]
    out = []
    for t in targets:
        if t.startswith("foundry."):
            out.append(t.removeprefix("foundry."))
        elif t == "foundry":
            out.append(t)
        elif t.split(".")[0] in sys.stdlib_module_names:
            out.append(f"std:{t}")
        else:
            out.append(f"other:{t}")
    return out


class _Scan(ast.NodeVisitor):
    """Collects one module's imports, with whether each sits in a function,
    and every reference to a guarded name with the function it sits in."""

    def __init__(self):
        self.scope: list[str] = []
        self.functions = 0
        self.imports: list[tuple[ast.AST, bool]] = []
        self.references: list[tuple[str, str]] = []

    def _enter(self, node, is_function):
        self.scope.append(node.name)
        self.functions += is_function
        self.generic_visit(node)
        self.functions -= is_function
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._enter(node, False)

    def visit_FunctionDef(self, node):
        self._enter(node, True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _import(self, node):
        self.imports.append((node, self.functions > 0))
        for alias in node.names:
            if alias.name in GUARDS:
                self.references.append((alias.name, "<import>"))

    visit_Import = visit_ImportFrom = _import

    def visit_Name(self, node):
        if node.id in GUARDS and isinstance(node.ctx, ast.Load):
            self.references.append((node.id, ".".join(self.scope) or "<module>"))

    def visit_Attribute(self, node):
        if node.attr in GUARDS:
            self.references.append((node.attr, ".".join(self.scope) or "<module>"))
        self.generic_visit(node)


def breaches(sources: dict[str, str]) -> list[str]:
    """Each breach of the rules above, as `module: what`."""
    found = []
    for module, text in sources.items():
        scan = _Scan()
        scan.visit(ast.parse(text))
        if module in TRUSTED:
            for node, in_function in scan.imports:
                for target in _imported(module, node, sources):
                    if in_function:
                        if (module, target) not in PRINTER_IMPORTS:
                            found.append(f"{module}: imports {target} in a function")
                    elif target not in TRUSTED and not target.startswith("std:"):
                        found.append(f"{module}: imports {target} at module level")
        for name, where in scan.references:
            allowed = GUARDS[name]
            if where == "<import>":
                ok = any(a.split(":")[0] == module for a in allowed)
            else:
                ok = f"{module}:{where}" in allowed or f"{module}:*" in allowed
            if not ok:
                found.append(f"{module}: {where} references {name}")
    return found


def test_the_trusted_base_is_closed():
    sources = read_sources()
    assert set(TRUSTED) <= set(sources)
    assert len(sources) > 30
    assert breaches(sources) == []


def test_the_readme_names_every_trusted_module():
    readme = (ROOT / "README.md").read_text()
    missing = [m for m in TRUSTED if f"{m.replace('.', '/')}.py" not in readme]
    assert missing == []


def test_the_readme_counts_the_trusted_lines():
    """Each row of the README's trusted-base table, and its total, give the
    module's line count as `wc -l` gives it."""
    readme = (ROOT / "README.md").read_text()
    listed = {
        path: int(count)
        for path, count in re.findall(r"^\| `([\w/]+\.py)` \| (\d+) \|", readme, re.M)
    }
    actual = {
        f"{m.replace('.', '/')}.py": (SRC / f"{m.replace('.', '/')}.py").read_text().count("\n")
        for m in TRUSTED
    }
    assert listed == actual
    total = re.search(r"([\d,]+) lines in all", readme).group(1)
    assert int(total.replace(",", "")) == sum(actual.values())


def test_the_scan_catches_a_certificate_minted_outside_the_checkers():
    sources = read_sources()
    sources["fol.transforms"] += (
        "\n\ndef forge(theory, sequent):\n"
        "    from .proof import _certify\n"
        "    return _certify(sequent, theory)\n"
    )
    assert breaches(sources) == [
        "fol.transforms: <import> references _certify",
        "fol.transforms: forge references _certify",
    ]


def test_the_scan_catches_a_printer_imported_into_a_kernel():
    sources = read_sources()
    sources["dtt.kernel"] += "\nfrom .printer import pretty\n"
    assert breaches(sources) == ["dtt.kernel: imports dtt.printer at module level"]


def test_the_scan_sees_what_it_should():
    """Imports are resolved from where they stand, and only a load of a
    guarded name counts as a use."""
    sources = {
        "hol.kernel": "_KERNEL_TOKEN = object()\n"
                      "def _thm():\n    return _KERNEL_TOKEN\n"
                      "def rule():\n    return _thm()\n",
        "hol.derived": "from . import kernel\nfrom .kernel import _thm\n"
                       "def cheat():\n    return kernel._thm()\n",
        "fol.syntax": "import json\nfrom .. import lazy_names\nfrom . import semantics\n"
                      "from ..span import node\n"
                      "def f():\n    import os\n    from ..hol.printer import x\n",
        "fol.semantics": "",
        "span": "import numpy\n",
    }
    assert breaches(sources) == [
        "hol.derived: <import> references _thm",
        "hol.derived: cheat references _thm",
        "fol.syntax: imports foundry at module level",
        "fol.syntax: imports fol.semantics at module level",
        "fol.syntax: imports std:os in a function",
        "fol.syntax: imports hol.printer in a function",
        "span: imports other:numpy at module level",
    ]
