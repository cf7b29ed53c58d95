"""`foundry check` loads only the calculus it checks, and only what it runs.

Each golden script is checked in a fresh interpreter, which then lists the
foundry modules it imported, and whichever of `json`, `dataclasses` and
`inspect` it imported. The report must match the golden file byte for byte,
and the module list must hold no other calculus, no module of its own
calculus that a check never runs, and none of those three. These are module names, not timings, so the test does not depend on
the machine.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import foundry
from test_golden import CORPUS, MANIFEST

# Standard modules that a check does not need: only a JSON report needs
# `json`, and every record is built without `dataclasses` and the `inspect`
# it imports.
STDLIB = ("json", "dataclasses", "inspect")

CHILD = f"""
import sys
STDLIB = {STDLIB!r}
from foundry.cli import run
code = run(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m in ("foundry", *STDLIB) or m.startswith("foundry."))),
      file=sys.stderr)
raise SystemExit(code)
"""

# The calculus packages a check of each calculus must not import. STLC's
# proofs-as-terms bridge is built on FOL's natural deduction, but a check
# never runs it.
FORBIDDEN = {
    "fol": ("dtt", "stlc", "hol"),
    "dtt": ("fol", "stlc", "hol"),
    "hol": ("fol", "stlc", "dtt"),
    "stlc": ("hol", "dtt", "fol"),
}
# The modules of the checked calculus that a check never runs: FOL's semantic
# oracles, primitive recursion, Hilbert proof transforms and builtin theories,
# STLC's bridge and term generator.
FORBIDDEN_OWN = {
    "fol": (
        "fol.semantics", "fol.congruence", "fol.primrec", "fol.groundsearch",
        "fol.transforms", "fol.builtin_theories",
    ),
    "dtt": (),
    "hol": (),
    "stlc": ("stlc.bridge", "stlc.generate"),
}


def _flags(options: dict) -> list:
    flags = []
    for axiom in options.get("axioms", ()):
        flags += ["--axiom", axiom]
    if options.get("impredicative_prop"):
        flags.append("--impredicative-prop")
    return flags


def check_in_fresh_process(name: str):
    calculus, options = MANIFEST[name]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(foundry.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "check", name, "--calculus", calculus, *_flags(options)],
        cwd=CORPUS, capture_output=True, text=True, env=env, timeout=120,
    )
    return done, done.stderr.split()


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_check_loads_only_its_calculus(name):
    calculus = MANIFEST[name][0]
    done, modules = check_in_fresh_process(name)
    expected = (CORPUS / (name + ".expected")).read_text()
    assert done.stdout == expected
    assert done.returncode == (0 if expected.splitlines()[-1].startswith(f"{name}: ok") else 1)
    assert f"foundry.{calculus}.runner" in modules
    loaded = [
        m for m in modules
        for other in FORBIDDEN[calculus]
        if m == f"foundry.{other}" or m.startswith(f"foundry.{other}.")
    ]
    assert loaded == [], f"checking {name} imported {loaded}"
    unused = [m for m in modules if m.removeprefix("foundry.") in FORBIDDEN_OWN[calculus]]
    assert unused == [], f"checking {name} imported {unused}"
    assert [m for m in STDLIB if m in modules] == []
