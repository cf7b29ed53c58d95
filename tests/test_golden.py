"""Golden outputs: each corpus script has one expected-report file.

Regenerate after an intentional change with:
    FOUNDRY_REGEN_GOLDEN=1 pytest tests/test_golden.py
"""

import os
import pathlib

import pytest

from foundry.calculi import of_file
from foundry.run import Options, run_script_text

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# Each golden script and the options its report is made under. Its extension
# names its calculus, as `calculi.of_file` reads it.
MANIFEST = {
    "fol_basics.fol": {},
    "em_negative.fol": {},
    "stlc_basics.stlc": {},
    "connectives.hol": {},
    "ext_rule.hol": {},
    "diaconescu.hol": {"axioms": ("choice", "propext")},
    "add_comm.dtt": {},
    "nat_arith.dtt": {},
    "fin.dtt": {},
    "types_library.dtt": {},
    "w_types.dtt": {},
    "funext_stuck.dtt": {},
    "prop_demo.dtt": {"impredicative_prop": True},
    "girard.dtt": {},
}


def _render(name: str) -> str:
    report = run_script_text(of_file(name), (CORPUS / name).read_text(), Options(**MANIFEST[name]), name)
    return report.to_text() + "\n"


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden(name):
    got = _render(name)
    expected_path = CORPUS / (name + ".expected")
    if os.environ.get("FOUNDRY_REGEN_GOLDEN"):
        expected_path.write_text(got)
        pytest.skip("regenerated")
    assert expected_path.exists(), f"missing golden file {expected_path.name}"
    assert got == expected_path.read_text()
