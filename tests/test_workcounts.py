"""Work-count guards for the kernels' term layer.

Counts function entries, recursive ones included, by rebinding the function
in every foundry module that holds it, so the bounds do not depend on the
machine. They sit well above today's counts (about 3,500 `type_of` calls for
diaconescu.hol and 16,000 `shift` calls for add_comm.dtt) and far below the
counts of a term layer that re-infers equation types or rebuilds unchanged
subterms (about 197,000 and 67,000).
"""

import pathlib
import sys

import pytest

import foundry.dtt.syntax as dtt_syntax
import foundry.hol.kernel as hol_kernel
from foundry.run import Options, run_script_text

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def count_entries(monkeypatch, module, name):
    fn = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("foundry") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "script, calculus, options, module, name, bound",
    [
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "type_of", 10_000),
        ("add_comm.dtt", "dtt", {}, dtt_syntax, "shift", 25_000),
    ],
)
def test_term_layer_work_bound(monkeypatch, script, calculus, options, module, name, bound):
    calls = count_entries(monkeypatch, module, name)
    report = run_script_text(calculus, (CORPUS / script).read_text(), Options(**options), script)
    assert report.ok, report.first_error()
    assert 0 < calls[0] <= bound
