"""The calculus table names what serves each calculus, and names it rightly.

Every row's grammar and printer, and every scripted row's runner, resolve to
what their module defines; every golden corpus script's extension names a
scripted row.
"""

import pytest

from foundry import calculi
from foundry.errors import FoundryError
from foundry.run import _Runner

from test_golden import CORPUS, MANIFEST


@pytest.mark.parametrize("name", sorted(calculi.CALCULI))
def test_every_row_resolves(name):
    row = calculi.CALCULI[name]
    assert callable(calculi.load(name, "grammar"))
    assert callable(calculi.load(name, "printer"))
    if row.runner is None:
        with pytest.raises(FoundryError) as e:
            calculi.load(name, "runner")
        assert (e.value.tag, e.value.message) == ("usage", f"unknown calculus {name!r}")
        return
    runner = calculi.load(name, "runner")
    assert issubclass(runner, _Runner) and runner.calculus == name


def test_the_scripted_calculi():
    assert calculi.SCRIPTED == ("fol", "stlc", "hol", "dtt")


def test_every_corpus_script_names_a_scripted_calculus():
    scripts = sorted(p.name.removesuffix(".expected") for p in CORPUS.glob("*.expected"))
    assert scripts == sorted(MANIFEST)
    assert [name for name in scripts if calculi.of_file(name) is None] == []
    assert calculi.of_file("geometry.model") is None
    assert calculi.of_file("types.hol-type") is None
