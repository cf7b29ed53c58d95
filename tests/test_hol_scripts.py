import copy
import dataclasses
import pathlib
import re

import pytest

from foundry.errors import KernelError
from foundry.hol import (
    Const, FVar, HolTheorem, PROP, define_connectives, initial_state, mk_eq,
)
from foundry.run import Options, run_script_text

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run(name, **kw):
    opts = Options(**kw)
    return run_script_text("hol", (CORPUS / name).read_text(), opts, name)


def test_connectives_script():
    r = run("connectives.hol")
    assert r.ok, r.first_error()
    assert r.theorems_certified == 3
    # what the script defined matches the canonical bodies used by the axioms
    from foundry.hol import standard_definitions
    from foundry.hol.runner import HolRunner
    from foundry.surface import script as sc

    runner = HolRunner(Options(), "connectives.hol")
    runner.run(sc.parse_script((CORPUS / "connectives.hol").read_text()))
    canon = dict(standard_definitions())
    for name, body in canon.items():
        assert runner.state.constants[name].definiens == body


def test_ext_rule_script():
    r = run("ext_rule.hol")
    assert r.ok, r.first_error()
    assert r.theorems_certified == 1


def test_diaconescu_certifies_excluded_middle():
    r = run("diaconescu.hol", axioms=("choice", "propext"))
    assert r.ok, r.first_error()
    assert r.theorems_certified == 1
    last = r.results[-1]
    assert last.name == "excluded_middle"
    assert "forall" in last.output and "or P (not P)" in last.output


def test_diaconescu_without_choice_fails_with_dependency_error():
    r = run("diaconescu.hol", axioms=("propext",))
    err = r.first_error()
    assert err is not None
    assert err.tag == "axiom-disabled"
    assert r.theorems_certified == 0


def test_diaconescu_without_propext_fails():
    r = run("diaconescu.hol", axioms=("choice",))
    err = r.first_error()
    assert err is not None and err.tag == "axiom-disabled"


@pytest.mark.parametrize(
    "name, kw",
    [
        ("connectives.hol", {}),
        ("ext_rule.hol", {}),
        ("diaconescu.hol", {"axioms": ("choice", "propext")}),
    ],
)
def test_every_minted_conclusion_is_a_well_typed_prop(monkeypatch, name, kw):
    # the typed rules rely on this invariant: see the kernel's docstring
    from foundry.hol import check_term
    from foundry.hol import kernel as hk
    from foundry.hol.runner import HolRunner
    from foundry.surface import script as sc

    minted = []
    mint = hk._thm

    def recording_thm(hyps, concl):
        minted.append(concl)
        return mint(hyps, concl)

    monkeypatch.setattr(hk, "_thm", recording_thm)
    runner = HolRunner(Options(**kw), name)
    report = runner.run(sc.parse_script((CORPUS / name).read_text(), name))
    assert report.ok, report.first_error()
    assert minted
    # the state only grows, so the final one knows every constant used
    for concl in set(minted):
        assert check_term(runner.state, concl) == PROP


# ---------------------------------------------------------------------------
# LCF discipline: five forging attempts through the public surface


@pytest.fixture()
def a_theorem():
    st = initial_state()
    st, thms = define_connectives(st)
    return thms["true"]


def test_forge_1_direct_constructor():
    with pytest.raises(KernelError):
        HolTheorem(frozenset(), FVar("p", PROP))


def test_forge_2_guessed_token():
    with pytest.raises(KernelError):
        HolTheorem(frozenset(), FVar("p", PROP), _token=object())


def test_forge_3_subclass_bypass():
    class Evil(HolTheorem):
        def __init__(self):
            super().__init__(frozenset(), FVar("p", PROP), _token=None)

    with pytest.raises(KernelError):
        Evil()


def test_forge_4_mutation(a_theorem):
    with pytest.raises(AttributeError):
        a_theorem.conclusion = FVar("p", PROP)
    with pytest.raises(AttributeError):
        del a_theorem.conclusion


def test_forge_5_dataclass_replace_and_copy(a_theorem):
    with pytest.raises(TypeError):
        dataclasses.replace(a_theorem, conclusion=FVar("p", PROP))
    # even plain copying is sealed off (it would go through __setattr__)
    with pytest.raises(AttributeError):
        copy.copy(a_theorem)


def test_diaconescu_without_axioms_fails_at_its_line():
    r = run("diaconescu.hol")
    err = r.first_error()
    assert err is not None and err.tag == "axiom-disabled" and err.line > 0


def test_run_script_reports_deep_input_as_a_tagged_script_error():
    r = run_script_text("hol", "expect-error x " * 3000 + "thm t := refl {(x : Prop)}\n")
    err = r.first_error()
    assert err is not None and err.tag == "depth-exceeded"
    assert (err.line, err.col) == (1, 1)


def test_rule_table_matches_signatures_and_readme():
    from foundry.hol.runner import HolRunner

    kinds = {k for _, ks in HolRunner._RULES.values() for k in ks}
    assert kinds <= HolRunner._KIND_TEXT.keys()
    readme = (CORPUS.parent / "README.md").read_text()
    lists = re.search(
        r"rule expression over the primitive rules \((.*?)\) and the\s+derived layer \((.*?)\)",
        readme, re.S,
    )
    listed = " ".join(lists.groups()).replace("`", "").split()
    assert sorted(listed) == sorted(HolRunner._RULES.keys() | {"inst_type", "inst_term"})


def _error(text):
    report = run_script_text("hol", text, Options(), "args.hol")
    err = report.first_error()
    assert not report.ok and err is not None
    return err


@pytest.mark.parametrize(
    "text",
    [
        "thm a := abs {(x : Prop)}",
        "thm a := abs",
        "thm a := abs {(x : Prop)} (refl {(x : Prop)}) (refl {(x : Prop)})",
        "thm a := abs (refl {(x : Prop)}) {(x : Prop)}",
        "thm a := abs {(x : Prop)} {(x : Prop)}",
    ],
)
def test_abs_needs_a_variable_and_a_theorem(text):
    err = _error(text + "\n")
    assert (err.tag, err.line, err.col) == ("script-error", 1, 1)
    assert err.message == "abs takes a {variable} and a theorem"


def test_rules_check_their_argument_kinds():
    for text, message in [
        ("thm a := trans {(x : Prop)} {(x : Prop)}", "trans takes a theorem and a theorem"),
        ("thm a := sym {(x : Prop)}", "sym takes a theorem"),
        ("thm a := truth {(x : Prop)}", "truth takes no arguments"),
        ("thm a := gen {(x : Prop) = (x : Prop)} (refl {(x : Prop)})",
         "gen takes a {variable} and a theorem"),
        ("thm a := refl [Prop]", "refl takes a {term}"),
    ]:
        err = _error(text + "\n")
        assert (err.tag, err.message, err.col) == ("script-error", message, 1)


@pytest.mark.parametrize(
    "text, col, message",
    [
        # the type is missing
        ("thm a := inst_type 'a (refl {(x : 'a)})", 20,
         "inst_type: a type variable must be followed by its replacement"),
        # 'b dangles
        ("thm a := inst_type 'a [Prop] 'b (refl {(x : 'a)})", 30,
         "inst_type: a type variable must be followed by its replacement"),
        # the pair is the wrong way round
        ("thm a := inst_type [Prop] 'a (refl {(x : 'a)})", 20,
         "inst_type: expected a type variable here"),
        # the value is missing
        ("thm a := inst_term {(x : Prop)} (refl {(x : Prop)})", 20,
         "inst_term: a {variable} must be followed by its replacement"),
    ],
)
def test_incomplete_instantiations_are_errors(text, col, message):
    err = _error(text + "\n")
    assert (err.tag, err.line, err.col, err.message) == ("script-error", 1, col, message)


def test_complete_instantiations_still_work():
    report = run_script_text(
        "hol",
        "thm a := inst_type 'a [Prop] (refl {(x : 'a)})\n"
        "thm b := inst_term {(x : Prop)} {(y : Prop)} a\n",
    )
    assert report.ok, report.first_error()
    assert [r.output for r in report.results] == ["|- x = x", "|- y = y"]
