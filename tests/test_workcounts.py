"""Work-count guards for the kernels' term layer.

Counts function entries, recursive ones included, by rebinding the function
in every foundry module that holds it, and node constructions by wrapping the
class's `__init__`, so the bounds do not depend on the machine. Each bound sits well above today's count and well below the count
of a kernel that repeats work it has already done. The DTT counts also have a
floor, about half of today's count, and `test_counts_see_every_entry` checks
that a count sees every entry into the function's code: a kernel that
recursed through a reference it captured, instead of the module name the
count rebinds, would hide entries, and it fails instead of reading low:

- diaconescu.hol: `_thm` (theorems minted) about 710, against 6,062 when
  every derived rule unfolds the connective definitions from scratch instead
  of instantiating the lemmas it proved once per state; `check_term` about
  1,670 entries, against 3,180 when every rule re-checks its terms instead
  of consulting the state's check memo and 8,146 without the lemmas;
  `check_type` about 545 and `type_match` about 220, against 2,390 and
  1,817 when check_term re-checks every occurrence of a constant instance
  or free variable instead of finding the leaf in that memo; `type_of`
  about 130, against 3,500 when the defining theorems re-infer their
  equations' types and 197,000 when the rules re-infer equation types;
  `TyApp` constructions about 710, `Const` about 265 and `Abs` about 107,
  against 1,317, 540 and 223 when the term walks copy every subterm they
  leave unchanged and every equation at Prop builds its own `=` constant;
- connectives.hol: `_thm` about 250, against 669 without the lemmas;
- add_comm.dtt: `_infer` 340 entries (floor 170), against 1,191 when the kernel
  re-infers every occurrence of a closed subterm instead of reusing the type
  stored on the node; `whnf` 774 (floor 380), against 2,371 without that
  type cache; `shift` 460 (floor 230), against 948 without the type cache,
  2,244 without the loose-bvar range as well, 16,000 when `subst` also
  shifts its value at every binder it crosses and 67,000 when it also
  rebuilds unchanged subterms;
- 400 FOL axioms, each `forall x : obj, P(x)`: `check_well_formed` 800
  entries (the quantifier and its body, once per axiom), against 160,400
  when every new theory checks all of its axioms again.

The size sweeps run one script at n and at 2n declarations and count the
work that would grow faster than the script: a linear count doubles, a
quadratic one quadruples, so each count may grow at most 2.3 times. At
n = 100, 200: FOL declarations make 200 and 400 symbol checks, against
20,100 and 80,200 when each new signature checks every symbol again; FOL
axioms with theorems citing them make 100 and 200 `alpha_equal` calls,
against 5,150 and 20,300 when each citation scans the axioms; a chain of
STLC definitions, each the successor of the one before, makes 199 and 399
`infer_type` entries, against 5,050 and 20,100 when each definition types
the whole expansion of the one it names; a chain of STLC `fun` definitions,
each applying the one before, makes 496 and 996 `abstract_free` entries and
890 and 1,790 `infer_type` entries, against 20,000 and 80,000 `infer_type`
entries when abstracting the bound name copies the definition it names.
"""

import pathlib
import sys

import pytest

import foundry.dtt.kernel as dtt_kernel
import foundry.dtt.syntax as dtt_syntax
import foundry.fol.runner  # noqa: F401  (loaded first, so its name is counted and restored)
import foundry.fol.syntax as fol_syntax
import foundry.hol.kernel as hol_kernel
import foundry.stlc.runner  # noqa: F401  (as foundry.fol.runner)
import foundry.stlc.syntax as stlc_syntax
import foundry.stlc.typing as stlc_typing
from foundry.run import Options, run_script_text

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def count_entries(monkeypatch, module, name):
    fn = getattr(module, name)
    calls = [0]
    if isinstance(fn, type):
        init = fn.__init__

        def counted_init(self, *args, **kwargs):
            calls[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(fn, "__init__", counted_init)
        return calls

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("foundry") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


# Floors of the DTT counts, each about half of today's count.
FLOORS = {"_infer": 170, "whnf": 380, "shift": 230}


@pytest.mark.parametrize(
    "script, calculus, options, module, name, bound",
    [
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "type_of", 1_000),
        ("add_comm.dtt", "dtt", {}, dtt_syntax, "shift", 1_000),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "check_term", 2_500),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "check_type", 1_200),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "_thm", 2_500),
        ("connectives.hol", "hol", {}, hol_kernel, "_thm", 400),
        ("add_comm.dtt", "dtt", {}, dtt_kernel, "_infer", 600),
        ("add_comm.dtt", "dtt", {}, dtt_kernel, "whnf", 1_200),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "type_match", 500),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "TyApp", 1_000),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "Const", 400),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "Abs", 160),
    ],
)
def test_term_layer_work_bound(monkeypatch, script, calculus, options, module, name, bound):
    calls = count_entries(monkeypatch, module, name)
    report = run_script_text(calculus, (CORPUS / script).read_text(), Options(**options), script)
    assert report.ok, report.first_error()
    assert FLOORS.get(name, 1) <= calls[0] <= bound


@pytest.mark.parametrize(
    "script, calculus, module, name",
    [
        ("add_comm.dtt", "dtt", dtt_kernel, "_infer"),
        ("add_comm.dtt", "dtt", dtt_kernel, "whnf"),
        ("add_comm.dtt", "dtt", dtt_kernel, "_conv"),
        ("add_comm.dtt", "dtt", dtt_syntax, "shift"),
        ("add_comm.dtt", "dtt", dtt_syntax, "subst"),
        ("stlc_basics.stlc", "stlc", stlc_typing, "infer_type"),
    ],
)
def test_counts_see_every_entry(monkeypatch, script, calculus, module, name):
    """A count sees a call only if it goes through the module name that
    `count_entries` rebinds; the interpreter's profile hook sees every entry
    into the function's code. The two agree, so no call reaches the function
    through a reference held elsewhere, which would make a bound read low."""
    code = getattr(module, name).__code__
    calls = count_entries(monkeypatch, module, name)
    entries = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            entries[0] += 1

    text = (CORPUS / script).read_text()
    sys.setprofile(profile)
    try:
        report = run_script_text(calculus, text, Options(), script)
    finally:
        sys.setprofile(None)
    assert report.ok, report.first_error()
    assert calls[0] == entries[0] > 0


def test_no_inference_work_carries_over_between_runs(monkeypatch):
    text = (CORPUS / "add_comm.dtt").read_text()
    calls = count_entries(monkeypatch, dtt_kernel, "_infer")
    counts = []
    for _ in range(2):
        calls[0] = 0
        assert run_script_text("dtt", text, Options(), "add_comm.dtt").ok
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def test_no_hol_work_carries_over_between_runs(monkeypatch):
    """Theorems minted, terms checked and nodes built are the same in a
    second run in the same process, so no memo outlives its kernel state.
    The connectives' bodies are built once, when the kernel is imported."""
    text = (CORPUS / "diaconescu.hol").read_text()
    options = Options(axioms=("choice", "propext"))
    names = ("_thm", "check_term", "TyApp", "Const", "Abs", "App")
    counters = {name: count_entries(monkeypatch, hol_kernel, name) for name in names}
    counts = []
    for _ in range(2):
        for calls in counters.values():
            calls[0] = 0
        assert run_script_text("hol", text, options, "diaconescu.hol").ok
        counts.append({name: calls[0] for name, calls in counters.items()})
    assert counts[0] == counts[1]
    assert all(counts[0].values())


@pytest.mark.parametrize("trace", [False, True])
def test_each_theorem_is_formatted_once(monkeypatch, trace):
    """diaconescu.hol prints 42 theorems; formatting one for a trace line
    that is off, or again for its result, would enter `__repr__` 75 times."""
    real = hol_kernel.HolTheorem.__repr__
    calls = [0]

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(hol_kernel.HolTheorem, "__repr__", counted)
    options = Options(axioms=("choice", "propext"), trace=trace)
    report = run_script_text("hol", (CORPUS / "diaconescu.hol").read_text(), options, "diaconescu.hol")
    assert report.ok, report.first_error()
    printed = [r for r in report.results if "|-" in r.output]
    assert calls[0] == len(printed) == 42
    thms = [f"{r.name}: {r.output}" for r in report.results if r.command == "Thm"]
    assert report.trace == (thms if trace else [])


def test_each_fol_axiom_is_checked_once(monkeypatch):
    n = 400
    text = "sort obj\nrel P : (obj)\n" + "".join(
        f"axiom a_{i} : {{forall x : obj, P(x)}}\n" for i in range(n)
    )
    calls = count_entries(monkeypatch, fol_syntax, "check_well_formed")
    report = run_script_text("fol", text, Options(), "axioms.fol")
    assert report.ok, report.first_error()
    assert 0 < calls[0] <= 2 * n + 20


FOL_WORK = (fol_syntax, ("check_well_formed", "alpha_equal", "_check_symbol"))


def fol_declarations(n):
    return "sort obj\n" + "".join(f"rel P_{i} : (obj)\nfn f_{i} : (obj) -> obj\n" for i in range(n))


def fol_axioms_cited(n):
    return "sort obj\n" + "".join(
        f"rel P_{i} : ()\naxiom a_{i} : {{P_{i}}}\n" for i in range(n)
    ) + "".join(f"theorem t_{i} : {{P_{i}}} := hilbert {{ hyp {{P_{i}}} }}\n" for i in range(n))


def stlc_definitions(n):
    return "define d_0 := {0}\n" + "".join(
        f"define d_{i} := {{succ d_{i - 1}}}\n" for i in range(1, n)
    )


def stlc_fun_definitions(n):
    return "define d_0 := {fun (x : Nat) => x}\n" + "".join(
        f"define d_{i} := {{fun (x : Nat) => succ (d_{i - 1} x)}}\n" for i in range(1, n)
    )


def hol_chain(n):
    return "define c_0 := {(fun (p : Prop) => p) = (fun (p : Prop) => p)}\n" + "".join(
        f"define c_{i} := {{c_{i - 1} = c_{i - 1}}}\n" for i in range(1, n)
    )


def dtt_chain(n):
    return "define d_0 : {Nat} := {0}\n" + "".join(
        f"define d_{i} : {{Nat}} := {{succ d_{i - 1}}}\n" for i in range(1, n)
    )


@pytest.mark.parametrize(
    "calculus, script, work",
    [
        ("fol", fol_declarations, FOL_WORK),
        ("fol", fol_axioms_cited, FOL_WORK),
        ("stlc", stlc_definitions, (stlc_typing, ("infer_type",))),
        ("hol", hol_chain, (hol_kernel, ("check_term",))),
        ("dtt", dtt_chain, (dtt_kernel, ("_infer",))),
        ("stlc", stlc_fun_definitions, (stlc_syntax, ("abstract_free",))),
        ("stlc", stlc_fun_definitions, (stlc_typing, ("infer_type",))),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_work_grows_linearly_with_the_script(monkeypatch, calculus, script, work):
    module, names = work
    counters = {name: count_entries(monkeypatch, module, name) for name in names}
    counts = []
    for n in (100, 200):
        for calls in counters.values():
            calls[0] = 0
        report = run_script_text(calculus, script(n), Options(), script.__name__)
        assert report.ok, report.first_error()
        counts.append({name: calls[0] for name, calls in counters.items()})
    small, large = counts
    assert any(small.values())
    assert all(large[name] <= 2.3 * small[name] for name in names), counts
