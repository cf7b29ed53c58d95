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
  `TyApp` constructions about 645, `Const` about 230 and `Abs` about 97,
  against 1,317, 540 and 223 when the term walks copy every subterm they
  leave unchanged and every equation at Prop builds its own `=` constant
  (712 and 265 `TyApp` and `Const` while TRANS built its own `=` constant
  and each `mk_imp`, `mk_conj` and `mk_disj` its connective); `App` about
  2,050, against 2,480 when the term walks copy what they leave unchanged;
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

The normalizers are counted on seeded terms:

- 300 STLC terms of depth 6 (`gen_term`, seed 7) under `normalize`: 3,849
  node visits (lookups of a node's class in `_SHAPE`) and 1,285 path
  rebuilds leftmost-outermost, 25,864 and 1,884 rightmost-innermost, against
  10,527 and 2,672, and 55,636 and 10,460, when every contraction searches
  again from the root and rebuilds the path to its redex;
- 300 DTT terms of type Nat (`gen_dtt_nat`, seed 20240624, some open, so
  some heads are stuck) under `normalize`: 6 `replace_field` entries, one per
  stuck node whose head whnf changed, against 191 when `whnf` rebuilds every
  node with its reduced head before it tries the node's contraction.

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
each applying the one before, makes 497 and 997 `infer_type` entries,
against 20,000 and 80,000 when a `fun` copies the definition it names
instead of sharing it, and its parser enters 199 and 399 terms and 397 and
797 factors, one pass over the text with each binder read in place.

The grammars read a bound name straight into its de Bruijn index, so the
n = 100 binder chains below make no entries into the walks that close a
binder over its body, against n(n+1)/2 per chain when each binder is closed
by a second walk: 5,050 in FOL and in STLC, and 15,150 for HOL's three.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import foundry
import foundry.dtt as dtt
import foundry.dtt.kernel as dtt_kernel
import foundry.dtt.syntax as dtt_syntax
import foundry.fol.runner  # noqa: F401  (loaded first, so its name is counted and restored)
import foundry.fol.syntax as fol_syntax
import foundry.hol.kernel as hol_kernel
import foundry.stlc as stlc
import foundry.stlc.reduce as stlc_reduce
import foundry.stlc.runner  # noqa: F401  (as foundry.fol.runner)
import foundry.stlc.syntax as stlc_syntax
import foundry.stlc.typing as stlc_typing
import foundry.surface.stlc_parser as stlc_parser
from foundry.run import Options, run_script_text

from helpers_dtt import gen_dtt_nat

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
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "TyApp", 800),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "Const", 300),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "Abs", 160),
        ("diaconescu.hol", "hol", {"axioms": ("choice", "propext")}, hol_kernel, "App", 2_400),
    ],
)
def test_term_layer_work_bound(monkeypatch, script, calculus, options, module, name, bound):
    calls = count_entries(monkeypatch, module, name)
    report = run_script_text(calculus, (CORPUS / script).read_text(), Options(**options), script)
    assert report.ok, report.first_error()
    assert FLOORS.get(name, 1) <= calls[0] <= bound


class CountedLookups(dict):
    """A dict that counts its `get` calls."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = 0

    def get(self, key, default=None):
        self.calls += 1
        return super().get(key, default)


def stlc_terms(n=300):
    rng = random.Random(7)
    return [stlc.gen_term(rng, stlc.gen_type(rng, 2), 6) for _ in range(n)]


@pytest.mark.parametrize("strategy, visits, rebuilds", [
    (stlc.LEFTMOST_OUTERMOST, (1_900, 6_000), (640, 2_000)),
    (stlc.RIGHTMOST_INNERMOST, (12_900, 38_000), (940, 4_000)),
])
def test_stlc_normalize_goes_on_from_each_contraction(monkeypatch, strategy, visits, rebuilds):
    shape = CountedLookups(stlc_reduce._SHAPE)
    monkeypatch.setattr(stlc_reduce, "_SHAPE", shape)
    rebuild, rebuilt = stlc_reduce._rebuild, [0]

    def counted(*args):  # the walk's rebuilds, not those of `shift` and `subst`
        rebuilt[0] += 1
        return rebuild(*args)

    monkeypatch.setattr(stlc_reduce, "_rebuild", counted)
    for t in stlc_terms():
        stlc.normalize(t, strategy=strategy)
    assert visits[0] <= shape.calls <= visits[1]
    assert rebuilds[0] <= rebuilt[0] <= rebuilds[1]


def test_dtt_whnf_rebuilds_only_stuck_nodes(monkeypatch):
    rng = random.Random(20240624)
    terms = [gen_dtt_nat(rng, depth=rng.randrange(1, 5), nvars=i % 3) for i in range(300)]
    calls = count_entries(monkeypatch, dtt_syntax, "replace_field")
    for e in terms:
        dtt.normalize(dtt.KernelConfig(), dtt.DttContext(), e)
    assert 3 <= calls[0] <= 12


# Options of the scripts that need any; the others run with Options().
SCRIPT_OPTIONS = {"diaconescu.hol": {"axioms": ("choice", "propext")}}


@pytest.mark.parametrize(
    "script, calculus, module, name",
    [
        ("add_comm.dtt", "dtt", dtt_kernel, "_infer"),
        ("add_comm.dtt", "dtt", dtt_kernel, "whnf"),
        ("add_comm.dtt", "dtt", dtt_kernel, "_conv"),
        ("add_comm.dtt", "dtt", dtt_syntax, "shift"),
        ("add_comm.dtt", "dtt", dtt_syntax, "subst"),
        ("nat_arith.dtt", "dtt", dtt_kernel, "whnf"),
        ("types_library.dtt", "dtt", dtt_syntax, "subst"),
        ("stlc_basics.stlc", "stlc", stlc_typing, "infer_type"),
        ("diaconescu.hol", "hol", hol_kernel, "check_term"),
        ("diaconescu.hol", "hol", hol_kernel, "type_of"),
        ("diaconescu.hol", "hol", hol_kernel, "type_subst"),
        ("diaconescu.hol", "hol", hol_kernel, "subst_fvars"),
        ("diaconescu.hol", "hol", hol_kernel, "open_term"),
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
        report = run_script_text(calculus, text, Options(**SCRIPT_OPTIONS.get(script, {})), script)
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
        ("stlc", stlc_fun_definitions, (stlc_parser, ("parse_stlc_term", "_stlc_factor"))),
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


# Checks one n-deep chain of binders per calculus and prints, per calculus,
# the entries into the walks that close a binder over its body. A fresh
# process, because the test runner's own frames eat the stack.
CHAINS_CHILD = """
import json, sys
from foundry.fol import syntax as fol_syntax
from foundry.hol import kernel as hol_kernel
from foundry.run import Options, run_script_text
from foundry.stlc import syntax as stlc_syntax

xs = [f"x{i}" for i in range(100)]
fol_chain = "".join(f"forall {x} : obj, " for x in xs) + "P(x0, x99)"
lams = "(" + "".join(f"fun ({x} : Prop) => " for x in xs) + "x0)"
scripts = {
    "fol": "sort obj\\nrel P : (obj, obj)\\ncheck {" + fol_chain + "}\\n",
    "stlc": "check {" + "".join(f"fun ({x} : Nat) => " for x in xs) + "x0}\\n",
    "hol": f"theorem t : {{{lams} = {lams}}} := refl {{{lams}}}\\n",
}
codes = {f.__code__ for f in (fol_syntax._map_formula, stlc_syntax.abstract_free, hol_kernel.abstract_fvar)}
entries = {}
for calculus, text in scripts.items():
    entries[calculus] = 0

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            entries[calculus] += 1

    sys.setprofile(profile)
    report = run_script_text(calculus, text, Options(), calculus)
    sys.setprofile(None)
    assert report.ok, report.first_error()
print(json.dumps(entries))
"""


def test_binder_chains_are_read_without_a_closing_walk():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(foundry.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", CHAINS_CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"fol": 0, "stlc": 0, "hol": 0}
