"""The DTT kernel's rule tables and shared base types, against the `match`es they replaced.

`dtt_infer_reference` keeps the kernel's inference as one `match` that builds
a fresh `Nat()`, `TypeSort(0)` and so on for every type it returns. The
kernel now looks each node's rule up in `_INFER` and returns one shared
object per base type. On seeded well-typed terms, on near-miss mutants of
them, on the definitions of the corpus scripts and on one node of every
class, the two give the same type, or fail with the same error class, tag
and message.

`dtt_step_reference` keeps the kernel's head step as one `match`; `whnf` now
takes it from `_STEP`. On every redex shape, on stuck heads, and on every
subterm of seeded terms and of the corpus definitions, before and after its
head field is put in weak head normal form, the two give equal contracta or
both None.
"""

import random

import pytest

import dtt_infer_reference as reference
import dtt_step_reference
from foundry.dtt import kernel
from foundry.dtt.runner import DttRunner
from foundry.dtt.syntax import (
    _SHAPE, App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id,
    IdCases, Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma,
    SigmaCases, Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W,
    WRec, Zero, numeral, replace_field,
)
from foundry.errors import FoundryError
from foundry.run import Options
from foundry.stlc.syntax import Zero as StlcZero
from foundry.surface.script import parse_script

from helpers_dtt import CORPUS, gen_dtt_nat

CONFIGS = [
    kernel.KernelConfig(),
    kernel.KernelConfig(impredicative_prop=True, cumulativity=True),
    kernel.KernelConfig(eta_for_pi=True, axioms=frozenset({"funext", "K"})),
]

# Types whose sorts sit above Type 0, or at Prop.
LARGE_TYPES = [
    Pi(TypeSort(0), Var(0)), Lam(TypeSort(0), Var(0), hint="a"),
    Sigma(TypeSort(1), Nat()), Sum(TypeSort(0), Nat()), W(TypeSort(0), Nat()),
    Id(TypeSort(1), Nat(), Bool()), Pi(Nat(), Id(Nat(), Var(0), Var(0))),
    Sigma(Nat(), Id(Nat(), Var(0), Var(0)), in_prop=True), Pi(PropSort(), Var(0)),
]

# Small terms of many types and sorts, to put where they do not belong.
NEAR_MISSES = [
    Zero(), numeral(2), TrueE(), FalseE(), Star(), Nat(), Bool(), Unit(),
    TypeSort(0), TypeSort(1), PropSort(), Var(0), Var(7), Axiom("funext"),
    Lam(Bool(), Var(0), hint="b"), Lam(Nat(), Succ(Var(0)), hint="n"),
    Pi(Nat(), Nat()), Sigma(Nat(), Nat()), Sum(Nat(), Bool()),
    App(Zero(), Zero()), *LARGE_TYPES,
]


def outcome(infer, cfg, e):
    try:
        return ("type", infer(cfg, (), e))
    except FoundryError as err:
        return (type(err).__name__, err.tag, str(err))


def assert_same(cfg, e):
    want = outcome(reference._infer, cfg, e)
    got = outcome(kernel._infer, cfg, e)
    assert got == want, e
    return got


def subterm_paths(e, path=()):
    yield path
    for name, _ in _SHAPE.get(type(e), ()):
        yield from subterm_paths(getattr(e, name), path + (name,))


def put(e, path, value):
    """e with the subterm at path replaced by value."""
    if not path:
        return value
    return replace_field(e, path[0], put(getattr(e, path[0]), path[1:], value))


def mutants(rng, e, n):
    paths = list(subterm_paths(e))
    return [put(e, rng.choice(paths), rng.choice(NEAR_MISSES)) for _ in range(n)]


def script_defs(name, options):
    runner = DttRunner(options, name)
    runner.run(parse_script((CORPUS / name).read_text(), name))
    return runner.cfg, runner.defs


def test_every_expr_class_has_a_rule():
    assert set(kernel._INFER) == set(Expr.__args__)


@pytest.mark.parametrize("cls", Expr.__args__, ids=lambda c: c.__name__)
def test_each_class_gives_the_reference_outcome(cls):
    fields = {"index": 0, "level": 0, "name": "funext", "in_prop": False}
    args = [fields.get(name, Zero()) for name in cls.__match_args__]
    for cfg in CONFIGS:
        assert_same(cfg, cls(*args))


def test_an_object_of_no_dtt_class_fails_as_before():
    for cfg in CONFIGS:
        got = assert_same(cfg, StlcZero())
        assert got == ("TypeCheckError", "type-error", "cannot infer a type for Zero")


def test_large_types_agree_with_the_reference():
    kinds = {assert_same(cfg, e)[0] for e in LARGE_TYPES for cfg in CONFIGS}
    assert {"type", "TypeCheckError"} <= kinds


def test_seeded_terms_and_near_misses_agree_with_the_reference():
    rng = random.Random(20240622)
    kinds = set()
    for _ in range(150):
        e = gen_dtt_nat(rng, depth=rng.randrange(1, 5))
        for cfg in CONFIGS:
            assert assert_same(cfg, e)[0] == "type"
        for m in mutants(rng, e, 4):
            kinds.add(assert_same(rng.choice(CONFIGS), m)[0])
    assert {"type", "TypeCheckError"} <= kinds


@pytest.mark.parametrize("name, options", [
    ("add_comm.dtt", Options()),
    ("fin.dtt", Options()),
    ("nat_arith.dtt", Options()),
    ("prop_demo.dtt", Options(impredicative_prop=True)),
    ("types_library.dtt", Options()),
    ("w_types.dtt", Options()),
])
def test_corpus_definitions_and_their_near_misses_agree_with_the_reference(name, options):
    cfg, defs = script_defs(name, options)
    assert defs
    rng = random.Random(name)
    for e in defs.values():
        assert assert_same(cfg, e)[0] == "type"
        for m in mutants(rng, e, 6):
            assert_same(cfg, m)


def test_the_kernel_returns_its_shared_base_types():
    cfg = kernel.KernelConfig()
    assert kernel._infer(cfg, (), Succ(Zero())) is kernel.NAT
    assert kernel._infer(cfg, (), TrueE()) is kernel.BOOL
    assert kernel._infer(cfg, (), Star()) is kernel.UNIT
    assert kernel._infer(cfg, (), Pi(Nat(), Nat())) is kernel.TYPE_0
    prop = kernel.KernelConfig(impredicative_prop=True)
    assert kernel._infer(prop, (), Pi(Nat(), Id(Nat(), Var(0), Var(0)))) is kernel.PROP


def table_step(cfg, e):
    """One head step from `_STEP`, as `whnf` takes it."""
    entry = kernel._STEP.get(type(e))
    if entry is None:
        return None
    field, contractions = entry
    head = getattr(e, field)
    contract = contractions.get(type(head))
    return None if contract is None else contract(cfg, e, head, kernel._Fuel(kernel.DEFAULT_FUEL))


def assert_same_step(cfg, e):
    got = table_step(cfg, e)
    assert got == dtt_step_reference._step(cfg, e), e
    return got


NAT_TO_NAT = Lam(Nat(), Nat(), hint="_")
SUCC_STEP = Lam(Nat(), Lam(Nat(), Succ(Var(0)), hint="ih"), hint="n")
SIG = Sigma(Nat(), Nat())
SUM = Sum(Nat(), Bool())
# Trees with a leaf label (false, no children) and a node label (true, one child).
TREE = W(Bool(), BoolCases(Lam(Bool(), TypeSort(0), hint="_"), Unit(), Empty(), Var(0)), hint="b")
TREE_MOTIVE = Lam(TREE, Nat(), hint="_")
TREE_STEP = Lam(Bool(), Lam(Nat(), Lam(Nat(), Zero(), hint="r"), hint="f"), hint="a")
LEAF_CHILDREN = Lam(Empty(), EmptyCases(Lam(Empty(), TREE, hint="_"), Var(0)), hint="y")
ID_MOTIVE = Lam(
    Nat(), Lam(Nat(), Lam(Id(Nat(), Var(1), Var(0)), Nat(), hint="p"), hint="y"), hint="x",
)

REDEXES = {
    "beta": App(Lam(Nat(), Succ(Var(0)), hint="x"), numeral(2)),
    "nat_rec_zero": NatRec(NAT_TO_NAT, numeral(1), SUCC_STEP, Zero()),
    "nat_rec_succ": NatRec(NAT_TO_NAT, numeral(1), SUCC_STEP, numeral(2)),
    "sigma_cases": SigmaCases(
        Lam(SIG, Nat(), hint="_"), Lam(Nat(), Lam(Nat(), Var(1), hint="b"), hint="a"),
        Pair(SIG, numeral(1), numeral(2)),
    ),
    "id_cases": IdCases(
        ID_MOTIVE, Lam(Nat(), Zero(), hint="z"), numeral(1), numeral(1), Refl(Nat(), numeral(1)),
    ),
    "bool_cases_true": BoolCases(Lam(Bool(), Nat(), hint="_"), numeral(1), numeral(2), TrueE()),
    "bool_cases_false": BoolCases(Lam(Bool(), Nat(), hint="_"), numeral(1), numeral(2), FalseE()),
    "sum_cases_inl": SumCases(
        Lam(SUM, Nat(), hint="_"), Lam(Nat(), Succ(Var(0)), hint="x"),
        Lam(Bool(), Zero(), hint="b"), Inl(SUM, numeral(3)),
    ),
    "sum_cases_inr": SumCases(
        Lam(SUM, Nat(), hint="_"), Lam(Nat(), Succ(Var(0)), hint="x"),
        Lam(Bool(), Zero(), hint="b"), Inr(SUM, TrueE()),
    ),
    "w_rec": WRec(TREE_MOTIVE, TREE_STEP, Sup(TREE, FalseE(), LEAF_CHILDREN)),
    "w_rec_with_free_variables": WRec(
        Lam(TREE, Var(1), hint="_"), Lam(Bool(), Var(1), hint="a"),
        Sup(TREE, TrueE(), Lam(Unit(), App(Var(1), Var(0)), hint="y")),
    ),
    "w_rec_annotated_by_a_redex": WRec(
        TREE_MOTIVE, TREE_STEP,
        Sup(App(Lam(Nat(), TREE, hint="n"), Zero()), FalseE(), LEAF_CHILDREN),
    ),
}

STUCK = {
    "app_of_a_variable": App(Var(0), Zero()),
    "app_of_an_axiom": App(Axiom("funext"), Zero()),
    "app_of_an_app": App(App(Lam(Nat(), Lam(Nat(), Var(1))), Zero()), Zero()),
    "nat_rec_on_a_variable": NatRec(NAT_TO_NAT, Zero(), SUCC_STEP, Var(0)),
    "nat_rec_on_an_axiom": NatRec(NAT_TO_NAT, Zero(), SUCC_STEP, Axiom("choice")),
    "sigma_cases_on_a_variable": SigmaCases(
        Lam(SIG, Nat()), Lam(Nat(), Lam(Nat(), Var(1))), Var(0),
    ),
    "id_cases_on_a_variable": IdCases(ID_MOTIVE, Lam(Nat(), Zero()), Zero(), Zero(), Var(0)),
    "bool_cases_on_a_variable": BoolCases(Lam(Bool(), Nat()), Zero(), Zero(), Var(0)),
    "sum_cases_on_a_variable": SumCases(
        Lam(SUM, Nat()), Lam(Nat(), Var(0)), Lam(Bool(), Zero()), Var(0),
    ),
    "w_rec_on_a_variable": WRec(TREE_MOTIVE, TREE_STEP, Var(0)),
    "w_rec_of_a_sup_not_annotated_by_a_w": WRec(
        TREE_MOTIVE, TREE_STEP, Sup(Nat(), FalseE(), LEAF_CHILDREN),
    ),
    "empty_cases": EmptyCases(Lam(Empty(), Nat()), Var(0)),
    "lam": Lam(Nat(), App(Lam(Nat(), Var(0)), Var(0))),
    "succ": Succ(App(Lam(Nat(), Var(0)), Zero())),
    "pi": Pi(Nat(), Nat()),
    "variable": Var(3),
    "zero": Zero(),
}


def test_the_step_table_covers_the_heads_the_match_reduced():
    heads = {cls: field for cls, (field, _) in kernel._STEP.items()}
    assert heads == dtt_step_reference._HEAD_FIELD


@pytest.mark.parametrize("name", REDEXES)
def test_each_redex_shape_steps_as_the_reference(name):
    for cfg in CONFIGS:
        assert assert_same_step(cfg, REDEXES[name]) is not None


@pytest.mark.parametrize("name", STUCK)
def test_stuck_heads_do_not_step(name):
    for cfg in CONFIGS:
        assert assert_same_step(cfg, STUCK[name]) is None


def steps_in(cfg, e):
    """How many subterms of e, and of each with its head field put in weak
    head normal form, step; each agrees with the reference."""
    stepped = 0
    for path in subterm_paths(e):
        sub = e
        for name in path:
            sub = getattr(sub, name)
        stepped += assert_same_step(cfg, sub) is not None
        entry = kernel._STEP.get(type(sub))
        if entry is not None:
            field = entry[0]
            sub = replace_field(sub, field, kernel.whnf(cfg, getattr(sub, field)))
            stepped += assert_same_step(cfg, sub) is not None
    return stepped


def test_seeded_terms_step_as_the_reference():
    rng = random.Random(20240623)
    stepped = 0
    for _ in range(150):
        e = gen_dtt_nat(rng, depth=rng.randrange(1, 5), nvars=rng.randrange(3))
        stepped += steps_in(rng.choice(CONFIGS), e)
    assert stepped > 300


@pytest.mark.parametrize("name", ["types_library.dtt", "w_types.dtt", "add_comm.dtt"])
def test_corpus_definitions_step_as_the_reference(name):
    cfg, defs = script_defs(name, Options())
    assert sum(steps_in(cfg, e) for e in defs.values()) > 0
