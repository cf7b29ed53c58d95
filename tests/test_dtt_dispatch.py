"""The DTT kernel's rule table and shared base types, against the `match` they replaced.

`dtt_infer_reference` keeps the kernel's inference as one `match` that builds
a fresh `Nat()`, `TypeSort(0)` and so on for every type it returns. The
kernel now looks each node's rule up in `_INFER` and returns one shared
object per base type. On seeded well-typed terms, on near-miss mutants of
them, on the definitions of the corpus scripts and on one node of every
class, the two give the same type, or fail with the same error class, tag
and message.
"""

import random

import pytest

import dtt_infer_reference as reference
from foundry.dtt import kernel
from foundry.dtt.runner import DttRunner
from foundry.dtt.syntax import (
    _SHAPE, App, Axiom, Bool, Expr, FalseE, Id, Lam, Nat, Pi, PropSort, Sigma,
    Star, Succ, Sum, TrueE, TypeSort, Unit, Var, W, Zero, numeral, replace_field,
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
