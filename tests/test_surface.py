import pathlib
import random

import pytest

from foundry import dtt, fol, stlc
from foundry.errors import FoundryError, ParseError
from foundry.dtt import printer as dtt_printer
from foundry.hol import (
    PROP, IND, Abs, BVar, FVar as HVar, TyVar, fn, initial_state, define_connectives, type_of,
)
from foundry.stlc import printer as stlc_printer
from foundry.run import Options, run_script_text
from foundry.span import Span
from foundry.surface import Token, parse_expr, parse_script, pretty, tokenize

from helpers import gen_formula, nd_signature
from helpers_dtt import gen_dtt_nat

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_fol_round_trip_random():
    rng = random.Random(41)
    sig = nd_signature()
    for _ in range(150):
        a = gen_formula(rng, rng.randrange(4))
        text = pretty("fol", a)
        env = {v.name: v.sort for v in fol.free_vars(a)}
        b = parse_expr("fol", text, signature=sig, var_sorts=env)
        assert fol.alpha_equal(a, b), text


def test_stlc_round_trip_random():
    rng = random.Random(42)
    for _ in range(150):
        ty = stlc.gen_type(rng, 2)
        t = stlc.gen_term(rng, ty, 4)
        text = pretty("stlc", t)
        t2 = parse_expr("stlc", text)
        assert t == t2, text
    # a binder hinted with a keyword is renamed, not read back as the keyword
    for kw in [*stlc_printer.KEYWORDS, *stlc_printer.BINDERS]:
        t = stlc.Lam(stlc.NatT(), stlc.Var(0), hint=kw)
        text = pretty("stlc", t)
        assert text == f"fun ({kw}' : Nat) => {kw}'" and parse_expr("stlc", text) == t


def test_dtt_round_trip_random():
    rng = random.Random(43)
    for _ in range(150):
        e = gen_dtt_nat(rng, 3)
        text = pretty("dtt", e)
        e2 = parse_expr("dtt", text)
        assert e == e2, text
    for kw in [*dtt_printer.KEYWORDS, *dtt_printer.BINDERS]:
        e = dtt.Lam(dtt.Nat(), dtt.Var(0), hint=kw)
        text = pretty("dtt", e)
        assert text == f"fun ({kw}' : Nat) => {kw}'" and parse_expr("dtt", text) == e
    # types round trip too
    for src in [
        "Pi (a : Type 0), a -> a",
        "Sigma (x : Nat), Id Nat x 3",
        "W (b : Bool), boolcases [fun (c : Bool) => Type 0] Unit Empty b",
        "Nat + Bool -> Unit",
    ]:
        e = parse_expr("dtt", src)
        assert parse_expr("dtt", pretty("dtt", e)) == e


def _gen_hol(rng: random.Random, st, ty, depth: int, scope):
    if depth <= 0 or rng.random() < 0.3:
        candidates = [v for v in scope if v[1] == ty]
        if candidates and rng.random() < 0.7:
            name, _t = rng.choice(candidates)
            from foundry.hol import FVar

            return FVar(name, ty)
        from foundry.hol import Const, FVar

        if ty == PROP:
            return Const(rng.choice(["true", "false"]), PROP)
        return FVar(f"v{rng.randrange(3)}", ty)
    from foundry.hol import Abs, App, Const, abs_over, FVar, mk_eq

    if isinstance(ty, type(fn(PROP, PROP))) and getattr(ty, "op", "") == "fun":
        x = FVar(f"x{len(scope)}", ty.args[0])
        body = _gen_hol(rng, st, ty.args[1], depth - 1, scope + [(x.name, x.type)])
        return abs_over(x, body)
    if ty == PROP:
        k = rng.randrange(4)
        if k == 0:
            ity = rng.choice([PROP, IND])
            l = _gen_hol(rng, st, ity, depth - 1, scope)
            r = _gen_hol(rng, st, ity, depth - 1, scope)
            return mk_eq(l, r)
        if k == 1:
            c = Const(rng.choice(["and", "or", "imp"]), fn(PROP, fn(PROP, PROP)))
            return App(App(c, _gen_hol(rng, st, PROP, depth - 1, scope)),
                       _gen_hol(rng, st, PROP, depth - 1, scope))
        if k == 2:
            dom = rng.choice([PROP, IND])
            c = Const("forall", fn(fn(dom, PROP), PROP))
            return App(c, _gen_hol(rng, st, fn(dom, PROP), depth - 1, scope))
        return App(Const("not", fn(PROP, PROP)), _gen_hol(rng, st, PROP, depth - 1, scope))
    # Ind: only variables and applications of variables
    f = _gen_hol(rng, st, fn(IND, ty), depth - 1, scope)
    from foundry.hol import App as HApp

    return HApp(f, _gen_hol(rng, st, IND, depth - 1, scope))


def test_hol_round_trip_random():
    rng = random.Random(44)
    st, _ = define_connectives(initial_state())
    for _ in range(120):
        ty = rng.choice([PROP, fn(IND, PROP), fn(PROP, PROP)])
        t = _gen_hol(rng, st, ty, 3, [])
        text = pretty("hol", t)
        t2 = parse_expr("hol", text, state=st)
        assert t == t2, text
    t = Abs(PROP, BVar(0), hint="fun")
    assert pretty("hol", t) == "fun (fun' : Prop) => fun'"
    assert parse_expr("hol", pretty("hol", t), state=st) == t


def test_an_arrow_does_not_bind_the_name_underscore():
    e = parse_expr("dtt", "fun (_ : Type 0) => _ -> _")
    assert e == dtt.Lam(dtt.TypeSort(0), dtt.Pi(dtt.Var(0), dtt.Var(1)))
    assert parse_expr("dtt", pretty("dtt", e)) == e


def _gen_hol_type(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([PROP, IND, TyVar("a"), TyVar("b")])
    return fn(_gen_hol_type(rng, depth - 1), _gen_hol_type(rng, depth - 1))


def test_hol_type_round_trip_random():
    rng = random.Random(46)
    for _ in range(150):
        ty = _gen_hol_type(rng, 4)
        text = pretty("hol-type", ty)
        assert parse_expr("hol-type", text) == ty, text


@pytest.mark.parametrize("calculus, script, line, kwarg, macro", [
    ("hol", "term m := {(x : Ind)}\nthm t := refl {fun (x : Ind) => m}\n",
     "[  2] Thm t: ok -- |- (fun (x' : Ind) => x) = (fun (x' : Ind) => x)",
     "macros", HVar("x", IND)),
    ("stlc", "term m := {x}\ncheck {fun (x : Ind) => m}\n",
     "[  2] Check: error[type-error] at 2:1: unbound variable x",
     "consts", stlc.Free("x")),
])
def test_a_macro_free_variable_stays_free_under_a_binder_of_its_name(calculus, script, line, kwarg, macro):
    assert run_script_text(calculus, script, Options()).to_text().splitlines()[1] == line
    assert parse_expr(calculus, "fun (x : Ind) => m", **{kwarg: {"m": macro}}).body == macro


def test_parse_error_spans_lie_within_input():
    bad = "Pi (x : A), B"  # unbalanced? actually fine; use truly bad ones
    cases = ["Pi (x : A, B", "fun (x : Nat =>", "forall , x", "(", "natrec ["]
    for src in cases:
        with pytest.raises(FoundryError) as e:
            parse_expr("dtt", src)
        span = e.value.span
        if span is not None:
            lines = src.splitlines() or [""]
            assert 1 <= span.line <= len(lines) + 1


def test_fuzz_does_not_crash():
    rng = random.Random(45)
    seeds = [
        (CORPUS / "add_comm.dtt").read_text(),
        (CORPUS / "fol_basics.fol").read_text(),
        (CORPUS / "connectives.hol").read_text(),
        (CORPUS / "stlc_basics.stlc").read_text(),
    ]
    alphabet = "abcxyz(){}[]:=->,~/\\ 0123456789"
    for _ in range(400):
        text = rng.choice(seeds)
        chars = list(text)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[pos] = rng.choice(alphabet)
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(alphabet))
        mutated = "".join(chars)
        try:
            parse_script(mutated)
        except FoundryError:
            pass  # errors are fine; crashes are not


def test_duplicate_theorem_name_rejected():
    src = """
sort obj
rel P : ()
theorem t : {P -> P} := nd { impI {P} (hyp {P}) }
theorem t : {P -> P} := nd { impI {P} (hyp {P}) }
"""
    with pytest.raises(ParseError) as e:
        parse_script(src)
    assert "duplicate" in str(e.value)


def test_reference_before_definition_fails_at_runtime():
    src = "thm a := mp b c\nthm b := truth\n"
    r = run_script_text("hol", src, Options())
    err = r.first_error()
    assert err is not None and "unknown" in err.message


def test_application_chains_reparse_without_parens():
    st, _ = define_connectives(initial_state())
    t = parse_expr("hol", "and (or true false) (imp false true)", state=st)
    text = pretty("hol", t)
    assert parse_expr("hol", text, state=st) == t


def test_model_block_parses():
    cmds = parse_script((CORPUS / "geometry.model").read_text())
    kinds = [type(c).__name__ for c in cmds]
    assert "ModelDef" in kinds


def test_token_and_span_keep_their_constructors_repr_hash_and_equality():
    """What the frozen-dataclass Token and Span gave: positional and keyword
    construction, field order, repr text, the hash of the field tuple, value
    equality, and `file:line:col` as str."""
    span = Span("t", 1, 2, 3, 4)
    assert span == Span(file="t", line=1, col=2, end_line=3, end_col=4)
    assert (span.file, span.line, span.col, span.end_line, span.end_col) == ("t", 1, 2, 3, 4)
    assert repr(span) == "Span(file='t', line=1, col=2, end_line=3, end_col=4)"
    assert hash(span) == hash(("t", 1, 2, 3, 4))
    assert span != Span("t", 1, 2, 3, 5)
    assert str(span) == "t:1:2"

    token = Token("ident", "x", span)
    assert token == Token(kind="ident", value="x", span=Span("t", 1, 2, 3, 4))
    assert (token.kind, token.value, token.span) == ("ident", "x", span)
    assert repr(token) == (
        "Token(kind='ident', value='x', "
        "span=Span(file='t', line=1, col=2, end_line=3, end_col=4))"
    )
    assert hash(token) == hash(("ident", "x", ("t", 1, 2, 3, 4)))
    assert token != Token("ident", "y", span)
    assert tokenize("x", "t")[0] == Token("ident", "x", Span("t", 1, 1, 1, 2))
