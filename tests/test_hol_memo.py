"""The HOL kernel's per-state check memo, the derived layer's per-state
lemma cache, the cached node hash, and the read-only state tables both rely
on."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import foundry.hol.kernel as hk
from foundry.errors import KernelError
import foundry.hol.derived as hd
from foundry.hol import (
    ASSUME, Abs, App, BVar, Const, FVar, HolTheorem, IND, PROP, REFL, TyApp,
    TyVar, define_connectives, fn, initial_state, mk_eq, mk_eq_at,
    new_definition, new_type_definition,
)
from foundry.hol.derived import EQT_INTRO, EXISTS, TRUTH, mk_exists_pred
from foundry.hol.runner import HolRunner
from foundry.run import Options
from foundry.surface.script import parse_script
from foundry.span import Span


@pytest.fixture(scope="module")
def base():
    state, _ = define_connectives(initial_state())
    return state


def _span(i):
    return Span("memo", i, 1, i, 2)


def respan(t, i):
    """A structurally equal copy of t with other spans and hints."""
    match t:
        case TyVar(name=n):
            return TyVar(n, span=_span(i))
        case TyApp(op=op, args=args):
            return TyApp(op, tuple(respan(a, i) for a in args), span=_span(i))
        case BVar(index=k):
            return BVar(k, span=_span(i))
        case FVar(name=n, type=ty):
            return FVar(n, respan(ty, i), span=_span(i))
        case Const(name=n, type=ty):
            return Const(n, respan(ty, i), span=_span(i))
        case App(fn=f, arg=a):
            return App(respan(f, i), respan(a, i), span=_span(i))
        case Abs(dom=d, body=b):
            return Abs(respan(d, i), respan(b, i), hint=f"h{i}", span=_span(i))
    raise TypeError(t)


def test_memo_is_per_state():
    s0 = initial_state()
    idp = Abs(PROP, BVar(0))
    c = Const("c", PROP)
    t = mk_eq_at(PROP, c, c)
    with pytest.raises(KernelError, match="unknown constant c"):
        REFL(s0, t)
    s1, _ = new_definition(s0, "c", mk_eq(idp, idp))
    assert REFL(s1, t).conclusion == mk_eq_at(PROP, t, t)
    with pytest.raises(KernelError, match="unknown constant c"):
        REFL(s0, t)
    with pytest.raises(KernelError, match="unknown constant c"):
        REFL(initial_state(), t)


def test_failed_checks_are_not_stored(base):
    state = dataclasses.replace(base)
    bad = App(Const("not", fn(PROP, PROP)), FVar("x", IND))
    for _ in range(2):
        with pytest.raises(KernelError, match="ill-typed application"):
            REFL(state, bad)
    assert bad not in state.checked


def test_replace_starts_an_empty_memo(base):
    state = dataclasses.replace(base)
    p = FVar("p", PROP)
    REFL(state, p)
    assert state.checked == {p: PROP}
    for other in (dataclasses.replace(state), state.enable_axiom("choice"), state.log("note", "x")):
        assert other.checked == {} and other.checked is not state.checked


def test_each_closed_term_is_checked_once_per_state(monkeypatch, base):
    calls, depth = [], [0]
    real = hk.check_term

    def counted(state, t, stack=()):
        if not depth[0]:
            calls.append(t)
        depth[0] += 1
        try:
            return real(state, t, stack)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hk, "check_term", counted)
    state = dataclasses.replace(base)
    t = App(Const("not", fn(PROP, PROP)), FVar("p", PROP))
    REFL(state, t)
    REFL(state, respan(t, 7))
    ASSUME(state, t)
    assert calls == [t]
    REFL(dataclasses.replace(state), t)
    assert calls == [t, t]


def test_state_tables_are_read_only(base):
    with pytest.raises(TypeError):
        base.constants["c"] = base.constants["true"]
    with pytest.raises(TypeError):
        base.type_ops["T"] = 0
    idp = Abs(PROP, BVar(0))
    s1, th = new_definition(base, "c", mk_eq(idp, idp))
    assert "c" in s1.constants and "c" not in base.constants
    with pytest.raises(TypeError):
        s1.constants["d"] = s1.constants["c"]
    pred = Abs(PROP, mk_eq_at(PROP, BVar(0), Const("true", PROP)))
    nonempty = EXISTS(base, mk_exists_pred(pred), Const("true", PROP), EQT_INTRO(base, TRUTH(base)))
    s2, *_ = new_type_definition(base, "single", pred, nonempty)
    assert s2.type_ops["single"] == 0 and "single" not in base.type_ops
    with pytest.raises(TypeError):
        s2.type_ops["single"] = 1


def test_hash_and_equality_ignore_spans_and_hints():
    t = Abs(IND, App(FVar("f", fn(IND, PROP)), BVar(0)), hint="x")
    u = respan(t, 3)
    assert t == u and hash(t) == hash(u)
    first = hash(t)
    assert hash(t) == first and hash(respan(t, 4)) == first
    assert {t: 1}[u] == 1
    assert t != Abs(PROP, App(FVar("f", fn(IND, PROP)), BVar(0)))


def test_nodes_stay_immutable():
    t = App(FVar("f", fn(IND, IND)), FVar("x", IND))
    hash(t)
    with pytest.raises(AttributeError):
        t.fn = FVar("g", fn(IND, IND))
    with pytest.raises(AttributeError):
        t._h = 0
    with pytest.raises(AttributeError):
        TyVar("a").name = "b"


# Random closed terms over a small vocabulary, well-typed or not: unknown
# constants and type operators, constants at non-instances, loose indices
# and ill-typed applications all occur.
_types = st.recursive(
    st.sampled_from([PROP, IND, TyVar("a"), TyApp("Foo"), TyApp("fun", (PROP,))]),
    lambda sub: st.builds(fn, sub, sub),
    max_leaves=4,
)
_leaves = st.one_of(
    st.builds(BVar, st.integers(0, 2)),
    st.builds(FVar, st.sampled_from(["x", "y"]), _types),
    st.builds(Const, st.sampled_from(["=", "eps", "true", "not", "and", "undefined"]), _types),
    st.just(Const("true", PROP)),
    st.just(Const("not", fn(PROP, PROP))),
)
_terms = st.recursive(
    _leaves,
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Abs, _types, sub)),
    max_leaves=12,
)


def _outcome(rule, state, t):
    try:
        return "ok", rule(state, t)
    except KernelError as e:
        return "error", e.message


@settings(max_examples=300, deadline=None)
@given(_terms, st.sampled_from([REFL, ASSUME]))
def test_memoized_checks_agree_with_a_fresh_state(base, t, rule):
    warm = dataclasses.replace(base)
    _outcome(rule, warm, respan(t, 1))
    assert _outcome(rule, warm, t) == _outcome(rule, dataclasses.replace(base), t)


# ---------------------------------------------------------------------------
# Leaves: check_term checks a constant instance or a free variable on its
# first occurrence under a state and then finds it in state.checked.


@pytest.fixture(scope="module")
def extended(base):
    """base plus a constant c : Prop, a polymorphic k : 'a -> 'a and a type
    operator single with its abs/repr constants."""
    idp = Abs(PROP, BVar(0))
    state, _ = new_definition(base, "c", mk_eq(idp, idp))
    state, _ = new_definition(state, "k", Abs(TyVar("a"), BVar(0), hint="x"))
    pred = Abs(PROP, mk_eq_at(PROP, BVar(0), Const("true", PROP)))
    nonempty = EXISTS(state, mk_exists_pred(pred), Const("true", PROP), EQT_INTRO(state, TRUTH(state)))
    state, *_ = new_type_definition(state, "single", pred, nonempty)
    return state


def test_a_leaf_accepted_under_a_definition_stays_unknown_before_it():
    s0 = initial_state()
    idp = Abs(PROP, BVar(0))
    s1, _ = new_definition(s0, "c", mk_eq(idp, idp))
    c = Const("c", PROP)
    t = App(Abs(PROP, BVar(0), hint="p"), c)
    assert hk.check_term(s1, t) == PROP
    assert s1.checked[c] == PROP
    for _ in range(2):
        with pytest.raises(KernelError, match="unknown constant c"):
            hk.check_term(s0, t)
        with pytest.raises(KernelError, match="unknown constant c"):
            REFL(s0, mk_eq_at(PROP, c, c))
    assert c not in s0.checked


@pytest.mark.parametrize("leaf, message", [
    (Const("not", fn(IND, PROP)), "not an instance"),
    (Const("=", fn(IND, fn(PROP, PROP))), "not an instance"),
    (Const("=", fn(TyApp("Foo"), fn(TyApp("Foo"), PROP))), "unknown type operator Foo"),
    (Const("eps", fn(fn(TyApp("fun", (IND,)), PROP), TyApp("fun", (IND,)))), "arity 2, got 1"),
    (FVar("x", TyApp("Foo")), "unknown type operator Foo"),
])
def test_a_rejected_leaf_is_not_stored(base, leaf, message):
    state = dataclasses.replace(base)
    t = Abs(PROP, App(leaf, BVar(0)), hint="p")
    for term in (leaf, t):
        for _ in range(2):
            with pytest.raises(KernelError, match=message):
                hk.check_term(state, term)
    assert leaf not in state.checked and t not in state.checked


def test_a_respanned_leaf_hits_the_memo(monkeypatch, base):
    state = dataclasses.replace(base)
    eq = Const("=", fn(IND, fn(IND, PROP)))
    t = App(App(eq, FVar("x", IND)), App(Const("eps", fn(fn(IND, PROP), IND)), FVar("P", fn(IND, PROP))))
    assert hk.check_term(state, t) == PROP
    stored = dict(state.checked)
    assert stored[eq] == fn(IND, fn(IND, PROP))
    calls = []

    def counted(name):
        real = getattr(hk, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("check_type", "type_match"):
        monkeypatch.setattr(hk, name, counted(name))
    assert hk.check_term(state, respan(t, 9)) == PROP
    assert hk.check_term(state, respan(eq, 8)) == eq.type
    assert calls == [] and state.checked == stored
    hk.check_term(state, Const("=", fn(PROP, fn(PROP, PROP))))
    assert calls[0] == "check_type" and "type_match" in calls


def ref_check_type(state, ty):
    """check_type, restated."""
    if isinstance(ty, TyApp):
        if state.type_ops.get(ty.op) != len(ty.args):
            raise KernelError(f"bad type operator {ty.op}")
        for a in ty.args:
            ref_check_type(state, a)


def ref_check(state, t, stack=()):
    """check_term without any memo: every leaf checked at every occurrence."""
    match t:
        case BVar(index=k):
            if k >= len(stack):
                raise KernelError("unbound")
            return stack[k]
        case FVar(type=ty):
            ref_check_type(state, ty)
            return ty
        case Const(name=n, type=ty):
            if n not in state.constants:
                raise KernelError("unknown constant")
            ref_check_type(state, ty)
            if hk.type_match(state.constants[n].generic, ty) is None:
                raise KernelError("not an instance")
            return ty
        case App(fn=f, arg=a):
            tf = ref_check(state, f, stack)
            if not (isinstance(tf, TyApp) and tf.op == "fun" and ref_check(state, a, stack) == tf.args[0]):
                raise KernelError("ill-typed application")
            return tf.args[1]
        case Abs(dom=d, body=b):
            ref_check_type(state, d)
            return fn(d, ref_check(state, b, (d,) + stack))
    raise TypeError(t)


def _verdict(check, state, t):
    try:
        return check(state, t)
    except KernelError:
        return "error"


_SINGLE = TyApp("single")
_leaf_types = st.recursive(
    st.sampled_from([PROP, IND, TyVar("a"), _SINGLE, TyApp("Foo"), TyApp("fun", (PROP,))]),
    lambda sub: st.builds(fn, sub, sub),
    max_leaves=3,
)
_vocabulary = st.one_of(
    st.builds(BVar, st.integers(0, 2)),
    st.builds(FVar, st.sampled_from(["x", "y"]), _leaf_types),
    st.builds(
        Const,
        st.sampled_from(["=", "eps", "not", "c", "k", "abs_single", "repr_single", "undefined"]),
        _leaf_types,
    ),
    st.sampled_from([
        Const("c", PROP), Const("true", PROP), Const("not", fn(PROP, PROP)),
        Const("k", fn(PROP, PROP)), Const("k", fn(_SINGLE, _SINGLE)),
        Const("repr_single", fn(_SINGLE, PROP)), Const("abs_single", fn(PROP, _SINGLE)),
        Const("=", fn(_SINGLE, fn(_SINGLE, PROP))), FVar("s", _SINGLE), FVar("p", PROP),
    ]),
)
_mixed_terms = st.recursive(
    _vocabulary,
    lambda sub: st.one_of(
        st.builds(App, sub, sub),
        st.builds(Abs, st.sampled_from([PROP, _SINGLE, TyApp("Foo")]) | _leaf_types, sub),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _mixed_terms, st.integers(0, 2)), min_size=1, max_size=8))
def test_memoized_check_term_agrees_with_an_unmemoized_reference(base, extended, steps):
    states = (dataclasses.replace(base), dataclasses.replace(extended))
    for later, t, i in steps:
        state = states[later]
        for term in (t, respan(t, i)):
            want = _verdict(ref_check, state, term)
            assert _verdict(hk.check_term, state, term) == want
        assert all(ref_check(state, k) == v for k, v in state.checked.items())


def test_empty_type_instantiation_returns_the_theorem(base):
    th = REFL(base, FVar("x", TyVar("a")))
    assert hk.inst_type(base, th, {}) is th


# ---------------------------------------------------------------------------
# The derived layer's per-state lemma cache


def _exercise(state):
    """Run every rule that proves a lemma, so state.lemmas fills up."""
    p, q = FVar("p", PROP), FVar("q", PROP)
    x = FVar("x", IND)
    conj = hd.CONJ(state, ASSUME(state, p), ASSUME(state, q))
    hd.CONJUNCT1(state, conj)
    hd.CONJUNCT2(state, conj)
    imp = hd.DISCH(state, p, ASSUME(state, q))
    hd.MP(state, imp, ASSUME(state, p))
    hd.DISJ1(state, ASSUME(state, p), q)
    hd.DISJ2(state, p, ASSUME(state, q))
    hd.CONTR(state, p, ASSUME(state, Const("false", PROP)))
    gen = hd.GEN(state, x, ASSUME(state, p))
    hd.SPEC(state, x, gen)
    pred = Abs(IND, mk_eq_at(IND, BVar(0), x), hint="y")
    hd.EXISTS(state, mk_exists_pred(pred), x, REFL(state, x))
    hd.NOT_ELIM(state, ASSUME(state, hd.mk_neg(p)))


def test_lemma_caches_start_empty():
    state, _ = define_connectives(initial_state())
    assert initial_state().lemmas == {} and state.lemmas == {}
    _exercise(state)
    assert state.lemmas
    idp = Abs(PROP, BVar(0))
    s1, _ = new_definition(state, "c", mk_eq(idp, idp))
    for other in (dataclasses.replace(state), state.enable_axiom("choice"), state.log("note", "x"), s1):
        assert other.lemmas == {} and other.lemmas is not state.lemmas


def test_states_never_share_lemmas(base):
    s1, s2 = dataclasses.replace(base), dataclasses.replace(base)
    _exercise(s1)
    assert s2.lemmas == {}
    _exercise(s2)
    assert s1.lemmas.keys() == s2.lemmas.keys()
    assert all(s1.lemmas[k] is not s2.lemmas[k] for k in s1.lemmas)


def test_the_cache_holds_only_theorems(base):
    state = dataclasses.replace(base)
    _exercise(state)
    assert {"TRUTH", "CONJ", ("CONJUNCT", True), ("CONJUNCT", False), "MP", "DISJ1", "DISJ2", "CONTR"} <= state.lemmas.keys()
    assert all(type(th) is HolTheorem for th in state.lemmas.values())


# `and` with its arguments swapped, and `and` as equality: the derivations
# from scratch give `b` from `and a b` by CONJUNCT1, and fail at the missing
# `forall`, where a lemma for the standard `and` would give `a`.
_NONSTANDARD_AND = [
    (
        "fun (p : Prop) (q : Prop) => forall (fun (r : Prop -> Prop -> Prop) => (r q p) = (r true true))",
        ["Thm c1: ok -- and a b |- b", "Thm c2: ok -- and a b |- a",
         "Thm cj: error[kernel-error] at 7:1: EQ_MP: the equation's left side does not match the theorem"],
    ),
    (
        "fun (p : Prop) (q : Prop) => p = q",
        ["Thm c1: error[kernel-error] at 5:1: term does not have forall at its head"],
    ),
]


@pytest.mark.parametrize("definiens, lines", _NONSTANDARD_AND)
def test_a_nonstandard_and_takes_the_derivation_from_scratch(definiens, lines):
    script = "\n".join([
        "define true := {(fun (p : Prop) => p) = (fun (p : Prop) => p)}",
        "define forall := {fun (P : 'a -> Prop) => P = (fun (x : 'a) => true)}",
        f"define and := {{{definiens}}}",
        "define imp := {fun (p : Prop) (q : Prop) => (and p q) = p}",
        "thm c1 := conjunct1 (assume {and (a : Prop) (b : Prop)})",
        "thm c2 := conjunct2 (assume {and (a : Prop) (b : Prop)})",
        "thm cj := conj (assume {(a : Prop)}) (assume {(b : Prop)})",
    ])
    runner = HolRunner(Options(), "nonstandard.hol")
    report = runner.run(parse_script(script, "nonstandard.hol"))
    text = report.to_text()
    for line in lines:
        assert line in text
    assert not any(isinstance(k, tuple) and k[0] == "CONJUNCT" or k == "CONJ" for k in runner.state.lemmas)
    assert all(type(th) is HolTheorem for th in runner.state.lemmas.values())
