"""The HOL kernel's walkers share `kernel._map` and `kernel._nodes`, against
references.

The references below are the hand-written walkers those two replaced, one
`match` case per node kind, and `_unshift`, which ETA used before it opened
the body with `open_term`. They are compared with the kernel on seeded random
terms that have loose bound variables, whose every node (types included)
carries its own span and whose every binder has its own hint. Term equality
ignores spans and hints, so each comparison also looks at the hint on every
binder and at which nodes kept their span (a rebuilt node has none).
"""

import itertools
import random

import pytest

from foundry.hol import kernel as hk
from foundry.hol.derived import define_connectives
from foundry.hol.kernel import (
    Abs, App, BVar, Const, FVar, PROP, TyApp, TyVar, fn, ty_vars, type_subst,
)
from foundry.span import Span

from helpers import is_node


def ref_term_ty_subst(t, mapping):
    match t:
        case BVar():
            return t
        case FVar(name=n, type=ty):
            return FVar(n, type_subst(ty, mapping))
        case Const(name=n, type=ty):
            return Const(n, type_subst(ty, mapping))
        case App(fn=f, arg=a):
            return App(ref_term_ty_subst(f, mapping), ref_term_ty_subst(a, mapping))
        case Abs(dom=d, body=b, hint=h):
            return Abs(type_subst(d, mapping), ref_term_ty_subst(b, mapping), hint=h)
    raise TypeError(t)


def ref_subst_fvars(t, mapping):
    match t:
        case BVar() | Const():
            return t
        case FVar():
            return mapping.get(t, t)
        case App(fn=f, arg=a):
            return App(ref_subst_fvars(f, mapping), ref_subst_fvars(a, mapping))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_subst_fvars(b, mapping), hint=h)
    raise TypeError(t)


def ref_open_term(body, value, depth=0):
    match body:
        case BVar(index=k):
            return value if k == depth else (BVar(k - 1) if k > depth else body)
        case FVar() | Const():
            return body
        case App(fn=f, arg=a):
            return App(ref_open_term(f, value, depth), ref_open_term(a, value, depth))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_open_term(b, value, depth + 1), hint=h)
    raise TypeError(body)


def ref_abstract_fvar(t, x, depth=0):
    match t:
        case BVar(index=k):
            return BVar(k + 1) if k >= depth else t
        case FVar():
            return BVar(depth) if t == x else t
        case Const():
            return t
        case App(fn=f, arg=a):
            return App(ref_abstract_fvar(f, x, depth), ref_abstract_fvar(a, x, depth))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_abstract_fvar(b, x, depth + 1), hint=h)
    raise TypeError(t)


def ref_unshift(t, depth=0):
    match t:
        case BVar(index=k):
            return BVar(k - 1) if k > depth else t
        case FVar() | Const():
            return t
        case App(fn=f, arg=a):
            return App(ref_unshift(f, depth), ref_unshift(a, depth))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_unshift(b, depth + 1), hint=h)
    raise TypeError(t)


def ref_term_ty_vars(t):
    match t:
        case BVar():
            return frozenset()
        case FVar(type=ty) | Const(type=ty):
            return ty_vars(ty)
        case App(fn=f, arg=a):
            return ref_term_ty_vars(f) | ref_term_ty_vars(a)
        case Abs(dom=d, body=b):
            return ty_vars(d) | ref_term_ty_vars(b)
    raise TypeError(t)


def ref_free_vars(t):
    match t:
        case BVar() | Const():
            return frozenset()
        case FVar():
            return frozenset((t,))
        case App(fn=f, arg=a):
            return ref_free_vars(f) | ref_free_vars(a)
        case Abs(body=b):
            return ref_free_vars(b)
    raise TypeError(t)


def ref_uses_bvar(t, depth):
    match t:
        case BVar(index=k):
            return k == depth
        case FVar() | Const():
            return False
        case App(fn=f, arg=a):
            return ref_uses_bvar(f, depth) or ref_uses_bvar(a, depth)
        case Abs(body=b):
            return ref_uses_bvar(b, depth + 1)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Inputs and the comparison


_spans = itertools.count()
_NAMES = ("x", "y", "z")


def gen_type(rng, size):
    if size <= 0 or rng.random() < 0.4:
        return rng.choice((PROP, TyApp("Ind"), TyVar("a"), TyVar("b")))
    if rng.random() < 0.2:
        return TyApp("list", (gen_type(rng, size - 1),))
    return fn(gen_type(rng, size - 1), gen_type(rng, size - 1))


def gen_term(rng, size, binders=0):
    """A random term, not necessarily well-typed, whose bound variables may
    point past the binders above them."""
    if size <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return BVar(rng.randrange(binders + 2))
        if r < 0.8:
            return FVar(rng.choice(_NAMES), gen_type(rng, 1))
        return Const(rng.choice(("=", "eps", "c")), gen_type(rng, 2))
    if rng.random() < 0.55:
        return App(gen_term(rng, size - 1, binders), gen_term(rng, size - 1, binders))
    return Abs(gen_type(rng, 1), gen_term(rng, size - 1, binders + 1))


def with_spans(x):
    """A copy of x in which every node, types included, has its own span and
    every binder its own hint."""
    if isinstance(x, tuple):
        return tuple(with_spans(y) for y in x)
    if not is_node(x):
        return x
    fields = {
        name: with_spans(getattr(x, name))
        for name in x._fields if name not in ("span", "hint")
    }
    n = next(_spans)
    if isinstance(x, Abs):
        fields["hint"] = f"h{n}"
    return type(x)(**fields, span=Span("t", n, 0, 0, 0))


def anatomy(x):
    """Everything of x that a reader can see: node kinds, fields, hints and
    the span (or its absence) on every node, types included."""
    if isinstance(x, tuple):
        return tuple(anatomy(y) for y in x)
    if not is_node(x):
        return x
    return (
        type(x).__name__, x.span, getattr(x, "hint", None),
        tuple(anatomy(getattr(x, name)) for name in x._fields
              if name not in ("span", "hint")),
    )


def corpus(seed=20240601, n=300):
    rng = random.Random(seed)
    return [with_spans(gen_term(rng, rng.randrange(2, 8))) for _ in range(n)]


TERMS = corpus()


def subterms(t):
    yield t
    if type(t) is App:
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif type(t) is Abs:
        yield from subterms(t.body)


def test_corpus_is_varied():
    nodes = [s for t in TERMS for s in subterms(t)]
    assert {type(s) for s in nodes} == {BVar, FVar, Const, App, Abs}
    assert sum(type(s) is Abs for s in nodes) > 300
    assert any(ref_open_term(t, FVar("w", PROP)) != t for t in TERMS)  # some are open


def test_read_only_walkers_match_reference():
    for t in TERMS:
        assert hk.free_vars(t) == ref_free_vars(t)
        assert hk.term_ty_vars(t) == ref_term_ty_vars(t)
        for depth in range(3):
            assert hk._uses_bvar(t, depth) == ref_uses_bvar(t, depth)
    assert any(hk._uses_bvar(t, 1) for t in TERMS) and not all(hk._uses_bvar(t, 1) for t in TERMS)


def test_read_only_walkers_take_deep_terms():
    t = App(FVar("x", TyVar("a")), BVar(2500))  # loose: under 2,500 binders
    for i in range(5000):
        t = Abs(TyVar("b"), App(t, BVar(0))) if i % 2 else App(Const("c", PROP), t)
    assert hk.free_vars(t) == {FVar("x", TyVar("a"))}
    assert hk.term_ty_vars(t) == {"a", "b"}
    assert hk._uses_bvar(t, 0) and not hk._uses_bvar(t, 1)


def test_term_ty_subst_matches_reference():
    rng = random.Random(1)
    for t in TERMS:
        mapping = {v: with_spans(gen_type(rng, 2)) for v in ("a", "b") if rng.random() < 0.7}
        assert anatomy(hk.term_ty_subst(t, mapping)) == anatomy(ref_term_ty_subst(t, mapping))


def test_subst_fvars_matches_reference_and_inserts_the_given_terms():
    rng = random.Random(2)
    for t in TERMS:
        fvars = sorted({s for s in subterms(t) if type(s) is FVar}, key=repr)
        mapping = {x: with_spans(gen_term(rng, 3)) for x in fvars if rng.random() < 0.7}
        got = hk.subst_fvars(t, mapping)
        assert anatomy(got) == anatomy(ref_subst_fvars(t, mapping))
        inserted = {id(s) for s in subterms(got)} & {id(v) for v in mapping.values()}
        assert inserted == {id(v) for v in mapping.values()}


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_open_term_matches_reference(depth):
    rng = random.Random(3 + depth)
    for t in TERMS:
        value = with_spans(gen_term(rng, 3))
        assert anatomy(hk.open_term(t, value, depth)) == anatomy(ref_open_term(t, value, depth))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_abstract_fvar_matches_reference(depth):
    for t in TERMS:
        for x in {s for s in subterms(t) if type(s) is FVar} | {FVar("absent", PROP)}:
            assert anatomy(hk.abstract_fvar(t, x, depth)) == anatomy(ref_abstract_fvar(t, x, depth))
            assert anatomy(hk.abs_over(x, t)) == anatomy(Abs(x.type, ref_abstract_fvar(t, x), hint=x.name))


def test_opening_a_body_without_index_0_is_the_old_unshift():
    # ETA contracts `fun x => f x` to f opened at index 0, which f never uses.
    cases = [t for t in TERMS if not hk._uses_bvar(t, 0)]
    assert len(cases) > 100
    for f in cases:
        assert anatomy(hk.open_term(f, FVar("unused", PROP))) == anatomy(ref_unshift(f))


def test_eta_returns_what_the_old_unshift_returned():
    state = define_connectives(hk.initial_state())[0]
    p = FVar("p", PROP)
    imp = Const("imp", fn(PROP, fn(PROP, PROP)))
    for f in [imp, App(imp, p), Abs(PROP, App(App(imp, BVar(0)), p), hint="q")]:
        f = with_spans(f)
        t = Abs(PROP, App(f, BVar(0)), hint="x")
        assert anatomy(hk.ETA(state, t).conclusion.arg) == anatomy(ref_unshift(f))
