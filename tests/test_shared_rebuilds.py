"""Rebuilding walks keep what they do not change.

The HOL walkers (`_map` and the four leaf functions over it, and
`type_subst`) return a span-less node none of whose parts changed as the
same object, so an unchanged subterm is shared instead of copied. A node
that carries a span is still rebuilt without it, the contract
`tests/test_hol_walkers.py` pins with its references. DTT's `_rebuild`
calls each constructor positionally; `ref_rebuild` is the keyword version it
replaced, kept here verbatim apart from its name and its dead `Axiom` branch
(`Axiom` has no `_SHAPE` entry).
"""

import random

from foundry.dtt import syntax as ds
from foundry.hol import kernel as hk
from foundry.hol.kernel import Abs, App, BVar, Const, FVar, PROP, TyApp, TyVar, fn
from foundry.span import Span

SPAN = Span("s", 1, 1, 1, 2)


def gen_type(rng, size):
    if size <= 0 or rng.random() < 0.4:
        return rng.choice((PROP, TyApp("Ind"), TyVar("a"), TyVar("b")))
    return fn(gen_type(rng, size - 1), gen_type(rng, size - 1))


def gen_closed(rng, size, binders=0):
    """A random span-less term whose bound variables all point at binders
    inside it."""
    if size <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.3 and binders:
            return BVar(rng.randrange(binders))
        if r < 0.7:
            return FVar(rng.choice("xyz"), gen_type(rng, 1))
        return Const(rng.choice(("=", "eps", "c")), gen_type(rng, 2))
    if rng.random() < 0.55:
        return App(gen_closed(rng, size - 1, binders), gen_closed(rng, size - 1, binders))
    return Abs(gen_type(rng, 1), gen_closed(rng, size - 1, binders + 1), hint="h")


TERMS = [gen_closed(random.Random(seed), 6) for seed in range(200)]


def test_unchanged_span_less_inputs_come_back_as_the_same_object():
    absent = FVar("absent", PROP)
    for t in TERMS:
        assert hk.subst_fvars(t, {absent: FVar("w", PROP)}) is t
        assert hk.term_ty_subst(t, {"unused": PROP}) is t
        for depth in range(3):
            assert hk.open_term(t, FVar("w", PROP), depth) is t
            assert hk.abstract_fvar(t, absent, depth) is t
    for seed in range(200):
        ty = gen_type(random.Random(seed), 4)
        assert hk.type_subst(ty, {"unused": PROP}) is ty


def test_a_rebuilt_term_shares_the_subterms_it_did_not_change():
    u, w = FVar("u", PROP), FVar("w", PROP)  # the generator never names them
    for t in TERMS:
        got = hk.subst_fvars(App(t, u), {u: w})
        assert got.fn is t and got.arg is w
        got = hk.open_term(App(t, BVar(0)), u)
        assert got.fn is t and got.arg is u
        got = hk.term_ty_subst(Abs(TyVar("c"), t, hint="q"), {"c": PROP})
        assert got.dom is PROP and got.body is t and got.hint == "q"
    ty = fn(PROP, TyVar("a"))
    got = hk.type_subst(fn(ty, TyVar("b")), {"b": PROP})
    assert got.args[0] is ty and got.args[1] is PROP


def test_a_node_with_a_span_is_rebuilt_without_it():
    p = FVar("p", PROP)
    app = App(Const("c", fn(PROP, PROP), span=SPAN), p, span=SPAN)
    lam = Abs(PROP, App(app, BVar(0)), hint="q", span=SPAN)
    for walk in (
        lambda t: hk.subst_fvars(t, {}),
        lambda t: hk.term_ty_subst(t, {}),
        lambda t: hk.open_term(t, p, 5),
        lambda t: hk.abstract_fvar(t, FVar("absent", PROP), 5),
    ):
        for t in (app, lam):
            got = walk(t)
            assert got == t and got is not t and got.span is None
        assert walk(lam).hint == "q"
    # term_ty_subst rebuilds its leaves; the other walks hand them back
    assert hk.term_ty_subst(app, {}).fn.span is None
    assert hk.subst_fvars(app, {}).fn is app.fn
    ty = TyApp("fun", (PROP, PROP), span=SPAN)
    got = hk.type_subst(ty, {})
    assert got == ty and got is not ty and got.span is None


def test_equations_at_prop_share_one_equality_constant():
    p, q = FVar("p", PROP), FVar("q", PROP)
    a = hk.mk_eq_at(PROP, p, q).fn.fn
    b = hk.mk_eq_at(TyApp("Prop", span=SPAN), q, p).fn.fn
    assert a is b and a == Const("=", fn(PROP, fn(PROP, PROP)))
    c = hk.mk_eq_at(TyVar("a"), FVar("u", TyVar("a")), FVar("v", TyVar("a"))).fn.fn
    assert c == Const("=", fn(TyVar("a"), fn(TyVar("a"), PROP)))


def ref_rebuild(e, new_fields: dict):
    cls = type(e)
    kwargs = {name: getattr(e, name) for name, _ in ds._SHAPE[cls]}
    kwargs.update(new_fields)
    if hasattr(e, "hint"):
        kwargs["hint"] = e.hint
    if isinstance(e, ds.Sigma):
        kwargs["in_prop"] = e.in_prop
    return cls(**kwargs)


def dtt_node(cls):
    """A cls node with a span, a hint where it has one, in_prop set on a
    Sigma, and children Var(0), Var(1), ..."""
    extra = {"span": SPAN}
    names = set(cls._fields)
    if "hint" in names:
        extra["hint"] = "h"
    if cls is ds.Sigma:
        extra["in_prop"] = True
    return cls(*(ds.Var(i) for i in range(len(ds._SHAPE[cls]))), **extra)


def test_dtt_rebuild_keeps_hint_and_in_prop_and_drops_the_span():
    for cls, shape in ds._SHAPE.items():
        e = dtt_node(cls)
        children = [ds.Var(10 + i) for i in range(len(shape))]
        got = ds._rebuild(e, children)
        want = ref_rebuild(e, {name: c for (name, _), c in zip(shape, children)})
        assert type(got) is cls and got == want
        assert got.span is None
        assert getattr(got, "hint", None) == getattr(want, "hint", None)
        assert getattr(got, "in_prop", None) == getattr(want, "in_prop", None)
        assert getattr(got, "hint", "h") == "h" and getattr(got, "in_prop", True) is True
        for (name, _), c in zip(shape, children):
            assert getattr(got, name) is c
            one = ds.replace_field(e, name, c)
            assert one == ref_rebuild(e, {name: c}) and one.span is None
            assert getattr(one, "hint", None) == getattr(e, "hint", None)
        # map_subexprs rebuilds only what changed
        assert ds.map_subexprs(e, lambda sub, _d: sub) is e
        shifted = ds.map_subexprs(e, lambda sub, d: ds.Var(sub.index + 10))
        assert shifted == got and getattr(shifted, "hint", None) == getattr(e, "hint", None)
