"""The STLC traversals read from `syntax._SHAPE`, against references.

The references below are the hand-written traversals the table replaced:
one `match` case per constructor, a list of rebuild closures for the
reduction order. They are compared with the table-driven code on seeded
`gen_term` terms whose every node carries its own span and every binder its
own hint, so a comparison sees which nodes each side rebuilt (a rebuilt node
has no span) as well as `==` and the binder hints.
"""

import itertools
import random

import pytest

from foundry import stlc
from foundry.span import Span
from foundry.stlc import (
    App, BETA_ETA, Cases, Cond, DEFAULT_FLAGS, FF, Free, Inj0, Inj1, Lam,
    LEFTMOST_OUTERMOST, NatT, Pair, Proj0, Proj1, RecNat, RIGHTMOST_INNERMOST, Succ,
    TT, Var, Zero, gen_term, gen_type,
)
from foundry.stlc.syntax import _SHAPE

from helpers import is_node, replace

_LEAVES = (Var, Free, stlc.Const, Zero, TT, FF)


def ref_map_children(t, f):
    match t:
        case Lam(dom=d, body=b, hint=h):
            return Lam(d, f(b), hint=h)
        case App(fn=a, arg=b):
            return App(f(a), f(b))
        case Pair(left=a, right=b):
            return Pair(f(a), f(b))
        case Proj0(pair=p):
            return Proj0(f(p))
        case Proj1(pair=p):
            return Proj1(f(p))
        case Inj0(right=ty, value=v):
            return Inj0(ty, f(v))
        case Inj1(left=ty, value=v):
            return Inj1(ty, f(v))
        case Cases(on_left=a, on_right=b, scrutinee=s):
            return Cases(f(a), f(b), f(s))
        case Succ(arg=a):
            return Succ(f(a))
        case RecNat(base=a, step=b, target=c):
            return RecNat(f(a), f(b), f(c))
        case Cond(if_true=a, if_false=b, target=c):
            return Cond(f(a), f(b), f(c))
        case _:
            return t


def ref_shift(t, d, cutoff=0):
    match t:
        case Var(index=k):
            return Var(k + d) if k >= cutoff else t
        case Lam(dom=dom, body=b, hint=h):
            return Lam(dom, ref_shift(b, d, cutoff + 1), hint=h)
        case _:
            return ref_map_children(t, lambda s: ref_shift(s, d, cutoff))


def ref_subst(t, j, s):
    match t:
        case Var(index=k):
            if k == j:
                return s
            return Var(k - 1) if k > j else t
        case Lam(dom=dom, body=b, hint=h):
            return Lam(dom, ref_subst(b, j + 1, ref_shift(s, 1)), hint=h)
        case _:
            return ref_map_children(t, lambda u: ref_subst(u, j, s))


def ref_var_free_in(t, j):
    match t:
        case Var(index=k):
            return k == j
        case Lam(body=b):
            return ref_var_free_in(b, j + 1)
        case _ if isinstance(t, _LEAVES):
            return False
        case _:
            hit = [False]

            def probe(u):
                if ref_var_free_in(u, j):
                    hit[0] = True
                return u

            ref_map_children(t, probe)
            return hit[0]


def ref_free_names(t):
    match t:
        case Free(name=n):
            return frozenset((n,))
        case _ if isinstance(t, _LEAVES):
            return frozenset()
        case _:
            out = [frozenset()]

            def probe(u):
                out[0] |= ref_free_names(u)
                return u

            ref_map_children(t, probe)
            return out[0]


def ref_abstract_free(t, name, depth=0):
    match t:
        case Free(name=n) if n == name:
            return Var(depth)
        case Lam(dom=d, body=b, hint=h):
            return Lam(d, ref_abstract_free(b, name, depth + 1), hint=h)
        case _:
            return ref_map_children(t, lambda u: ref_abstract_free(u, name, depth))


def ref_term_size(t):
    size = [1]

    def probe(u):
        size[0] += ref_term_size(u)
        return u

    ref_map_children(t, probe)
    return size[0]


def ref_contract(t, flags):
    match t:
        case App(fn=Lam() as f, arg=a) if flags.beta:
            return ref_subst(f.body, 0, a)
        case Lam(body=App(fn=f, arg=Var(index=0))) if flags.eta and not ref_var_free_in(f, 0):
            return ref_shift(f, -1)
        case RecNat(base=f, target=Zero()) if flags.iota:
            return f
        case RecNat(base=f, step=g, target=Succ(arg=n)) if flags.iota:
            return App(App(g, n), RecNat(f, g, n))
        case Cond(if_true=f, target=TT()) if flags.iota:
            return f
        case Cond(if_false=g, target=FF()) if flags.iota:
            return g
        case Proj0(pair=Pair(left=a)) if flags.iota:
            return a
        case Proj1(pair=Pair(right=b)) if flags.iota:
            return b
        case Cases(on_left=f, scrutinee=Inj0(value=a)) if flags.iota:
            return App(f, a)
        case Cases(on_right=g, scrutinee=Inj1(value=b)) if flags.iota:
            return App(g, b)
        case Pair(left=Proj0(pair=p), right=Proj1(pair=q)) if (
            flags.surjective_pairing and p == q
        ):
            return p
    return None


def ref_children(t):
    match t:
        case Lam(dom=d, body=b, hint=h):
            return [(b, lambda nb: Lam(d, nb, hint=h))]
        case App(fn=f, arg=a):
            return [(f, lambda nf: App(nf, a)), (a, lambda na: App(f, na))]
        case Pair(left=l, right=r):
            return [(l, lambda nl: Pair(nl, r)), (r, lambda nr: Pair(l, nr))]
        case Proj0(pair=p):
            return [(p, lambda np: Proj0(np))]
        case Proj1(pair=p):
            return [(p, lambda np: Proj1(np))]
        case Inj0(right=ty, value=v):
            return [(v, lambda nv: Inj0(ty, nv))]
        case Inj1(left=ty, value=v):
            return [(v, lambda nv: Inj1(ty, nv))]
        case Cases(on_left=f, on_right=g, scrutinee=s):
            return [
                (f, lambda nf: Cases(nf, g, s)),
                (g, lambda ng: Cases(f, ng, s)),
                (s, lambda ns: Cases(f, g, ns)),
            ]
        case Succ(arg=a):
            return [(a, lambda na: Succ(na))]
        case RecNat(base=f, step=g, target=n):
            return [
                (f, lambda nf: RecNat(nf, g, n)),
                (g, lambda ng: RecNat(f, ng, n)),
                (n, lambda nn: RecNat(f, g, nn)),
            ]
        case Cond(if_true=f, if_false=g, target=b):
            return [
                (f, lambda nf: Cond(nf, g, b)),
                (g, lambda ng: Cond(f, ng, b)),
                (b, lambda nb: Cond(f, g, nb)),
            ]
        case _:
            return []


def ref_reduce_step(t, flags, strategy):
    if strategy == LEFTMOST_OUTERMOST:
        root = ref_contract(t, flags)
        if root is not None:
            return root
        for child, rebuild in ref_children(t):
            stepped = ref_reduce_step(child, flags, strategy)
            if stepped is not None:
                return rebuild(stepped)
        return None
    for child, rebuild in reversed(ref_children(t)):
        stepped = ref_reduce_step(child, flags, strategy)
        if stepped is not None:
            return rebuild(stepped)
    return ref_contract(t, flags)


# ---------------------------------------------------------------------------
# Inputs and the comparison


_spans = itertools.count()


def with_spans(x):
    """A copy of x in which every node, types included, has its own span and
    every binder its own hint."""
    if not is_node(x):
        return x
    fields = {
        name: with_spans(getattr(x, name))
        for name in x._fields if name not in ("span", "hint")
    }
    n = next(_spans)
    if isinstance(x, Lam):
        fields["hint"] = f"x{n}"
    return replace(x, **fields, span=Span("t", n, 0, 0, 0))


def anatomy(x):
    """Everything of x that a reader can see: constructors, fields, hints and
    the span (or its absence) on every node."""
    if not is_node(x):
        return x
    return (
        type(x).__name__, x.span, getattr(x, "hint", None),
        tuple(anatomy(getattr(x, name)) for name in x._fields
              if name not in ("span", "hint")),
    )


def corpus(seed=20240601, n=300):
    """Seeded depth-6 terms, each over a random stack of up to three binder
    types (so some are open), with every node spanned."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        stack = tuple(gen_type(rng, 1) for _ in range(rng.randrange(4)))
        out.append(with_spans(gen_term(rng, gen_type(rng), 6, stack)))
    return out


TERMS = corpus()


# Eta-expansions, so that BETA_ETA has eta redexes to contract.
ETA_TERMS = [with_spans(Lam(NatT(), App(ref_shift(t, 1), Var(0)))) for t in TERMS[:100]]


def named(t):
    """t with its loose Var(0) turned into the free name a."""
    return ref_subst(t, 0, with_spans(Free("a")))


def test_corpus_is_large_and_varied():
    assert len(TERMS) >= 300
    kinds = {type(s).__name__ for t in TERMS for s in _subterms(t)}
    assert {c.__name__ for c in _SHAPE} <= kinds
    assert any(ref_var_free_in(t, 0) for t in TERMS)


def _subterms(t):
    yield t
    for name, _ in _SHAPE.get(type(t), ()):
        yield from _subterms(getattr(t, name))


@pytest.mark.parametrize("d", [-1, 1, 2])
def test_shift_matches_reference(d):
    for t in TERMS:
        for cutoff in range(3):
            assert anatomy(stlc.shift(t, d, cutoff)) == anatomy(ref_shift(t, d, cutoff))


def test_subst_matches_reference():
    for t, s in zip(TERMS, TERMS[1:] + TERMS[:1]):
        for j in range(3):
            assert anatomy(stlc.subst(t, j, s)) == anatomy(ref_subst(t, j, s))


def test_abstract_free_var_free_in_and_free_names_match_reference():
    for t in TERMS:
        u = named(t)
        assert stlc.free_names(u) == ref_free_names(u)
        for depth in range(3):
            assert anatomy(stlc.abstract_free(u, "a", depth)) == anatomy(ref_abstract_free(u, "a", depth))
            assert stlc.var_free_in(t, depth) == ref_var_free_in(t, depth)


def test_term_size_matches_reference():
    assert [stlc.term_size(t) for t in TERMS] == [ref_term_size(t) for t in TERMS]


@pytest.mark.parametrize("strategy", [LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST])
@pytest.mark.parametrize("flags", [DEFAULT_FLAGS, BETA_ETA], ids=["default", "beta_eta"])
def test_reduce_step_takes_the_reference_step_every_time(strategy, flags):
    steps = 0
    for t in TERMS + ETA_TERMS:
        for _ in range(500):
            got = stlc.reduce_step(t, flags, strategy)
            want = ref_reduce_step(t, flags, strategy)
            assert anatomy(got) == anatomy(want)
            if got is None:
                break
            t = got
            steps += 1
    assert steps > 1000


def test_unknown_strategy_is_rejected():
    with pytest.raises(ValueError):
        stlc.reduce_step(Zero(), DEFAULT_FLAGS, "outermost")
