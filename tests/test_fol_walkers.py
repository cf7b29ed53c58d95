"""The FOL binder plumbing read from one formula walker and one term walker,
against references.

The references below are the separate walks the two walkers replaced: one
formula walk and one term walk each for opening, closing and substituting,
and the parallel substitution through temporary `!tmp` variables. They are
compared with the walker-based code on seeded `helpers.gen_formula`
formulas whose variables are partly wrapped in applications and whose
every node carries its own span, on `==`, on the printed form (which shows
the binder hints) and on which nodes carry a span.
"""

import dataclasses
import itertools
import random

import pytest

from foundry import fol
from foundry.fol import (
    And, App, Bot, BVar, Eq, Exists, Forall, FVar, Implies, Or, Rel, exists,
    forall, open_binder, pretty_formula, pretty_term, subst_in_term,
    substitute, substitute_parallel,
)
from foundry.span import Span

from helpers import OBJ, VARS, gen_formula, gen_term


def ref_open_term(t, k, u):
    match t:
        case BVar(index=i):
            return u if i == k else t
        case FVar():
            return t
        case App(fn=f, args=args):
            return App(f, tuple(ref_open_term(a, k, u) for a in args))
    raise TypeError(t)


def ref_open(a, k, u):
    match a:
        case Eq(lhs=l, rhs=r):
            return Eq(ref_open_term(l, k, u), ref_open_term(r, k, u))
        case Rel(name=n, args=args):
            return Rel(n, tuple(ref_open_term(t, k, u) for t in args))
        case Bot():
            return a
        case And(left=l, right=r):
            return And(ref_open(l, k, u), ref_open(r, k, u))
        case Or(left=l, right=r):
            return Or(ref_open(l, k, u), ref_open(r, k, u))
        case Implies(left=l, right=r):
            return Implies(ref_open(l, k, u), ref_open(r, k, u))
        case Forall(sort=s, body=b, hint=h):
            return Forall(s, ref_open(b, k + 1, u), hint=h)
        case Exists(sort=s, body=b, hint=h):
            return Exists(s, ref_open(b, k + 1, u), hint=h)
    raise TypeError(a)


def ref_close_term(t, k, x):
    match t:
        case BVar():
            return t
        case FVar(name=n, sort=s):
            return BVar(k) if (n, s) == (x.name, x.sort) else t
        case App(fn=f, args=args):
            return App(f, tuple(ref_close_term(a, k, x) for a in args))
    raise TypeError(t)


def ref_close(a, k, x):
    match a:
        case Eq(lhs=l, rhs=r):
            return Eq(ref_close_term(l, k, x), ref_close_term(r, k, x))
        case Rel(name=n, args=args):
            return Rel(n, tuple(ref_close_term(t, k, x) for t in args))
        case Bot():
            return a
        case And(left=l, right=r):
            return And(ref_close(l, k, x), ref_close(r, k, x))
        case Or(left=l, right=r):
            return Or(ref_close(l, k, x), ref_close(r, k, x))
        case Implies(left=l, right=r):
            return Implies(ref_close(l, k, x), ref_close(r, k, x))
        case Forall(sort=s, body=b, hint=h):
            return Forall(s, ref_close(b, k + 1, x), hint=h)
        case Exists(sort=s, body=b, hint=h):
            return Exists(s, ref_close(b, k + 1, x), hint=h)
    raise TypeError(a)


def ref_subst_in_term(t, x, u):
    match t:
        case BVar():
            return t
        case FVar(name=n, sort=s):
            return u if (n, s) == (x.name, x.sort) else t
        case App(fn=f, args=args):
            return App(f, tuple(ref_subst_in_term(a, x, u) for a in args))
    raise TypeError(t)


def ref_substitute(a, x, t):
    match a:
        case Eq(lhs=l, rhs=r):
            return Eq(ref_subst_in_term(l, x, t), ref_subst_in_term(r, x, t))
        case Rel(name=n, args=args):
            return Rel(n, tuple(ref_subst_in_term(u, x, t) for u in args))
        case Bot():
            return a
        case And(left=l, right=r):
            return And(ref_substitute(l, x, t), ref_substitute(r, x, t))
        case Or(left=l, right=r):
            return Or(ref_substitute(l, x, t), ref_substitute(r, x, t))
        case Implies(left=l, right=r):
            return Implies(ref_substitute(l, x, t), ref_substitute(r, x, t))
        case Forall(sort=s, body=b, hint=h):
            return Forall(s, ref_substitute(b, x, t), hint=h)
        case Exists(sort=s, body=b, hint=h):
            return Exists(s, ref_substitute(b, x, t), hint=h)
    raise TypeError(a)


def ref_substitute_parallel(a, mapping):
    temps = {}
    for i, (x, t) in enumerate(mapping.items()):
        tmp = FVar(f"!tmp{i}", x.sort)
        a = ref_substitute(a, x, tmp)
        temps[tmp] = t
    for tmp, t in temps.items():
        a = ref_substitute(a, tmp, t)
    return a


# ---------------------------------------------------------------------------
# Inputs and the comparison


_spans = itertools.count()


def spanned(x):
    """A copy of x in which every node has its own span."""
    if isinstance(x, tuple):
        return tuple(spanned(y) for y in x)
    if not dataclasses.is_dataclass(x) or not hasattr(x, "span"):
        return x
    fields = {
        f.name: spanned(getattr(x, f.name))
        for f in dataclasses.fields(x) if f.name not in ("span", "hint")
    }
    return dataclasses.replace(x, **fields, span=Span("t", next(_spans), 0, 0, 0))


def wrapped(x, rng):
    """x with each variable left alone, put under f, or put under g beside a
    constant, so that the term walks pass applications."""
    if isinstance(x, (BVar, FVar)):
        return rng.choice([x, App("f", (x,)), App("g", (App("c", ()), x))])
    if isinstance(x, tuple):
        return tuple(wrapped(y, rng) for y in x)
    if not dataclasses.is_dataclass(x) or isinstance(x, fol.Sort):
        return x
    return dataclasses.replace(
        x, **{f.name: wrapped(getattr(x, f.name), rng) for f in dataclasses.fields(x) if f.name != "span"}
    )


def anatomy(x):
    """Constructors, fields, hints and the span (or its absence) of every node."""
    if isinstance(x, tuple):
        return tuple(anatomy(y) for y in x)
    if not dataclasses.is_dataclass(x) or not hasattr(x, "span"):
        return x
    return (
        type(x).__name__, x.span, getattr(x, "hint", None),
        tuple(anatomy(getattr(x, f.name)) for f in dataclasses.fields(x)
              if f.name not in ("span", "hint")),
    )


def agree(got, want):
    assert got == want
    assert pretty_formula(got) == pretty_formula(want)
    assert anatomy(got) == anatomy(want)


def corpus(seed=20240601, n=300):
    rng = random.Random(seed)
    return [spanned(wrapped(gen_formula(rng, rng.randrange(1, 6)), rng)) for _ in range(n)]


FORMULAS = corpus()
RNG_TERMS = random.Random(7)
TERMS = [spanned(wrapped(gen_term(RNG_TERMS), RNG_TERMS)) for _ in range(len(FORMULAS))]


def quantified(a):
    """Every quantifier node of a, outermost first."""
    match a:
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return quantified(l) + quantified(r)
        case Forall(body=b) | Exists(body=b):
            return [a] + quantified(b)
    return []


def test_corpus_exercises_every_node():
    kinds = set()

    def collect(x):
        kinds.add(type(x).__name__)
        if isinstance(x, tuple):
            for y in x:
                collect(y)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                collect(getattr(x, f.name))

    for a in FORMULAS:
        collect(a)
    assert {"Eq", "Rel", "Bot", "And", "Or", "Implies", "Forall", "Exists", "App", "BVar", "FVar"} <= kinds
    assert sum(len(quantified(a)) for a in FORMULAS) > 200


def test_open_binder_matches_reference():
    for a, u in zip(FORMULAS, TERMS):
        for q in quantified(a):
            agree(open_binder(q, u), ref_open(q.body, 0, u))


@pytest.mark.parametrize("x", VARS, ids=lambda v: v.name)
def test_forall_and_exists_match_reference(x):
    for a in FORMULAS:
        agree(forall(x, a), Forall(x.sort, ref_close(a, 0, x), hint=x.name))
        agree(exists(x, a), Exists(x.sort, ref_close(a, 0, x), hint=x.name))


@pytest.mark.parametrize("x", VARS, ids=lambda v: v.name)
def test_substitute_and_subst_in_term_match_reference(x):
    for a, t, u in zip(FORMULAS, TERMS, TERMS[1:]):
        agree(substitute(a, x, t), ref_substitute(a, x, t))
        got = subst_in_term(u, x, t)
        assert anatomy(got) == anatomy(ref_subst_in_term(u, x, t))
        assert pretty_term(got) == pretty_term(ref_subst_in_term(u, x, t))


def test_substitute_parallel_matches_reference_on_variables():
    rng = random.Random(11)
    for a in FORMULAS:
        keys = rng.sample(VARS, rng.randrange(len(VARS) + 1))
        mapping = {x: spanned(rng.choice(VARS + [FVar("w", OBJ)])) for x in keys}
        agree(substitute_parallel(a, mapping), ref_substitute_parallel(a, mapping))


def test_substitute_parallel_matches_reference_on_applications():
    rng = random.Random(12)
    for a, t in zip(FORMULAS, TERMS):
        keys = rng.sample(VARS, rng.randrange(len(VARS) + 1))
        mapping = {x: spanned(wrapped(rng.choice(VARS), rng)) for x in keys}
        got, want = substitute_parallel(a, mapping), ref_substitute_parallel(a, mapping)
        assert got == want
        assert pretty_formula(got) == pretty_formula(want)


def test_substitute_parallel_inserts_its_terms_as_given():
    x, y = VARS[:2]
    t, u = spanned(App("f", (y,))), spanned(App("g", (x, y)))
    out = substitute_parallel(Rel("R", (x, y)), {x: t, y: u})
    assert out == Rel("R", (App("f", (y,)), App("g", (x, y))))
    assert out.args[0] is t and out.args[1] is u
