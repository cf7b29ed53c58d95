"""Simply typed lambda calculus: types and de Bruijn terms.

Bound variables are indices, so structural equality is alpha-equivalence.
Free (context) variables are named. Binder annotations make type inference
syntax-directed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..span import hint_field, span_field


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Base:
    """An STLC base type named by the user."""

    name: str
    span: object = span_field()


@dataclass(frozen=True)
class Arrow:
    """An STLC function type."""

    dom: "SimpleType"
    cod: "SimpleType"
    span: object = span_field()


@dataclass(frozen=True)
class Prod:
    """An STLC product type."""

    left: "SimpleType"
    right: "SimpleType"
    span: object = span_field()


@dataclass(frozen=True)
class SumT:
    """An STLC sum type."""

    left: "SimpleType"
    right: "SimpleType"
    span: object = span_field()


@dataclass(frozen=True)
class NatT:
    """The STLC type of natural numbers."""

    span: object = span_field()


@dataclass(frozen=True)
class BoolT:
    """The STLC type of booleans."""

    span: object = span_field()


SimpleType = Union[Base, Arrow, Prod, SumT, NatT, BoolT]

VOID = Base("Void")  # the empty-analog base type used by the deduction bridge


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    """An STLC bound variable, as a de Bruijn index."""

    index: int
    span: object = span_field()


@dataclass(frozen=True)
class Free:
    """An STLC free variable, by name."""

    name: str
    span: object = span_field()


@dataclass(frozen=True)
class Const:
    """An STLC constant of a declared type."""

    name: str
    type: SimpleType
    span: object = span_field()


@dataclass(frozen=True)
class Lam:
    """An STLC lambda abstraction with its domain annotated."""

    dom: SimpleType
    body: "Term"
    hint: str | None = hint_field()
    span: object = span_field()


@dataclass(frozen=True)
class App:
    """STLC function application."""

    fn: "Term"
    arg: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Pair:
    """An STLC pair."""

    left: "Term"
    right: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Proj0:
    """The first projection of an STLC pair."""

    pair: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Proj1:
    """The second projection of an STLC pair."""

    pair: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Inj0:
    """The left injection, annotated with the sum's right type."""

    right: SimpleType  # the absent summand
    value: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Inj1:
    """The right injection, annotated with the sum's left type."""

    left: SimpleType
    value: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Cases:
    """STLC case analysis on a sum: one function per injection."""

    on_left: "Term"
    on_right: "Term"
    scrutinee: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class Zero:
    """The STLC natural number zero."""

    span: object = span_field()


@dataclass(frozen=True)
class Succ:
    """The STLC successor."""

    arg: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class RecNat:
    """STLC primitive recursion on a natural number."""

    base: "Term"
    step: "Term"
    target: "Term"
    span: object = span_field()


@dataclass(frozen=True)
class TT:
    """The STLC boolean true."""

    span: object = span_field()


@dataclass(frozen=True)
class FF:
    """The STLC boolean false."""

    span: object = span_field()


@dataclass(frozen=True)
class Cond:
    """STLC conditional on a boolean."""

    if_true: "Term"
    if_false: "Term"
    target: "Term"
    span: object = span_field()


Term = Union[
    Var, Free, Const, Lam, App, Pair, Proj0, Proj1, Inj0, Inj1, Cases,
    Zero, Succ, RecNat, TT, FF, Cond,
]


_LEAVES = (Var, Free, Const, Zero, TT, FF)


def map_children(t: Term, f) -> Term:
    """Rebuild t with f applied to each immediate subterm (not under-binder
    aware; callers adjust)."""
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


def shift(t: Term, d: int, cutoff: int = 0) -> Term:
    match t:
        case Var(index=k):
            return Var(k + d) if k >= cutoff else t
        case Lam(dom=dom, body=b, hint=h):
            return Lam(dom, shift(b, d, cutoff + 1), hint=h)
        case _:
            return map_children(t, lambda s: shift(s, d, cutoff))


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace Var(j) by s (s is shifted under binders)."""
    match t:
        case Var(index=k):
            if k == j:
                return s
            return Var(k - 1) if k > j else t
        case Lam(dom=dom, body=b, hint=h):
            return Lam(dom, subst(b, j + 1, shift(s, 1)), hint=h)
        case _:
            return map_children(t, lambda u: subst(u, j, s))


def beta_reduce(lam: Lam, arg: Term) -> Term:
    return subst(lam.body, 0, arg)


def var_free_in(t: Term, j: int) -> bool:
    match t:
        case Var(index=k):
            return k == j
        case Lam(body=b):
            return var_free_in(b, j + 1)
        case _ if isinstance(t, _LEAVES):
            return False
        case _:
            hit = [False]

            def probe(u):
                if var_free_in(u, j):
                    hit[0] = True
                return u

            map_children(t, probe)
            return hit[0]


def free_names(t: Term) -> frozenset[str]:
    match t:
        case Free(name=n):
            return frozenset((n,))
        case _ if isinstance(t, _LEAVES):
            return frozenset()
        case _:
            out = [frozenset()]

            def probe(u):
                out[0] |= free_names(u)
                return u

            map_children(t, probe)
            return out[0]


def abstract_free(t: Term, name: str, depth: int = 0) -> Term:
    """Turn the named free variable into the binder at the given depth."""
    match t:
        case Free(name=n) if n == name:
            return Var(depth)
        case Lam(dom=d, body=b, hint=h):
            return Lam(d, abstract_free(b, name, depth + 1), hint=h)
        case _:
            return map_children(t, lambda u: abstract_free(u, name, depth))


def numeral(n: int) -> Term:
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def numeral_value(t: Term) -> int | None:
    """n if the term is succ^n(zero), else None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None
