"""Simply typed lambda calculus: types and de Bruijn terms.

Bound variables are indices, so structural equality is alpha-equivalence.
Free (context) variables are named. Binder annotations make type inference
syntax-directed.

`_SHAPE` lists each compound constructor's subterm fields and their binder
depths once; `var_free_in`, `free_names`, `reduce.reduce_step`,
`generate.term_size`, `_loose_range`, `abstract_free` and `_map`, the
rebuilding walk under `shift` and `subst`, all read that one table, so each
constructor's subterms are listed once.

Each term node carries two caches outside its fields, so `==`, `hash`,
`repr`, pattern matching and `_fields` never see them. Both are set with
`object.__setattr__` on first use, and only on compound nodes:

- `_loose`: what `_loose_range` gives, which tells a closed term;
- `_typed`: the type `typing.infer_type` found for a closed term.
"""

from __future__ import annotations

from typing import Union

from ..span import hint_field, node, span_field


# ---------------------------------------------------------------------------
# Types


@node
class Base:
    """An STLC base type named by the user."""

    name: str
    span: object = span_field()


@node
class Arrow:
    """An STLC function type."""

    dom: "SimpleType"
    cod: "SimpleType"
    span: object = span_field()


@node
class Prod:
    """An STLC product type."""

    left: "SimpleType"
    right: "SimpleType"
    span: object = span_field()


@node
class SumT:
    """An STLC sum type."""

    left: "SimpleType"
    right: "SimpleType"
    span: object = span_field()


@node
class NatT:
    """The STLC type of natural numbers."""

    span: object = span_field()


@node
class BoolT:
    """The STLC type of booleans."""

    span: object = span_field()


SimpleType = Union[Base, Arrow, Prod, SumT, NatT, BoolT]

VOID = Base("Void")  # the empty-analog base type used by the deduction bridge


# ---------------------------------------------------------------------------
# Terms


@node
class Var:
    """An STLC bound variable, as a de Bruijn index."""

    index: int
    span: object = span_field()


@node
class Free:
    """An STLC free variable, by name."""

    name: str
    span: object = span_field()


@node
class Const:
    """An STLC constant of a declared type."""

    name: str
    type: SimpleType
    span: object = span_field()


@node
class Lam:
    """An STLC lambda abstraction with its domain annotated."""

    dom: SimpleType
    body: "Term"
    hint: str | None = hint_field()
    span: object = span_field()


@node
class App:
    """STLC function application."""

    fn: "Term"
    arg: "Term"
    span: object = span_field()


@node
class Pair:
    """An STLC pair."""

    left: "Term"
    right: "Term"
    span: object = span_field()


@node
class Proj0:
    """The first projection of an STLC pair."""

    pair: "Term"
    span: object = span_field()


@node
class Proj1:
    """The second projection of an STLC pair."""

    pair: "Term"
    span: object = span_field()


@node
class Inj0:
    """The left injection, annotated with the sum's right type."""

    right: SimpleType  # the absent summand
    value: "Term"
    span: object = span_field()


@node
class Inj1:
    """The right injection, annotated with the sum's left type."""

    left: SimpleType
    value: "Term"
    span: object = span_field()


@node
class Cases:
    """STLC case analysis on a sum: one function per injection."""

    on_left: "Term"
    on_right: "Term"
    scrutinee: "Term"
    span: object = span_field()


@node
class Zero:
    """The STLC natural number zero."""

    span: object = span_field()


@node
class Succ:
    """The STLC successor."""

    arg: "Term"
    span: object = span_field()


@node
class RecNat:
    """STLC primitive recursion on a natural number."""

    base: "Term"
    step: "Term"
    target: "Term"
    span: object = span_field()


@node
class TT:
    """The STLC boolean true."""

    span: object = span_field()


@node
class FF:
    """The STLC boolean false."""

    span: object = span_field()


@node
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


for _cls in Term.__args__:
    _cls._loose = None
    _cls._typed = None


# Each compound constructor's subterm fields, left to right, with the number
# of binders each sits under; a constructor absent from the table is a leaf.
_SHAPE = {
    Lam: (("body", 1),),
    App: (("fn", 0), ("arg", 0)),
    Pair: (("left", 0), ("right", 0)),
    Proj0: (("pair", 0),),
    Proj1: (("pair", 0),),
    Inj0: (("value", 0),),
    Inj1: (("value", 0),),
    Cases: (("on_left", 0), ("on_right", 0), ("scrutinee", 0)),
    Succ: (("arg", 0),),
    RecNat: (("base", 0), ("step", 0), ("target", 0)),
    Cond: (("if_true", 0), ("if_false", 0), ("target", 0)),
}


# `_loose_range` of a term that names a free variable: it stays open under
# any number of binders.
_NAMES_FREE = 1 << 62


def _loose_range(t: Term) -> int:
    """One more than the largest loose de Bruijn index of t, or `_NAMES_FREE`
    when a `Free` name occurs in it; 0 when t is closed."""
    r = t._loose
    if r is None:
        shape = _SHAPE.get(type(t))
        if shape is None:
            cls = type(t)
            return t.index + 1 if cls is Var else _NAMES_FREE if cls is Free else 0
        r = 0
        for name, depth in shape:
            sub = _loose_range(getattr(t, name)) - depth
            if sub > r:
                r = sub
        object.__setattr__(t, "_loose", r)
    return r


def _rebuild(t: Term, children: list) -> Term:
    """A new node of t's constructor over the given subterms (in `_SHAPE`
    order), keeping its type annotation and binder hint and dropping its span."""
    cls = type(t)
    if cls is Lam:
        return Lam(t.dom, *children, hint=t.hint)
    if cls is Inj0:
        return Inj0(t.right, *children)
    if cls is Inj1:
        return Inj1(t.left, *children)
    return cls(*children)


def _map(t: Term, leaf, depth: int = 0) -> Term:
    """Rebuild t with each leaf u replaced by leaf(u, binder depth); every
    compound node is rebuilt as `_rebuild` does."""
    shape = _SHAPE.get(type(t))
    if shape is None:
        return leaf(t, depth)
    children = []
    for name, extra in shape:
        children.append(_map(getattr(t, name), leaf, depth + extra))
    return _rebuild(t, children)


def shift(t: Term, d: int, cutoff: int = 0) -> Term:
    def leaf(u, depth):
        return Var(u.index + d) if type(u) is Var and u.index >= depth else u

    return _map(t, leaf, cutoff)


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace Var(j) by s (s is shifted under binders)."""

    def leaf(u, depth):
        if type(u) is not Var or u.index < depth:
            return u
        if u.index == depth:
            return shift(s, depth - j) if depth > j else s
        return Var(u.index - 1)

    return _map(t, leaf, j)


def beta_reduce(lam: Lam, arg: Term) -> Term:
    return subst(lam.body, 0, arg)


def var_free_in(t: Term, j: int) -> bool:
    if type(t) is Var:
        return t.index == j
    return any(var_free_in(getattr(t, name), j + depth) for name, depth in _SHAPE.get(type(t), ()))


def free_names(t: Term) -> frozenset[str]:
    if type(t) is Free:
        return frozenset((t.name,))
    return frozenset().union(*(free_names(getattr(t, name)) for name, _ in _SHAPE.get(type(t), ())))


def abstract_free(t: Term, name: str, depth: int = 0) -> Term:
    """Turn the named free variable into the binder at the given depth. A
    span-less subterm naming no free variable (a `Free` under k binders reads
    `_NAMES_FREE - k`) is returned as is, unwalked, so a `fun` over a
    definition shares it, and the type it keeps, instead of copying it."""
    if t.span is None and _loose_range(t) < _NAMES_FREE >> 1:
        return t
    shape = _SHAPE.get(type(t))
    if shape is None:
        return Var(depth) if type(t) is Free and t.name == name else t
    children = []
    for field, extra in shape:
        children.append(abstract_free(getattr(t, field), name, depth + extra))
    return _rebuild(t, children)


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
