"""Dependent type theory expressions: one grammar for terms, types, sorts.

De Bruijn binders (Pi/Lam/Sigma/W bind one variable in their second
component); eliminators carry their motive explicitly, so checking is
syntax-directed. Axioms are inert constants.

Each node carries two caches outside its fields, so `==`, `hash`, `repr`,
pattern matching and the class's `_fields` never see them. Both are set with
`object.__setattr__` on first use:

- `_loose`: one more than the largest loose de Bruijn index (0 when closed),
  which lets shift and subst return a subterm they cannot change untouched;
- `_typed`: the kernel's `(config, type)` pair for a closed node.
"""

from __future__ import annotations

from typing import Union

from ..span import hint_field, node, span_field


@node
class Var:
    """A bound variable, as a de Bruijn index."""

    index: int
    span: object = span_field()


@node
class TypeSort:
    """The universe Type at a concrete level."""

    level: int
    span: object = span_field()


@node
class PropSort:
    """The universe of propositions."""

    span: object = span_field()


@node
class Pi:
    """A dependent function type; the codomain is under one binder."""

    dom: "Expr"
    cod: "Expr"  # under one binder
    hint: str | None = hint_field()
    span: object = span_field()


@node
class Lam:
    """A lambda abstraction with its domain annotated."""

    dom: "Expr"
    body: "Expr"
    hint: str | None = hint_field()
    span: object = span_field()


@node
class App:
    """Function application."""

    fn: "Expr"
    arg: "Expr"
    span: object = span_field()


@node
class Sigma:
    """A dependent pair type, or with in_prop an existential proposition."""

    dom: "Expr"
    cod: "Expr"  # under one binder
    in_prop: bool = False  # the existential flavor, distinct from the subtype
    hint: str | None = hint_field()
    span: object = span_field()


@node
class Pair:
    """A dependent pair annotated with its Sigma type."""

    sigma: "Expr"  # the annotated Sigma type
    fst: "Expr"
    snd: "Expr"
    span: object = span_field()


@node
class SigmaCases:
    """The Sigma eliminator: a motive, a curried branch and the pair it takes apart."""

    motive: "Expr"
    branch: "Expr"
    scrutinee: "Expr"
    span: object = span_field()


@node
class Id:
    """The identity type of two terms of one type."""

    type: "Expr"
    lhs: "Expr"
    rhs: "Expr"
    span: object = span_field()


@node
class Refl:
    """The reflexivity proof of a term equal to itself."""

    type: "Expr"
    term: "Expr"
    span: object = span_field()


@node
class IdCases:
    """The identity eliminator (J), with its motive and its case for refl."""

    motive: "Expr"     # of type Pi x. Pi y. Pi p : Id ty x y. sort
    refl_case: "Expr"  # of type Pi z. motive z z (refl z)
    lhs: "Expr"
    rhs: "Expr"
    proof: "Expr"
    span: object = span_field()


@node
class Nat:
    """The type of natural numbers."""

    span: object = span_field()


@node
class Zero:
    """The natural number zero."""

    span: object = span_field()


@node
class Succ:
    """The successor of a natural number."""

    arg: "Expr"
    span: object = span_field()


@node
class NatRec:
    """The Nat recursor: a motive, a base case, a step and the number it recurses on."""

    motive: "Expr"
    base: "Expr"
    step: "Expr"
    target: "Expr"
    span: object = span_field()


@node
class Empty:
    """The empty type."""

    span: object = span_field()


@node
class EmptyCases:
    """The Empty eliminator (ex falso) at a motive."""

    motive: "Expr"
    target: "Expr"
    span: object = span_field()


@node
class Unit:
    """The unit type."""

    span: object = span_field()


@node
class Star:
    """The unit type's one element."""

    span: object = span_field()


@node
class Bool:
    """The type of booleans."""

    span: object = span_field()


@node
class TrueE:
    """The boolean true."""

    span: object = span_field()


@node
class FalseE:
    """The boolean false."""

    span: object = span_field()


@node
class BoolCases:
    """The Bool eliminator: a motive, one case per boolean and the boolean it inspects."""

    motive: "Expr"
    if_true: "Expr"
    if_false: "Expr"
    target: "Expr"
    span: object = span_field()


@node
class Sum:
    """The disjoint sum of two types."""

    left: "Expr"
    right: "Expr"
    span: object = span_field()


@node
class Inl:
    """The left injection into an annotated Sum type."""

    sum: "Expr"  # the annotated Sum type
    value: "Expr"
    span: object = span_field()


@node
class Inr:
    """The right injection into an annotated Sum type."""

    sum: "Expr"
    value: "Expr"
    span: object = span_field()


@node
class SumCases:
    """The Sum eliminator: a motive, one function per injection and the scrutinee."""

    motive: "Expr"
    on_left: "Expr"
    on_right: "Expr"
    scrutinee: "Expr"
    span: object = span_field()


@node
class W:
    """A W-type of well-founded trees: labels in dom, one child per element of cod."""

    dom: "Expr"
    cod: "Expr"  # branching family, under one binder
    hint: str | None = hint_field()
    span: object = span_field()


@node
class Sup:
    """A W-type node: a label and the function giving its children."""

    wtype: "Expr"  # the annotated W type
    label: "Expr"
    children: "Expr"
    span: object = span_field()


@node
class WRec:
    """The W-type recursor: a motive, a step and the tree it recurses on."""

    motive: "Expr"
    step: "Expr"
    target: "Expr"
    span: object = span_field()


@node
class Axiom:
    """A named axiom constant, usable only when the config enables it."""

    name: str
    span: object = span_field()


Expr = Union[
    Var, TypeSort, PropSort, Pi, Lam, App, Sigma, Pair, SigmaCases,
    Id, Refl, IdCases, Nat, Zero, Succ, NatRec, Empty, EmptyCases,
    Unit, Star, Bool, TrueE, FalseE, BoolCases, Sum, Inl, Inr, SumCases,
    W, Sup, WRec, Axiom,
]

for _cls in Expr.__args__:
    _cls._loose = None
    _cls._typed = None

# (field name, binder depth) per constructor; leaves omitted
_SHAPE = {
    Pi: (("dom", 0), ("cod", 1)),
    Lam: (("dom", 0), ("body", 1)),
    App: (("fn", 0), ("arg", 0)),
    Sigma: (("dom", 0), ("cod", 1)),
    Pair: (("sigma", 0), ("fst", 0), ("snd", 0)),
    SigmaCases: (("motive", 0), ("branch", 0), ("scrutinee", 0)),
    Id: (("type", 0), ("lhs", 0), ("rhs", 0)),
    Refl: (("type", 0), ("term", 0)),
    IdCases: (("motive", 0), ("refl_case", 0), ("lhs", 0), ("rhs", 0), ("proof", 0)),
    Succ: (("arg", 0),),
    NatRec: (("motive", 0), ("base", 0), ("step", 0), ("target", 0)),
    EmptyCases: (("motive", 0), ("target", 0)),
    BoolCases: (("motive", 0), ("if_true", 0), ("if_false", 0), ("target", 0)),
    Sum: (("left", 0), ("right", 0)),
    Inl: (("sum", 0), ("value", 0)),
    Inr: (("sum", 0), ("value", 0)),
    SumCases: (("motive", 0), ("on_left", 0), ("on_right", 0), ("scrutinee", 0)),
    W: (("dom", 0), ("cod", 1)),
    Sup: (("wtype", 0), ("label", 0), ("children", 0)),
    WRec: (("motive", 0), ("step", 0), ("target", 0)),
}


def _rebuild(e: Expr, children: list) -> Expr:
    """A new node of e's constructor over the given subexpressions (in
    `_SHAPE` order, which is each constructor's positional field order),
    keeping its binder hint and Sigma's in_prop and dropping its span."""
    cls = type(e)
    if cls is Pi or cls is Lam or cls is W:
        return cls(*children, hint=e.hint)
    if cls is Sigma:
        return Sigma(*children, e.in_prop, hint=e.hint)
    return cls(*children)


def map_subexprs(e: Expr, f) -> Expr:
    """Rebuild e with f(child, binder_depth_increment) over each subexpression.

    When f returns every child itself (`is`), e itself is returned, so
    callers such as shift and subst allocate nothing for subterms they leave
    unchanged.
    """
    shape = _SHAPE.get(type(e))
    if shape is None:
        return e
    children = []
    changed = False
    for name, depth in shape:
        sub = getattr(e, name)
        new = f(sub, depth)
        if new is not sub:
            changed = True
        children.append(new)
    return _rebuild(e, children) if changed else e


def replace_field(e: Expr, name: str, value: Expr) -> Expr:
    return _rebuild(e, [value if n == name else getattr(e, n) for n, _ in _SHAPE[type(e)]])


def _loose_range(e: Expr) -> int:
    """One more than the largest loose de Bruijn index of e; 0 when closed."""
    r = e._loose
    if r is None:
        shape = _SHAPE.get(type(e))
        if shape is None:
            return e.index + 1 if type(e) is Var else 0
        r = 0
        for name, depth in shape:
            sub = _loose_range(getattr(e, name)) - depth
            if sub > r:
                r = sub
        object.__setattr__(e, "_loose", r)
    return r


def shift(e: Expr, d: int, cutoff: int = 0) -> Expr:
    if _loose_range(e) <= cutoff:
        return e
    match e:
        case Var(index=k):
            return Var(k + d)
        case _:
            return map_subexprs(e, lambda sub, extra: shift(sub, d, cutoff + extra))


def subst(e: Expr, j: int, value: Expr, lift: int = 0) -> Expr:
    """Substitute Var(j) by value, lowering the indices above j.

    `lift` is the number of binders crossed since value's context: value is
    shifted by it only at the occurrences of Var(j) it replaces, so a
    substitution whose Var(j) does not occur never shifts. Callers pass 0.

    Subterms the substitution leaves unchanged are returned as the same
    object, and so is e when Var(j) and the indices above it do not occur,
    which the loose-bvar range tells without a walk.
    """
    if _loose_range(e) <= j:
        return e
    match e:
        case Var(index=k):
            if k == j:
                return shift(value, lift) if lift else value
            return Var(k - 1)
        case _:
            return map_subexprs(
                e, lambda sub, extra: subst(sub, j + extra, value, lift + extra)
            )


def instantiate(binder_body: Expr, value: Expr) -> Expr:
    return subst(binder_body, 0, value)


def numeral(n: int) -> Expr:
    e: Expr = Zero()
    for _ in range(n):
        e = Succ(e)
    return e


def numeral_value(e: Expr) -> int | None:
    n = 0
    while isinstance(e, Succ):
        n += 1
        e = e.arg
    return n if isinstance(e, Zero) else None


def contains_axiom(e: Expr) -> bool:
    if isinstance(e, Axiom):
        return True
    return any(contains_axiom(getattr(e, name)) for name, _ in _SHAPE.get(type(e), ()))


def arrow(dom: Expr, cod: Expr) -> Pi:
    """Non-dependent function type."""
    return Pi(dom, shift(cod, 1))
