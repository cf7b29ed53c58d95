"""Primitive recursive function descriptions and their evaluator.

The grammar is the rigid one with projections: zero and successor as basic
functions, composition, and primitive recursion. Arities are validated at
construction; evaluation unfolds the defining equations over arbitrary
precision naturals, guarded by a step fuel.
"""

from __future__ import annotations

from typing import Union

from ..errors import FuelError, TheoryError
from ..span import node


@node
class Zero:
    """The constant zero function."""


@node
class Succ:
    """The successor function."""


@node
class Proj:
    """The projection of one argument out of arity many."""

    arity: int
    index: int


@node
class Comp:
    """The composition of an outer function with inner functions of a shared arity."""

    outer: "PrimRecDef"
    inners: tuple["PrimRecDef", ...]
    arity_: int


@node
class PrimRec:
    """Primitive recursion from a base function and a step function."""

    base: "PrimRecDef"      # g, arity n
    step: "PrimRecDef"      # h, arity n + 2
    # the defined f has arity n + 1


PrimRecDef = Union[Zero, Succ, Proj, Comp, PrimRec]


def arity(d: PrimRecDef) -> int:
    match d:
        case Zero():
            return 0
        case Succ():
            return 1
        case Proj(arity=n):
            return n
        case Comp(arity_=n):
            return n
        case PrimRec(base=g):
            return arity(g) + 1
    raise TypeError(d)


def validate(d: PrimRecDef) -> None:
    match d:
        case Zero() | Succ():
            pass
        case Proj(arity=n, index=i):
            if not (0 <= i < n):
                raise TheoryError(f"projection index {i} out of range for arity {n}")
        case Comp(outer=f, inners=gs, arity_=n):
            validate(f)
            if arity(f) != len(gs):
                raise TheoryError(
                    f"composition: outer arity {arity(f)} != {len(gs)} inner function(s)"
                )
            for g in gs:
                validate(g)
                if arity(g) != n:
                    raise TheoryError(
                        f"composition: inner function has arity {arity(g)}, expected {n}"
                    )
        case PrimRec(base=g, step=h):
            validate(g)
            validate(h)
            if arity(h) != arity(g) + 2:
                raise TheoryError(
                    f"primitive recursion: step arity {arity(h)} should be base arity + 2"
                )
        case _:
            raise TypeError(d)


DEFAULT_FUEL = 50_000_000


def _compile(d: PrimRecDef, budget: list):
    """Compile to nested closures; fuel is charged per recursion unfolding."""
    match d:
        case Zero():
            return lambda args: 0
        case Succ():
            return lambda args: args[0] + 1
        case Proj(index=i):
            return lambda args, _i=i: args[_i]
        case Comp(outer=Succ(), inners=(Proj(index=i),)):
            return lambda args, _i=i: args[_i] + 1
        case Comp(outer=Proj(index=j), inners=gs):
            cg = _compile(gs[j], budget)
            return lambda args, _cg=cg: _cg(args)
        case Comp(outer=f, inners=gs):
            cf = _compile(f, budget)
            cgs = tuple(_compile(g, budget) for g in gs)
            return lambda args, _cf=cf, _cgs=cgs: _cf(tuple(cg(args) for cg in _cgs))
        case PrimRec(base=g, step=h):
            cg = _compile(g, budget)
            ch = _compile(h, budget)

            def run(args, _cg=cg, _ch=ch, _budget=budget):
                x = args[0]
                rest = args[1:]
                acc = _cg(rest)
                _budget[0] -= x
                if _budget[0] < 0:
                    raise FuelError("primitive recursion fuel exhausted")
                for i in range(x):
                    acc = _ch((i, acc) + rest)
                return acc

            return run
    raise TypeError(d)


def eval_primrec(d: PrimRecDef, args, fuel: int = DEFAULT_FUEL) -> int:
    """Value obtained by unfolding the defining equations."""
    validate(d)
    args = tuple(args)
    if len(args) != arity(d):
        raise TheoryError(f"arity mismatch: expected {arity(d)} argument(s), got {len(args)}")
    for a in args:
        if not isinstance(a, int) or a < 0:
            raise TheoryError(f"arguments must be naturals, got {a!r}")
    budget = [fuel]
    return _compile(d, budget)(args)


# stock definitions used throughout the tests and docs; the recursion
# variable is placed so unfolding costs stay linear in the smaller argument
ADD = PrimRec(base=Proj(1, 0), step=Comp(Succ(), (Proj(3, 1),), 3))
MUL = PrimRec(base=Comp(Zero(), (), 1), step=Comp(ADD, (Proj(3, 2), Proj(3, 1)), 3))
FACT = PrimRec(
    base=Comp(Succ(), (Zero(),), 0),
    step=Comp(MUL, (Comp(Succ(), (Proj(2, 0),), 2), Proj(2, 1)), 2),
)
