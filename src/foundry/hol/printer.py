"""Deterministic pretty-printer for HOL terms.

Binder hints are freshened with primes against everything in scope; `=` is
printed infix, everything else as application. With types=True every binder
and free variable carries its type annotation.
"""

from __future__ import annotations

from ..span import fresh_name
from .kernel import Abs, App, BVar, Const, FVar, HolTerm, dest_eq, free_vars, pretty_type


def pretty_typed(t: HolTerm) -> str:
    """The term with every binder and free variable annotated with its type."""
    return pretty_term(t, types=True)


def pretty_term(t: HolTerm, types: bool = False) -> str:
    taken = {v.name for v in free_vars(t)} | {"fun"}  # a binder named fun reads back as one

    def go(t: HolTerm, names: tuple[str, ...], prec: int) -> str:
        # prec: 0 top/binder, 10 equation, 20 application, 21 argument
        eq = dest_eq(t)
        if eq is not None:
            l, r = eq
            s = f"{go(l, names, 20)} = {go(r, names, 20)}"
            return s if prec <= 0 else f"({s})"
        match t:
            case BVar(index=k):
                return names[k] if k < len(names) else f"#{k}"
            case FVar(name=n, type=ty):
                return f"({n} : {pretty_type(ty)})" if types else n
            case Const(name=n):
                return n
            case App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Abs(dom=d, body=b, hint=h):
                name = fresh_name(h or "x", set(names) | taken)
                s = f"fun ({name} : {pretty_type(d)}) => {go(b, (name,) + names, 0)}"
                return s if prec == 0 else f"({s})"
        raise TypeError(t)

    return go(t, (), 0)
