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
        cls = type(t)
        if cls is App:
            eq = dest_eq(t)
            if eq is not None:
                s = f"{go(eq[0], names, 20)} = {go(eq[1], names, 20)}"
                return s if prec <= 0 else f"({s})"
            s = f"{go(t.fn, names, 20)} {go(t.arg, names, 21)}"
            return s if prec <= 20 else f"({s})"
        if cls is BVar:
            k = t.index
            return names[k] if k < len(names) else f"#{k}"
        if cls is FVar:
            return f"({t.name} : {pretty_type(t.type)})" if types else t.name
        if cls is Const:
            return t.name
        if cls is Abs:
            name = fresh_name(t.hint or "x", set(names) | taken)
            s = f"fun ({name} : {pretty_type(t.dom)}) => {go(t.body, (name,) + names, 0)}"
            return s if prec == 0 else f"({s})"
        raise TypeError(t)

    return go(t, (), 0)
