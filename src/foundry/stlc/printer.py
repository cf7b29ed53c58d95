"""Pretty-printer for simply typed lambda terms, matched to the surface
parser.

`KEYWORDS` and `BINDERS` spell every STLC term keyword once, with the
constructor it names; this printer and the parser in `surface.stlc_parser`
both read them.
"""

from __future__ import annotations

from ..span import fresh_name
from .syntax import (
    _SHAPE, FF, TT, App, Cases, Cond, Const, Free, Inj0, Inj1, Lam, Pair,
    Proj0, Proj1, RecNat, Succ, Term, Var, Zero, free_names, numeral_value,
)
from .typing import pretty_type

# The keywords that open a factor, each with the constructor it names. An
# atom is the keyword alone; a prefix form is `kw arg...` over its
# constructor's `_SHAPE` fields, in order, after a bracketed type `[T]` for
# the constructors in ANNOTATED, where T is the field named there.
KEYWORDS = {
    "zero": Zero, "tt": TT, "ff": FF,
    "succ": Succ, "natrec": RecNat, "cond": Cond, "cases": Cases,
    "fst": Proj0, "snd": Proj1, "inl": Inj0, "inr": Inj1,
}
ANNOTATED = {Inj0: "right", Inj1: "left"}

# The keyword that opens a binder `kw (x y : A) (z : B) ... => body`.
BINDERS = {"fun": Lam}

_BINDER_WORDS = {cls: kw for kw, cls in BINDERS.items()}
# No binder is printed with a keyword's name, which would read back as the keyword.
_KEYWORD_NAMES = frozenset(KEYWORDS) | frozenset(BINDERS)

# constructor: (keyword, annotation field or None, argument fields)
_FORMS = {
    cls: (kw, ANNOTATED.get(cls), tuple(name for name, _ in _SHAPE.get(cls, ())))
    for kw, cls in KEYWORDS.items()
}


def pretty_term(t: Term) -> str:
    """The surface text of a term, which the STLC parser reads back as an
    alpha-equal term. Numerals print as digits."""

    taken = free_names(t) | _KEYWORD_NAMES

    def go(t, names, prec) -> str:
        # prec: 0 lambda, 20 application, 21 atoms
        n = numeral_value(t)
        if n is not None:
            return str(n)
        cls = type(t)
        if cls in _FORMS:
            kw, annotation, args = _FORMS[cls]
            if annotation is None and not args:
                return kw
            s = kw if annotation is None else f"{kw} [{pretty_type(getattr(t, annotation))}]"
            for name in args:
                s = f"{s} {go(getattr(t, name), names, 21)}"
            return s if prec <= 20 else f"({s})"
        match t:
            case Var(index=k):
                return names[k] if k < len(names) else f"#{k}"
            case Free(name=nm):
                return nm
            case Const(name=nm):
                return nm
            case Lam(dom=d, body=b, hint=h):
                x = fresh_name(h or "x", set(names) | taken)
                s = f"{_BINDER_WORDS[Lam]} ({x} : {pretty_type(d)}) => {go(b, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Pair(left=a, right=b):
                return f"({go(a, names, 0)}, {go(b, names, 0)})"
        raise TypeError(t)

    return go(t, (), 0)
