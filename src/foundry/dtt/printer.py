"""Pretty-printer for dependent type theory expressions.

`KEYWORDS` and `BINDERS` spell every DTT surface keyword once, with the
constructor it names; this printer and the parser in `surface.dtt_parser`
both read them.
"""

from __future__ import annotations

from ..span import fresh_name
from .syntax import (
    _SHAPE, App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id,
    IdCases, Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma,
    SigmaCases, Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W,
    WRec, Zero, numeral_value,
)

# The keywords that open a factor, each with the constructor it names:
# - an atom is the keyword alone;
# - a prefix form is `kw [first] rest...` over its constructor's `_SHAPE`
#   fields, the bracketed one read as a whole expression and the rest as
#   arguments; the constructors in UNBRACKETED take every field as an
#   argument;
# - `Type` takes a level and `axiom` a name.
KEYWORDS = {
    "Prop": PropSort, "Nat": Nat, "Empty": Empty, "Unit": Unit, "Bool": Bool,
    "zero": Zero, "star": Star, "true": TrueE, "false": FalseE,
    "succ": Succ, "Id": Id, "pair": Pair, "sigmacases": SigmaCases,
    "refl": Refl, "idcases": IdCases, "natrec": NatRec,
    "emptycases": EmptyCases, "boolcases": BoolCases, "inl": Inl, "inr": Inr,
    "sumcases": SumCases, "sup": Sup, "wrec": WRec,
    "Type": TypeSort, "axiom": Axiom,
}
UNBRACKETED = (Succ, Id)

# The keywords that open a binder `kw (x y : A) (z : B) ..., body`, with `=>`
# in place of `,` for fun; the flag is the Sigma's in_prop.
BINDERS = {
    "fun": (Lam, False), "Pi": (Pi, False), "Sigma": (Sigma, False),
    "exists": (Sigma, True), "W": (W, False),
}

_WORDS = {cls: kw for kw, cls in KEYWORDS.items()}
_BINDER_WORDS = {entry: kw for kw, entry in BINDERS.items()}
# No binder is printed with a keyword's name, which would read back as the keyword.
_KEYWORD_NAMES = frozenset(KEYWORDS) | frozenset(BINDERS)


def _form(cls):
    """(keyword, bracketed field or None, argument fields) of an atom or a
    prefix form."""
    fields = tuple(name for name, _ in _SHAPE.get(cls, ()))
    if not fields or cls in UNBRACKETED:
        return _WORDS[cls], None, fields
    return _WORDS[cls], fields[0], fields[1:]


_FORMS = {cls: _form(cls) for cls in KEYWORDS.values() if cls not in (TypeSort, Axiom)}

# The name of an arrow's binder, which its codomain does not use. No binder
# is printed with an empty name, so with this one in scope each binder gets
# the name it would get without it.
_HOLE = ""


def pretty(e: Expr) -> str:
    dependent: set[int] = set()
    _uses(e, dependent)

    def go(e: Expr, names: tuple[str, ...], prec: int) -> str:
        # prec: 0 binders/arrows, 10 sums, 20 application, 30 atoms
        n = numeral_value(e)
        if n is not None:
            return str(n)
        cls = type(e)
        if cls in _FORMS:
            kw, bracketed, args = _FORMS[cls]
            if bracketed is None and not args:
                return kw
            s = kw if bracketed is None else f"{kw} [{go(getattr(e, bracketed), names, 0)}]"
            for name in args:
                s = f"{s} {go(getattr(e, name), names, 21)}"
            return s if prec <= 20 else f"({s})"
        match e:
            case Var(index=k):
                # a loose index is printed as if the arrows' binders were not there
                return names[k] if k < len(names) else f"#{k - names.count(_HOLE)}"
            case TypeSort(level=i):
                s = f"{_WORDS[TypeSort]} {i}"
                return s if prec <= 20 else f"({s})"
            case Axiom(name=nm):
                s = f"{_WORDS[Axiom]} {nm}"
                return s if prec <= 20 else f"({s})"
            case Pi(dom=d, cod=c) if id(e) not in dependent:
                # non-dependent: print as an arrow
                s = f"{go(d, names, 11)} -> {go(c, (_HOLE,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case (
                Pi(dom=d, cod=b, hint=h) | Sigma(dom=d, cod=b, hint=h)
                | W(dom=d, cod=b, hint=h) | Lam(dom=d, body=b, hint=h)
            ):
                x = fresh_name(h or "x", _KEYWORD_NAMES.union(names))
                kw = _BINDER_WORDS[cls, cls is Sigma and e.in_prop]
                sep = " =>" if cls is Lam else ","
                s = f"{kw} ({x} : {go(d, names, 0)}){sep} {go(b, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case Sum(left=l, right=r):
                s = f"{go(l, names, 11)} + {go(r, names, 10)}"
                return s if prec <= 10 else f"({s})"
            case App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
        raise TypeError(e)

    return go(e, (), 0)


def _uses(e: Expr, dependent: set) -> int:
    """The loose de Bruijn indices of e as a bit mask, bit k for Var(k).

    The same walk adds to `dependent` the id of every Pi in e whose codomain
    uses its own variable, so one walk decides arrow or Pi for every binder.
    A leaf child is read in place, not entered."""
    cls = type(e)
    if cls is Var:
        return 1 << e.index
    used = 0
    for name, extra in _SHAPE.get(cls, ()):
        sub = getattr(e, name)
        if type(sub) is Var:
            m = 1 << sub.index
        elif type(sub) in _SHAPE:
            m = _uses(sub, dependent)
        else:
            continue
        if extra:
            if m & 1 and cls is Pi:
                dependent.add(id(e))
            m >>= 1
        used |= m
    return used
