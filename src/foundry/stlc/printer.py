"""Pretty-printer for simply typed lambda terms, matched to the surface
parser."""

from __future__ import annotations

from .syntax import (
    FF, TT, App, Cases, Cond, Const, Free, Inj0, Inj1, Lam, Pair, Proj0, Proj1,
    RecNat, Succ, Term, Var, Zero, free_names, numeral_value,
)
from .typing import pretty_type


def pretty_term(t: Term) -> str:
    """The surface text of a term, which the STLC parser reads back as an
    alpha-equal term. Numerals print as digits."""

    def fresh(base, names):
        name = base or "x"
        while name in names:
            name += "'"
        return name

    frees = free_names(t)

    def go(t, names, prec) -> str:
        # prec: 0 lambda, 20 application, 21 atoms
        n = numeral_value(t)
        if n is not None:
            return str(n)
        match t:
            case Var(index=k):
                return names[k] if k < len(names) else f"#{k}"
            case Free(name=nm):
                return nm
            case Const(name=nm):
                return nm
            case Lam(dom=d, body=b, hint=h):
                x = fresh(h, set(names) | frees)
                s = f"fun ({x} : {pretty_type(d)}) => {go(b, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Pair(left=a, right=b):
                return f"({go(a, names, 0)}, {go(b, names, 0)})"
            case Proj0(pair=p):
                s = f"fst {go(p, names, 21)}"
            case Proj1(pair=p):
                s = f"snd {go(p, names, 21)}"
            case Inj0(right=ty, value=v):
                s = f"inl [{pretty_type(ty)}] {go(v, names, 21)}"
            case Inj1(left=ty, value=v):
                s = f"inr [{pretty_type(ty)}] {go(v, names, 21)}"
            case Cases(on_left=f, on_right=g, scrutinee=sc):
                s = f"cases {go(f, names, 21)} {go(g, names, 21)} {go(sc, names, 21)}"
            case Zero():
                return "zero"
            case Succ(arg=a):
                s = f"succ {go(a, names, 21)}"
            case RecNat(base=f, step=g, target=nn):
                s = f"natrec {go(f, names, 21)} {go(g, names, 21)} {go(nn, names, 21)}"
            case TT():
                return "tt"
            case FF():
                return "ff"
            case Cond(if_true=f, if_false=g, target=b):
                s = f"cond {go(f, names, 21)} {go(g, names, 21)} {go(b, names, 21)}"
            case _:
                raise TypeError(t)
        return s if prec <= 20 else f"({s})"

    return go(t, (), 0)
