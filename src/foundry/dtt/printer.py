"""Pretty-printer for dependent type theory expressions."""

from __future__ import annotations

from .syntax import (
    App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id, IdCases,
    Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases,
    Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W, WRec,
    Zero, numeral_value,
)

_ATOMS = {
    Nat: "Nat", Empty: "Empty", Unit: "Unit", Bool: "Bool",
    Zero: "zero", Star: "star", TrueE: "true", FalseE: "false",
}


def pretty(e: Expr) -> str:
    def fresh(base: str, names) -> str:
        name = base or "x"
        while name in names:
            name += "'"
        return name

    def go(e: Expr, names: tuple[str, ...], prec: int) -> str:
        # prec: 0 binders/arrows, 10 sums, 20 application, 30 atoms
        n = numeral_value(e)
        if n is not None:
            return str(n)
        cls = type(e)
        if cls in _ATOMS:
            return _ATOMS[cls]
        match e:
            case Var(index=k):
                return names[k] if k < len(names) else f"#{k}"
            case TypeSort(level=i):
                s = f"Type {i}"
                return s if prec <= 20 else f"({s})"
            case PropSort():
                return "Prop"
            case Axiom(name=nm):
                s = f"axiom {nm}"
                return s if prec <= 20 else f"({s})"
            case Pi(dom=d, cod=c, hint=h):
                # print as an arrow when non-dependent
                if not _uses(c, 0):
                    s = f"{go(d, names, 11)} -> {go(_unshift(c), names, 0)}"
                    return s if prec == 0 else f"({s})"
                x = fresh(h, names)
                s = f"Pi ({x} : {go(d, names, 0)}), {go(c, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case Sigma(dom=d, cod=c, in_prop=ip, hint=h):
                x = fresh(h, names)
                kw = "exists" if ip else "Sigma"
                s = f"{kw} ({x} : {go(d, names, 0)}), {go(c, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case W(dom=d, cod=c, hint=h):
                x = fresh(h, names)
                s = f"W ({x} : {go(d, names, 0)}), {go(c, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case Lam(dom=d, body=b, hint=h):
                x = fresh(h, names)
                s = f"fun ({x} : {go(d, names, 0)}) => {go(b, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case Sum(left=l, right=r):
                s = f"{go(l, names, 11)} + {go(r, names, 10)}"
                return s if prec <= 10 else f"({s})"
            case App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Succ(arg=a):
                s = f"succ {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Pair(sigma=t, fst=a, snd=b):
                s = f"pair [{go(t, names, 0)}] {go(a, names, 21)} {go(b, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case SigmaCases(motive=m, branch=br, scrutinee=p):
                s = f"sigmacases [{go(m, names, 0)}] {go(br, names, 21)} {go(p, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Id(type=t, lhs=a, rhs=b):
                s = f"Id {go(t, names, 21)} {go(a, names, 21)} {go(b, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Refl(type=t, term=a):
                s = f"refl [{go(t, names, 0)}] {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case IdCases(motive=m, refl_case=rc, lhs=a, rhs=b, proof=p):
                s = (
                    f"idcases [{go(m, names, 0)}] {go(rc, names, 21)} "
                    f"{go(a, names, 21)} {go(b, names, 21)} {go(p, names, 21)}"
                )
                return s if prec <= 20 else f"({s})"
            case NatRec(motive=m, base=b, step=st, target=t):
                s = (
                    f"natrec [{go(m, names, 0)}] {go(b, names, 21)} "
                    f"{go(st, names, 21)} {go(t, names, 21)}"
                )
                return s if prec <= 20 else f"({s})"
            case EmptyCases(motive=m, target=t):
                s = f"emptycases [{go(m, names, 0)}] {go(t, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case BoolCases(motive=m, if_true=a, if_false=b, target=t):
                s = (
                    f"boolcases [{go(m, names, 0)}] {go(a, names, 21)} "
                    f"{go(b, names, 21)} {go(t, names, 21)}"
                )
                return s if prec <= 20 else f"({s})"
            case Inl(sum=t, value=v):
                s = f"inl [{go(t, names, 0)}] {go(v, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Inr(sum=t, value=v):
                s = f"inr [{go(t, names, 0)}] {go(v, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case SumCases(motive=m, on_left=f, on_right=g, scrutinee=sc):
                s = (
                    f"sumcases [{go(m, names, 0)}] {go(f, names, 21)} "
                    f"{go(g, names, 21)} {go(sc, names, 21)}"
                )
                return s if prec <= 20 else f"({s})"
            case Sup(wtype=t, label=a, children=f):
                s = f"sup [{go(t, names, 0)}] {go(a, names, 21)} {go(f, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case WRec(motive=m, step=st, target=t):
                s = f"wrec [{go(m, names, 0)}] {go(st, names, 21)} {go(t, names, 21)}"
                return s if prec <= 20 else f"({s})"
        raise TypeError(e)

    return go(e, (), 0)


def _uses(e: Expr, depth: int) -> bool:
    from .syntax import Var, map_subexprs

    if isinstance(e, Var):
        return e.index == depth
    hit = [False]

    def probe(sub, extra):
        if _uses(sub, depth + extra):
            hit[0] = True
        return sub

    map_subexprs(e, probe)
    return hit[0]


def _unshift(e: Expr, depth: int = 0) -> Expr:
    from .syntax import Var, map_subexprs

    if isinstance(e, Var):
        return Var(e.index - 1) if e.index > depth else e
    return map_subexprs(e, lambda sub, extra: _unshift(sub, depth + extra))
