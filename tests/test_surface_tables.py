"""Each calculus's parser and printer read one keyword table, against references.

The references below are the code the tables replaced: the DTT, STLC and
FOL printers with one case per constructor, DTT's `_dtt_build` with its
bracket-arity table, the grammar functions that spelled the keywords
themselves, and the HOL type parser before its atom function was folded in. A reference parse runs the current grammar module with the old
functions put back in place of the ones that changed; the grammar's
functions call each other through the module, so the whole parse then takes
the old path. The two sides are compared on seeded terms, on one hand-built
node per constructor and on mutated texts that mostly fail to parse: on the
printed text, on the parsed node with which of its nodes carry a span, and
on the error's message and span.
"""

import random

import pytest

from foundry import dtt, fol, stlc
from foundry.dtt import (
    App, Axiom, Bool, BoolCases, Empty, EmptyCases, FalseE, Id, IdCases, Inl,
    Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases, Star,
    Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W, WRec, Zero,
    numeral, numeral_value,
)
from foundry.dtt import printer as dtt_printer, syntax as dtt_syntax
from foundry.dtt.kernel import DTT_AXIOMS
from foundry.dtt.syntax import _SHAPE as DTT_SHAPE, map_subexprs
from foundry.errors import FoundryError, ParseError
from foundry.fol import And, Bot, Eq, Exists, Forall, Implies, Or, Rel, pretty_term
from foundry.fol.syntax import SURFACE as FOL_SURFACE, _binder_name, free_vars
from foundry.stlc import printer as stlc_printer
from foundry.stlc.syntax import _SHAPE as STLC_SHAPE
from foundry.stlc.typing import TYPE_KEYWORDS, pretty_type
from foundry.surface import dtt_parser as dp
from foundry.hol import kernel as hk
from foundry.surface import fol_parser as fp
from foundry.surface import hol_parser as hp
from foundry.surface import stlc_parser as sp
from foundry.surface import parse_expr, tokenize

from helpers import gen_formula, is_node, nd_signature


# ---------------------------------------------------------------------------
# References: the printers


def ref_dtt_pretty(e):
    def fresh(base, names):
        name = base or "x"
        while name in names:
            name += "'"
        return name

    def go(e, names, prec):
        n = numeral_value(e)
        if n is not None:
            return str(n)
        cls = type(e)
        if cls in _REF_DTT_ATOMS:
            return _REF_DTT_ATOMS[cls]
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
                if not _ref_uses(c, 0):
                    s = f"{go(d, names, 11)} -> {go(_ref_unshift(c), names, 0)}"
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
            case Pair(sigma=t, fst=a, snd=b):
                s = f"pair [{go(t, names, 0)}] {go(a, names, 21)} {go(b, names, 21)}"
            case SigmaCases(motive=m, branch=br, scrutinee=p):
                s = f"sigmacases [{go(m, names, 0)}] {go(br, names, 21)} {go(p, names, 21)}"
            case Id(type=t, lhs=a, rhs=b):
                s = f"Id {go(t, names, 21)} {go(a, names, 21)} {go(b, names, 21)}"
            case Refl(type=t, term=a):
                s = f"refl [{go(t, names, 0)}] {go(a, names, 21)}"
            case IdCases(motive=m, refl_case=rc, lhs=a, rhs=b, proof=p):
                s = (
                    f"idcases [{go(m, names, 0)}] {go(rc, names, 21)} "
                    f"{go(a, names, 21)} {go(b, names, 21)} {go(p, names, 21)}"
                )
            case NatRec(motive=m, base=b, step=st, target=t):
                s = (
                    f"natrec [{go(m, names, 0)}] {go(b, names, 21)} "
                    f"{go(st, names, 21)} {go(t, names, 21)}"
                )
            case EmptyCases(motive=m, target=t):
                s = f"emptycases [{go(m, names, 0)}] {go(t, names, 21)}"
            case BoolCases(motive=m, if_true=a, if_false=b, target=t):
                s = (
                    f"boolcases [{go(m, names, 0)}] {go(a, names, 21)} "
                    f"{go(b, names, 21)} {go(t, names, 21)}"
                )
            case Inl(sum=t, value=v):
                s = f"inl [{go(t, names, 0)}] {go(v, names, 21)}"
            case Inr(sum=t, value=v):
                s = f"inr [{go(t, names, 0)}] {go(v, names, 21)}"
            case SumCases(motive=m, on_left=f, on_right=g, scrutinee=sc):
                s = (
                    f"sumcases [{go(m, names, 0)}] {go(f, names, 21)} "
                    f"{go(g, names, 21)} {go(sc, names, 21)}"
                )
            case Sup(wtype=t, label=a, children=f):
                s = f"sup [{go(t, names, 0)}] {go(a, names, 21)} {go(f, names, 21)}"
            case WRec(motive=m, step=st, target=t):
                s = f"wrec [{go(m, names, 0)}] {go(st, names, 21)} {go(t, names, 21)}"
            case _:
                raise TypeError(e)
        return s if prec <= 20 else f"({s})"

    return go(e, (), 0)


_REF_DTT_ATOMS = {
    Nat: "Nat", Empty: "Empty", Unit: "Unit", Bool: "Bool",
    Zero: "zero", Star: "star", TrueE: "true", FalseE: "false",
}


def _ref_uses(e, depth):
    if isinstance(e, Var):
        return e.index == depth
    hit = [False]

    def probe(sub, extra):
        if _ref_uses(sub, depth + extra):
            hit[0] = True
        return sub

    map_subexprs(e, probe)
    return hit[0]


def _ref_unshift(e, depth=0):
    if isinstance(e, Var):
        return Var(e.index - 1) if e.index > depth else e
    return map_subexprs(e, lambda sub, extra: _ref_unshift(sub, depth + extra))


def ref_pretty_stlc_type(ty):
    match ty:
        case stlc.Base(name=n):
            return n
        case stlc.NatT():
            return "Nat"
        case stlc.BoolT():
            return "Bool"
        case stlc.Arrow(dom=d, cod=c):
            dd = ref_pretty_stlc_type(d)
            if isinstance(d, stlc.Arrow):
                dd = f"({dd})"
            return f"{dd} -> {ref_pretty_stlc_type(c)}"
        case stlc.Prod(left=l, right=r):
            return f"{_ref_type_atom(l)} * {_ref_type_atom(r)}"
        case stlc.SumT(left=l, right=r):
            return f"{_ref_type_atom(l)} + {_ref_type_atom(r)}"
    raise TypeError(ty)


def _ref_type_atom(ty):
    s = ref_pretty_stlc_type(ty)
    return f"({s})" if isinstance(ty, (stlc.Arrow, stlc.Prod, stlc.SumT)) else s


def ref_stlc_pretty(t):
    def fresh(base, names):
        name = base or "x"
        while name in names:
            name += "'"
        return name

    frees = stlc.free_names(t)

    def go(t, names, prec):
        n = stlc.numeral_value(t)
        if n is not None:
            return str(n)
        match t:
            case stlc.Var(index=k):
                return names[k] if k < len(names) else f"#{k}"
            case stlc.Free(name=nm) | stlc.Const(name=nm):
                return nm
            case stlc.Lam(dom=d, body=b, hint=h):
                x = fresh(h, set(names) | frees)
                s = f"fun ({x} : {ref_pretty_stlc_type(d)}) => {go(b, (x,) + names, 0)}"
                return s if prec == 0 else f"({s})"
            case stlc.App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case stlc.Pair(left=a, right=b):
                return f"({go(a, names, 0)}, {go(b, names, 0)})"
            case stlc.Proj0(pair=p):
                s = f"fst {go(p, names, 21)}"
            case stlc.Proj1(pair=p):
                s = f"snd {go(p, names, 21)}"
            case stlc.Inj0(right=ty, value=v):
                s = f"inl [{ref_pretty_stlc_type(ty)}] {go(v, names, 21)}"
            case stlc.Inj1(left=ty, value=v):
                s = f"inr [{ref_pretty_stlc_type(ty)}] {go(v, names, 21)}"
            case stlc.Cases(on_left=f, on_right=g, scrutinee=sc):
                s = f"cases {go(f, names, 21)} {go(g, names, 21)} {go(sc, names, 21)}"
            case stlc.Zero():
                return "zero"
            case stlc.Succ(arg=a):
                s = f"succ {go(a, names, 21)}"
            case stlc.RecNat(base=f, step=g, target=nn):
                s = f"natrec {go(f, names, 21)} {go(g, names, 21)} {go(nn, names, 21)}"
            case stlc.TT():
                return "tt"
            case stlc.FF():
                return "ff"
            case stlc.Cond(if_true=f, if_false=g, target=b):
                s = f"cond {go(f, names, 21)} {go(g, names, 21)} {go(b, names, 21)}"
            case _:
                raise TypeError(t)
        return s if prec <= 20 else f"({s})"

    return go(t, (), 0)


def ref_fol_pretty(a):
    frees = {v.name for v in free_vars(a)}

    def go(a, names, prec):
        match a:
            case Bot():
                return "false"
            case Eq(lhs=l, rhs=r):
                return f"{pretty_term(l, names)} = {pretty_term(r, names)}"
            case Rel(name=n, args=()):
                return n
            case Rel(name=n, args=args):
                return f"{n}({', '.join(pretty_term(t, names) for t in args)})"
            case Implies(left=l, right=Bot()):
                s = f"~{go(l, names, 3)}"
                return s if prec <= 3 else f"({s})"
            case And(left=l, right=r):
                s = f"{go(l, names, 3)} /\\ {go(r, names, 2)}"
                return s if prec <= 2 else f"({s})"
            case Or(left=l, right=r):
                s = f"{go(l, names, 2)} \\/ {go(r, names, 1)}"
                return s if prec <= 1 else f"({s})"
            case Implies(left=l, right=r):
                s = f"{go(l, names, 1)} -> {go(r, names, 0)}"
                return s if prec <= 0 else f"({s})"
            case Forall(sort=srt, body=b) | Exists(sort=srt, body=b):
                kw = "forall" if isinstance(a, Forall) else "exists"
                n = _binder_name(a, names, frees)
                s = f"{kw} {n} : {srt}, {go(b, (n,) + names, 0)}"
                return s if prec <= 0 else f"({s})"
        raise TypeError(a)

    return go(a, (), 0)


# ---------------------------------------------------------------------------
# References: the grammar functions that changed


_REF_DTT_ATOMS_BY_NAME = {
    "Nat": dtt.Nat, "Empty": dtt.Empty, "Unit": dtt.Unit, "Bool": dtt.Bool,
    "zero": dtt.Zero, "star": dtt.Star, "true": dtt.TrueE, "false": dtt.FalseE,
}

_REF_DTT_BRACKET_OPS = {
    # name: (number of bracket args, number of term args)
    "pair": (1, 2), "sigmacases": (1, 2), "refl": (1, 1), "idcases": (1, 4),
    "natrec": (1, 3), "emptycases": (1, 1), "boolcases": (1, 3), "inl": (1, 1),
    "inr": (1, 1), "sumcases": (1, 3), "sup": (1, 2), "wrec": (1, 2),
}


def ref_dtt_expr(cur, defs, binders):
    t = cur.peek()
    if t.kind == "ident" and t.value in ("fun", "Pi", "Sigma", "exists", "W"):
        kw = t.value
        cur.next()
        groups = []
        while cur.at("("):
            cur.next()
            names = [cur.expect_kind("ident").value]
            while cur.at_kind("ident"):
                names.append(cur.next().value)
            cur.expect(":")
            depth = len(groups)
            ty = ref_dtt_expr(cur, defs, dp._extend_names(binders, [g[0] for g in groups]))
            cur.expect(")")
            groups.extend((n, ty, depth) for n in names)
        cur.expect("=>" if kw == "fun" else ",")
        body = ref_dtt_expr(cur, defs, dp._extend_names(binders, [g[0] for g in groups]))
        for i, (n, ty, depth) in reversed(list(enumerate(groups))):
            if i != depth:
                ty = dtt.shift(ty, i - depth)
            if kw == "fun":
                body = dtt.Lam(ty, body, hint=n, span=t.span)
            elif kw == "Pi":
                body = dtt.Pi(ty, body, hint=n, span=t.span)
            elif kw == "Sigma":
                body = dtt.Sigma(ty, body, in_prop=False, hint=n, span=t.span)
            elif kw == "exists":
                body = dtt.Sigma(ty, body, in_prop=True, hint=n, span=t.span)
            else:
                body = dtt.W(ty, body, hint=n, span=t.span)
        return body
    return dp._dtt_arrow(cur, defs, binders)


def ref_dtt_factor(cur, defs, binders):
    t = cur.peek()
    if t.kind == "int":
        cur.next()
        return dtt.numeral(int(t.value))
    if cur.at("("):
        cur.next()
        e = ref_dtt_expr(cur, defs, binders)
        cur.expect(")")
        return e
    name = cur.expect_kind("ident").value
    if name == "Type":
        lvl = cur.expect_kind("int")
        return dtt.TypeSort(int(lvl.value), span=t.span)
    if name == "Prop":
        return dtt.PropSort(span=t.span)
    if name == "succ":
        return dtt.Succ(ref_dtt_factor(cur, defs, binders), span=t.span)
    if name == "Id":
        a = ref_dtt_factor(cur, defs, binders)
        b = ref_dtt_factor(cur, defs, binders)
        c = ref_dtt_factor(cur, defs, binders)
        return dtt.Id(a, b, c, span=t.span)
    if name == "axiom":
        ax = cur.expect_kind("ident").value
        return dtt.Axiom(ax, span=t.span)
    if name in _REF_DTT_ATOMS_BY_NAME:
        return _REF_DTT_ATOMS_BY_NAME[name](span=t.span)
    if name in _REF_DTT_BRACKET_OPS:
        nbr, nterm = _REF_DTT_BRACKET_OPS[name]
        brackets = []
        for _ in range(nbr):
            cur.expect("[")
            brackets.append(ref_dtt_expr(cur, defs, binders))
            cur.expect("]")
        args = [ref_dtt_factor(cur, defs, binders) for _ in range(nterm)]
        return ref_dtt_build(name, brackets, args, t.span)
    for i, (n, *_rest) in enumerate(binders):
        if n == name:
            return dtt.Var(i, span=t.span)
    if name in defs:
        return defs[name]
    cur.fail(f"unknown name {name}")


def ref_dtt_build(name, brackets, args, span):
    m = brackets[0]
    match name:
        case "pair":
            return dtt.Pair(m, args[0], args[1], span=span)
        case "sigmacases":
            return dtt.SigmaCases(m, args[0], args[1], span=span)
        case "refl":
            return dtt.Refl(m, args[0], span=span)
        case "idcases":
            return dtt.IdCases(m, args[0], args[1], args[2], args[3], span=span)
        case "natrec":
            return dtt.NatRec(m, args[0], args[1], args[2], span=span)
        case "emptycases":
            return dtt.EmptyCases(m, args[0], span=span)
        case "boolcases":
            return dtt.BoolCases(m, args[0], args[1], args[2], span=span)
        case "inl":
            return dtt.Inl(m, args[0], span=span)
        case "inr":
            return dtt.Inr(m, args[0], span=span)
        case "sumcases":
            return dtt.SumCases(m, args[0], args[1], args[2], span=span)
        case "sup":
            return dtt.Sup(m, args[0], args[1], span=span)
        case "wrec":
            return dtt.WRec(m, args[0], args[1], span=span)
    raise ParseError(f"unknown eliminator {name}", span=span)


def ref_stlc_atom_type(cur):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = sp.parse_stlc_type(cur)
        cur.expect(")")
        return a
    name = cur.expect_kind("ident").value
    if name == "Nat":
        return stlc.NatT(span=t.span)
    if name == "Bool":
        return stlc.BoolT(span=t.span)
    return stlc.Base(name, span=t.span)


_REF_STLC_OPS = {"succ": 1, "natrec": 3, "cond": 3, "cases": 3, "fst": 1, "snd": 1}


def ref_parse_stlc_term(cur, consts=None, binders=()):
    consts = consts or {}
    t = cur.peek()
    if t.kind == "ident" and t.value == "fun":
        cur.next()
        groups = []
        while cur.at("("):
            cur.next()
            names = [cur.expect_kind("ident").value]
            while cur.at_kind("ident") and not cur.at(":"):
                names.append(cur.next().value)
            cur.expect(":")
            ty = sp.parse_stlc_type(cur)
            cur.expect(")")
            groups.extend((n, ty) for n in names)
        cur.expect("=>")
        inner = binders
        for n, ty in groups:
            inner = ((n, ty),) + inner
        body = ref_parse_stlc_term(cur, consts, inner)
        for n, ty in reversed(groups):
            body = stlc.Lam(ty, stlc.abstract_free(body, n), hint=n, span=t.span)
        return body
    return sp._stlc_app(cur, consts, binders)


def ref_stlc_factor(cur, consts, binders):
    t = cur.peek()
    if t.kind == "int":
        cur.next()
        return stlc.numeral(int(t.value))
    if cur.at("("):
        cur.next()
        a = ref_parse_stlc_term(cur, consts, binders)
        if cur.at(","):
            cur.next()
            b = ref_parse_stlc_term(cur, consts, binders)
            cur.expect(")")
            return stlc.Pair(a, b, span=t.span)
        cur.expect(")")
        return a
    name = cur.expect_kind("ident").value
    if name == "zero":
        return stlc.Zero(span=t.span)
    if name == "tt":
        return stlc.TT(span=t.span)
    if name == "ff":
        return stlc.FF(span=t.span)
    if name == "inl" or name == "inr":
        cur.expect("[")
        ty = sp.parse_stlc_type(cur)
        cur.expect("]")
        v = ref_stlc_factor(cur, consts, binders)
        return (
            stlc.Inj0(ty, v, span=t.span) if name == "inl" else stlc.Inj1(ty, v, span=t.span)
        )
    if name in _REF_STLC_OPS:
        args = [ref_stlc_factor(cur, consts, binders) for _ in range(_REF_STLC_OPS[name])]
        match name:
            case "succ":
                return stlc.Succ(args[0], span=t.span)
            case "natrec":
                return stlc.RecNat(args[0], args[1], args[2], span=t.span)
            case "cond":
                return stlc.Cond(args[0], args[1], args[2], span=t.span)
            case "cases":
                return stlc.Cases(args[0], args[1], args[2], span=t.span)
            case "fst":
                return stlc.Proj0(args[0], span=t.span)
            case "snd":
                return stlc.Proj1(args[0], span=t.span)
    for n, _ty in binders:
        if n == name:
            return stlc.Free(name, span=t.span)
    if name in consts:
        return consts[name]
    return stlc.Free(name, span=t.span)


def ref_fol_iff(cur, env, binders):
    start = cur.peek().span
    a = ref_fol_imp(cur, env, binders)
    if cur.at("<->"):
        cur.next()
        b = ref_fol_imp(cur, env, binders)
        return fol.And(fol.Implies(a, b), fol.Implies(b, a), span=start)
    return a


def ref_fol_imp(cur, env, binders):
    a = ref_fol_or(cur, env, binders)
    if cur.at("->"):
        cur.next()
        b = ref_fol_imp(cur, env, binders)
        return fol.Implies(a, b, span=a.span)
    return a


def ref_fol_or(cur, env, binders):
    a = ref_fol_and(cur, env, binders)
    if cur.at("\\/"):
        cur.next()
        b = ref_fol_or(cur, env, binders)
        return fol.Or(a, b, span=a.span)
    return a


def ref_fol_and(cur, env, binders):
    a = ref_fol_unary(cur, env, binders)
    if cur.at("/\\"):
        cur.next()
        b = ref_fol_and(cur, env, binders)
        return fol.And(a, b, span=a.span)
    return a


def ref_fol_unary(cur, env, binders):
    t = cur.peek()
    if cur.at("~"):
        cur.next()
        return fol.Implies(ref_fol_unary(cur, env, binders), fol.Bot(), span=t.span)
    if t.kind == "ident" and t.value in ("forall", "exists"):
        cur.next()
        names = [cur.expect_kind("ident").value]
        while cur.at_kind("ident") and not cur.at(":") and cur.peek().value not in (",",):
            if cur.peek().value in {"forall", "exists", "false"}:
                break
            names.append(cur.next().value)
        if cur.at(":"):
            cur.next()
            sort = env.sort_named(cur.expect_kind("ident").value, cur)
        else:
            if env.signature is not None and env.signature.only_sort is not None:
                sort = env.signature.only_sort
            else:
                cur.fail("quantifier needs a sort annotation")
        cur.expect(",")
        inner = binders
        for name in names:
            inner = ((name, sort),) + inner
        body = fp.parse_fol_formula(cur, env, inner)
        for name in reversed(names):
            body = (
                fol.Forall(sort, fp._close(body, name, sort), hint=name, span=t.span)
                if t.value == "forall"
                else fol.Exists(sort, fp._close(body, name, sort), hint=name, span=t.span)
            )
        return body
    return ref_fol_atom(cur, env, binders)


def ref_fol_atom(cur, env, binders):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = fp.parse_fol_formula(cur, env, binders)
        cur.expect(")")
        return a
    if t.kind == "ident" and t.value == "false":
        cur.next()
        return fol.Bot(span=t.span)
    term = fp.parse_fol_term(cur, env, binders)
    if cur.at("="):
        cur.next()
        rhs = fp.parse_fol_term(cur, env, binders)
        return fol.Eq(term, rhs, span=t.span)
    match term:
        case fol.App(fn=f, args=args):
            return fol.Rel(f, args, span=t.span)
        case fol.FVar(name=n):
            return fol.Rel(n, (), span=t.span)
    cur.fail("expected an atomic formula")


def ref_parse_hol_type(cur, state):
    a = ref_hol_atom_type(cur, state)
    if cur.at("->"):
        cur.next()
        return hk.fn(a, ref_parse_hol_type(cur, state))
    return a


def ref_hol_atom_type(cur, state):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = ref_parse_hol_type(cur, state)
        cur.expect(")")
        return a
    if t.kind == "tyvar":
        cur.next()
        return hk.TyVar(t.value, span=t.span)
    name = cur.expect_kind("ident").value
    args = ()
    if cur.at("["):
        cur.next()
        lst = [ref_parse_hol_type(cur, state)]
        while cur.at(","):
            cur.next()
            lst.append(ref_parse_hol_type(cur, state))
        cur.expect("]")
        args = tuple(lst)
    ty = hk.TyApp(name, args, span=t.span)
    hk.check_type(state, ty)
    return ty


# The grammar module and the old functions a reference parse puts back.
OLD_GRAMMAR = {
    "dtt": (dp, {"_dtt_expr": ref_dtt_expr, "_dtt_factor": ref_dtt_factor}),
    "stlc": (sp, {
        "parse_stlc_term": ref_parse_stlc_term, "_stlc_factor": ref_stlc_factor,
        "_stlc_atom_type": ref_stlc_atom_type,
    }),
    "fol": (fp, {"_fol_iff": ref_fol_iff, "_fol_unary": ref_fol_unary}),
    "hol-type": (hp, {"parse_hol_type": ref_parse_hol_type}),
}


# ---------------------------------------------------------------------------
# Inputs and the comparison


def anatomy(x):
    """Constructors, fields, hints and the span (or its absence) of every node."""
    if isinstance(x, tuple):
        return tuple(anatomy(y) for y in x)
    if not is_node(x) or not hasattr(x, "span"):
        return x
    return (
        type(x).__name__, x.span, getattr(x, "hint", None),
        tuple(anatomy(getattr(x, name)) for name in x._fields
              if name not in ("span", "hint")),
    )


def outcome(calculus, text, **kw):
    """What parsing text gives: the node's anatomy, or the error's class,
    message and span."""
    try:
        return anatomy(parse_expr(calculus, text, **kw))
    except FoundryError as e:
        return ("error", type(e).__name__, e.message, e.span)


def reference_outcome(calculus, text, **kw):
    module, old = OLD_GRAMMAR[calculus]
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in old.items():
            mp.setattr(module, name, fn)
        return outcome(calculus, text, **kw)


def assert_same_parse(calculus, text, **kw):
    got = outcome(calculus, text, **kw)
    assert got == reference_outcome(calculus, text, **kw), text
    return got


def mutants(text, rng, n):
    """n texts, each text with one token deleted, doubled, swapped with the
    next or preceded by a keyword or bracket."""
    words = [t.value for t in tokenize(text) if t.kind != "eof"]
    extra = ["(", ")", "[", "]", ",", "=>", "->", "0", "x", *_ALL_WORDS]
    out = []
    for _ in range(n):
        w = list(words)
        i = rng.randrange(len(w))
        k = rng.randrange(4)
        if k == 0:
            del w[i]
        elif k == 1:
            w.insert(i, w[i])
        elif k == 2 and i + 1 < len(w):
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            w.insert(i, rng.choice(extra))
        out.append(" ".join(w))
    return out


_ALL_WORDS = [
    *dtt_printer.KEYWORDS, *dtt_printer.BINDERS, *stlc_printer.KEYWORDS,
    *stlc_printer.BINDERS, *TYPE_KEYWORDS, *FOL_SURFACE,
]

DTT_LEAVES = (Nat, Empty, Unit, Bool, Zero, Star, TrueE, FalseE, PropSort)
HINTS = ("x", "y", "n", None)


def gen_dtt(rng, depth, scope=0):
    """A random DTT expression over `scope` bound variables; well scoped, not
    necessarily well typed, which printing and parsing do not need."""
    if depth <= 0 or rng.random() < 0.15:
        k = rng.randrange(5)
        if k == 0 and scope:
            return Var(rng.randrange(scope))
        if k == 1:
            return numeral(rng.randrange(3))
        if k == 2:
            return TypeSort(rng.randrange(3))
        if k == 3:
            return Axiom(rng.choice(DTT_AXIOMS))
        return rng.choice(DTT_LEAVES)()
    cls = rng.choice(list(DTT_SHAPE))
    children = [gen_dtt(rng, depth - 1, scope + d) for _, d in DTT_SHAPE[cls]]
    if cls is Sigma:
        return Sigma(*children, rng.random() < 0.5, hint=rng.choice(HINTS))
    if cls in (Pi, Lam, W):
        return cls(*children, hint=rng.choice(HINTS))
    return cls(*children)


def hand_built_dtt():
    """One node per constructor, its fields filled with distinct atoms (the
    bound variable where a field sits under a binder), both Sigma flavors,
    Type, axiom and the atoms themselves."""
    fill = [Nat(), Bool(), Unit(), Empty(), Star()]
    out = []
    for cls in DTT_SHAPE:
        children = [Var(0) if d else fill[i] for i, (_, d) in enumerate(DTT_SHAPE[cls])]
        if cls is Sigma:
            out += [Sigma(*children, False, hint="a"), Sigma(*children, True, hint="a")]
        elif cls in (Pi, Lam, W):
            out.append(cls(*children, hint="a"))
        else:
            out.append(cls(*children))
    return out + [TypeSort(2), Axiom("funext")] + [cls() for cls in DTT_LEAVES]


def hand_built_stlc():
    fill = [stlc.Zero(), stlc.TT(), stlc.FF()]
    out = []
    for cls in STLC_SHAPE:
        children = [stlc.Var(0) if d else fill[i] for i, (_, d) in enumerate(STLC_SHAPE[cls])]
        if cls is stlc.Lam:
            out.append(stlc.Lam(stlc.NatT(), *children, hint="a"))
        elif cls in (stlc.Inj0, stlc.Inj1):
            out.append(cls(stlc.BoolT(), *children))
        else:
            out.append(cls(*children))
    return out + [stlc.Zero(), stlc.TT(), stlc.FF()]


DTT_TERMS = [gen_dtt(random.Random(seed), 5) for seed in range(300)] + hand_built_dtt()

STLC_RNG = random.Random(20240601)
STLC_TERMS = [stlc.gen_term(STLC_RNG, stlc.gen_type(STLC_RNG), 6) for _ in range(300)] + hand_built_stlc()

FOL_RNG = random.Random(20240601)
FOL_FORMULAS = [gen_formula(FOL_RNG, FOL_RNG.randrange(1, 6)) for _ in range(300)]
FOL_ENV = {"signature": nd_signature()}


def flat_fol_text(rng, n):
    """n atoms joined by random connectives, with some negations, quantifiers
    and parentheses: precedence and associativity decide the tree."""
    out, depth = [], 0
    for i in range(n):
        out.append(rng.choice(["", "", "~", "forall x,", "exists y :  obj,", "("]))
        if out[-1] == "(":
            depth += 1
        out.append(rng.choice(["A", "B", "C", "P(x)", "x = y", "false"]))
        if depth and rng.random() < 0.4:
            out.append(")")
            depth -= 1
        if i + 1 < n:
            out.append(rng.choice(["/\\", "\\/", "->", "->", "<->"]))
    return " ".join(out + [")"] * depth)


def _nodes(e, shape):
    yield e
    for name, _ in shape.get(type(e), ()):
        yield from _nodes(getattr(e, name), shape)


def test_corpora_cover_every_constructor():
    assert {type(s) for e in DTT_TERMS for s in _nodes(e, DTT_SHAPE)} >= set(DTT_SHAPE) | set(DTT_LEAVES)
    assert {type(s) for t in STLC_TERMS for s in _nodes(t, STLC_SHAPE)} >= set(STLC_SHAPE)
    assert any(isinstance(e, Sigma) and e.in_prop for e in DTT_TERMS)


def test_dtt_prints_as_the_reference():
    for e in DTT_TERMS:
        assert dtt.pretty(e) == ref_dtt_pretty(e)


def test_an_arrow_chain_tests_each_codomain_once(monkeypatch):
    # A closed codomain cannot use the binder, so `_uses` answers at its
    # root instead of walking the rest of the chain: n entries, not n².
    n = 200
    chain = Nat()
    for i in range(n):
        chain = dtt.arrow(Bool() if i % 3 else Nat(), chain)
    calls = [0]
    real = dtt_printer._uses

    def counted(e, depth):
        calls[0] += 1
        return real(e, depth)

    monkeypatch.setattr(dtt_printer, "_uses", counted)
    text = dtt.pretty(chain)
    assert 0 < calls[0] <= 2 * n
    monkeypatch.undo()
    assert text == ref_dtt_pretty(chain)


def test_stlc_prints_as_the_reference():
    for t in STLC_TERMS:
        assert stlc_printer.pretty_term(t) == ref_stlc_pretty(t)
    for ty in [stlc.gen_type(random.Random(seed), 3) for seed in range(100)]:
        assert pretty_type(ty) == ref_pretty_stlc_type(ty)


def test_fol_prints_as_the_reference():
    for a in FOL_FORMULAS:
        assert fol.pretty_formula(a) == ref_fol_pretty(a)


def test_dtt_parses_as_the_reference():
    rng = random.Random(1)
    parsed = 0
    for e in DTT_TERMS:
        text = dtt.pretty(e)
        got = assert_same_parse("dtt", text)
        parsed += got[0] != "error"
        for m in mutants(text, rng, 3):
            assert_same_parse("dtt", m)
    assert parsed == len(DTT_TERMS)


def test_dtt_prefix_forms_build_what_dtt_build_built():
    for kw, (nbr, nterm) in _REF_DTT_BRACKET_OPS.items():
        args = ["Nat", "Bool", "Unit", "Empty", "star"][: nbr + nterm]
        text = f"{kw} [{args[0]}] {' '.join(args[1:])}"
        tokens = tokenize(text)
        atoms = [_REF_DTT_ATOMS_BY_NAME[t.value](span=t.span) for t in tokens[2:-1] if t.kind == "ident"]
        want = ref_dtt_build(kw, atoms[:1], atoms[1:], tokens[0].span)
        assert anatomy(parse_expr("dtt", text)) == anatomy(want)


def test_stlc_parses_as_the_reference():
    rng = random.Random(2)
    for t in STLC_TERMS:
        text = stlc_printer.pretty_term(t)
        got = assert_same_parse("stlc", text)
        assert got[0] != "error"
        for m in mutants(text, rng, 3):
            assert_same_parse("stlc", m)


def test_fol_parses_as_the_reference():
    rng = random.Random(3)
    for a in FOL_FORMULAS:
        text = fol.pretty_formula(a)
        got = assert_same_parse("fol", text, **FOL_ENV)
        assert got[0] != "error"
        for m in mutants(text, rng, 2):
            assert_same_parse("fol", m, **FOL_ENV)


def test_fol_connectives_group_as_the_reference():
    rng = random.Random(4)
    outcomes = [assert_same_parse("fol", flat_fol_text(rng, rng.randrange(1, 9)), **FOL_ENV)
                for _ in range(400)]
    assert sum(o[0] != "error" for o in outcomes) > 200


def hol_type_text(rng, depth):
    """A random HOL type text: arrows, parentheses, type variables and type
    operators with argument lists, some with the wrong number of arguments."""
    if depth <= 0:
        return rng.choice(["Prop", "Ind", "'a", "'b"])
    k = rng.randrange(4)
    if k == 0:
        return f"({hol_type_text(rng, depth - 1)})"
    if k == 1:
        return f"{hol_type_text(rng, depth - 1)} -> {hol_type_text(rng, depth - 1)}"
    args = [hol_type_text(rng, depth - 1) for _ in range(rng.choice([2, 2, 2, 1]))]
    return f"fun[{', '.join(args)}]"


def test_hol_types_parse_as_the_reference():
    rng = random.Random(5)
    for _ in range(200):
        text = hol_type_text(rng, rng.randrange(1, 5))
        assert_same_parse("hol-type", text)
        for m in mutants(text, rng, 2):
            assert_same_parse("hol-type", m)


def test_every_dtt_constructor_has_one_surface_entry():
    # App and Sum are written infix; Sigma's two flavors have a keyword each.
    kinds = [cls for cls in dtt_printer.KEYWORDS.values()] + list(dtt_printer.BINDERS.values())
    assert len(set(kinds)) == len(kinds)
    named = [k[0] if isinstance(k, tuple) else k for k in kinds]
    for cls in DTT_SHAPE:
        assert named.count(cls) == {App: 0, Sum: 0, Sigma: 2}.get(cls, 1), cls
    assert set(dtt_printer.KEYWORDS) & set(dtt_printer.BINDERS) == set()


def test_every_stlc_constructor_has_one_surface_entry():
    # App and Pair are written by juxtaposition and `(a, b)`.
    named = list(stlc_printer.KEYWORDS.values()) + list(stlc_printer.BINDERS.values())
    for cls in STLC_SHAPE:
        assert named.count(cls) == (0 if cls in (stlc.App, stlc.Pair) else 1), cls
    assert len(set(named)) == len(named)
    assert len(set(TYPE_KEYWORDS.values())) == len(TYPE_KEYWORDS)


def test_every_fol_connective_and_quantifier_has_one_surface_entry():
    named = [cls for cls, _ in FOL_SURFACE.values()]
    assert sorted(c.__name__ for c in named) == ["And", "Bot", "Exists", "Forall", "Implies", "Or"]


@pytest.mark.parametrize("calculus, text, message, col, end_col", [
    ("dtt", "pair [Nat] 0", "expected ident, got 'eof' (expected one of ['ident'])", 13, 13),
    ("dtt", "natrec Nat", "expected '[', got 'Nat' (expected one of ['['])", 8, 11),
    ("dtt", "refl [Nat 0", "expected ']', got 'eof' (expected one of [']'])", 12, 12),
    ("dtt", "Id Nat 0", "expected ident, got 'eof' (expected one of ['ident'])", 9, 9),
    ("dtt", "Type Nat", "expected int, got 'Nat' (expected one of ['int'])", 6, 9),
    ("dtt", "axiom 3", "expected ident, got '3' (expected one of ['ident'])", 7, 8),
    ("dtt", "fun (x : Nat), x", "expected '=>', got ',' (expected one of ['=>'])", 14, 15),
    ("dtt", "Pi (x : Nat) => x", "expected ',', got '=>' (expected one of [','])", 14, 16),
    ("stlc", "inl Nat", "expected '[', got 'Nat' (expected one of ['['])", 5, 8),
    ("stlc", "natrec 0 0", "expected ident, got 'eof' (expected one of ['ident'])", 11, 11),
    ("stlc", "fst", "expected ident, got 'eof' (expected one of ['ident'])", 4, 4),
    ("fol", "A /\\", "expected ident, got 'eof' (expected one of ['ident'])", 5, 5),
    ("fol", "A -> /\\ B", "expected ident, got '/\\\\' (expected one of ['ident'])", 6, 8),
    ("fol", "forall , A", "expected ident, got ',' (expected one of ['ident'])", 8, 9),
    ("fol", "A \\/ B )", "trailing input after the expression, got ')'", 8, 9),
])
def test_malformed_forms_fail_where_they_did(calculus, text, message, col, end_col):
    kw = FOL_ENV if calculus == "fol" else {}
    with pytest.raises(ParseError) as e:
        parse_expr(calculus, text, **kw)
    assert e.value.message == message
    assert (e.value.span.line, e.value.span.col, e.value.span.end_line, e.value.span.end_col) == (1, col, 1, end_col)


def test_a_polymorphic_arrow_chain_prints_in_linear_time(monkeypatch):
    """In `Pi (A : Type 0), A -> … -> A` every codomain uses A, so no
    codomain is closed. Deciding arrow or Pi for each codomain on its own,
    and shifting each non-dependent one down, entered `_uses` 2,502 and
    `shift` 2,500 times at n = 50, and 40,002 and 40,000 times at n = 200.
    One walk and no shifting make both counts linear in n."""
    entries = {}
    for n in (50, 100, 200):
        chain = Var(0)
        for _ in range(n):
            chain = dtt.arrow(Var(0), chain)
        e = Pi(TypeSort(0), chain, hint="A")
        calls = [0]
        for module, name in [(dtt_printer, "_uses"), (dtt_syntax, "shift"), (dtt_printer, "shift")]:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real):
                calls[0] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        text = dtt.pretty(e)
        monkeypatch.undo()
        assert text == ref_dtt_pretty(e) == "Pi (A : Type 0), " + " -> ".join(["A"] * (n + 1))
        entries[n] = calls[0]
    assert 0 < entries[50] <= 2 * 50
    assert entries[100] <= 2 * entries[50] + 2 and entries[200] <= 2 * entries[100] + 2


@pytest.mark.parametrize("e", [
    Pi(Nat(), Var(3)),
    Pi(Nat(), Pi(Var(5), Lam(Var(1), Pi(Bool(), Var(9)), hint="y")), hint="x"),
    Lam(Nat(), Pi(Var(0), Pi(Var(1), App(Var(2), Var(6)))), hint="f"),
    Pi(TypeSort(0), Pi(Var(0), Sigma(Var(1), Pi(Var(0), Var(4)), hint="")), hint="x"),
], ids=["arrow", "nested", "under-a-lambda", "empty-hint"])
def test_loose_indices_under_arrows_print_as_before(e):
    assert dtt.pretty(e) == ref_dtt_pretty(e)
