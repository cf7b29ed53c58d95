"""Recursive-descent parser for dependent type theory expressions, read
into de Bruijn indices."""

from __future__ import annotations

from .. import dtt
from ..errors import ParseError
from .lexer import Cursor


_DTT_ATOMS = {
    "Nat": dtt.Nat, "Empty": dtt.Empty, "Unit": dtt.Unit, "Bool": dtt.Bool,
    "zero": dtt.Zero, "star": dtt.Star, "true": dtt.TrueE, "false": dtt.FalseE,
}

_DTT_BRACKET_OPS = {
    # name: (number of bracket args, number of term args)
    "pair": (1, 2),
    "sigmacases": (1, 2),
    "refl": (1, 1),
    "idcases": (1, 4),
    "natrec": (1, 3),
    "emptycases": (1, 1),
    "boolcases": (1, 3),
    "inl": (1, 1),
    "inr": (1, 1),
    "sumcases": (1, 3),
    "sup": (1, 2),
    "wrec": (1, 2),
}


def parse_dtt_expr(cur: Cursor, defs: dict | None = None, binders=()) -> dtt.Expr:
    return _dtt_expr(cur, defs or {}, binders)


def _dtt_expr(cur, defs, binders):
    t = cur.peek()
    if t.kind == "ident" and t.value in ("fun", "Pi", "Sigma", "exists", "W"):
        kw = t.value
        cur.next()
        groups = []  # (name, type, binder depth at which the type was parsed)
        while cur.at("("):
            cur.next()
            names = [cur.expect_kind("ident").value]
            while cur.at_kind("ident"):
                names.append(cur.next().value)
            cur.expect(":")
            depth = len(groups)
            ty = _dtt_expr(cur, defs, _extend_names(binders, [g[0] for g in groups]))
            cur.expect(")")
            groups.extend((n, ty, depth) for n in names)
        cur.expect("=>" if kw == "fun" else ",")
        body = _dtt_expr(cur, defs, _extend_names(binders, [g[0] for g in groups]))
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
    return _dtt_arrow(cur, defs, binders)


def _extend_names(binders, names):
    inner = binders
    for n in names:
        inner = ((n,),) + inner
    return inner


def _dtt_arrow(cur, defs, binders):
    a = _dtt_sum(cur, defs, binders)
    if cur.at("->"):
        cur.next()
        # non-dependent arrow: parse the codomain under a dummy binder
        b = _dtt_expr(cur, defs, _extend_names(binders, ["_"]))
        return dtt.Pi(a, b, hint="_", span=a.span)
    return a


def _dtt_sum(cur, defs, binders):
    a = _dtt_app(cur, defs, binders)
    if cur.at("+"):
        cur.next()
        b = _dtt_sum(cur, defs, binders)
        return dtt.Sum(a, b, span=a.span)
    return a


def _dtt_app(cur, defs, binders):
    head = _dtt_factor(cur, defs, binders)
    while _dtt_starts_factor(cur):
        arg = _dtt_factor(cur, defs, binders)
        head = dtt.App(head, arg, span=head.span)
    return head


def _dtt_starts_factor(cur):
    t = cur.peek()
    return t.kind in ("ident", "int") or cur.at("(")


def _dtt_factor(cur, defs, binders):
    t = cur.peek()
    if t.kind == "int":
        cur.next()
        return dtt.numeral(int(t.value))
    if cur.at("("):
        cur.next()
        e = _dtt_expr(cur, defs, binders)
        cur.expect(")")
        return e
    name = cur.expect_kind("ident").value
    if name == "Type":
        lvl = cur.expect_kind("int")
        return dtt.TypeSort(int(lvl.value), span=t.span)
    if name == "Prop":
        return dtt.PropSort(span=t.span)
    if name == "succ":
        return dtt.Succ(_dtt_factor(cur, defs, binders), span=t.span)
    if name == "Id":
        a = _dtt_factor(cur, defs, binders)
        b = _dtt_factor(cur, defs, binders)
        c = _dtt_factor(cur, defs, binders)
        return dtt.Id(a, b, c, span=t.span)
    if name == "axiom":
        ax = cur.expect_kind("ident").value
        return dtt.Axiom(ax, span=t.span)
    if name in _DTT_ATOMS:
        return _DTT_ATOMS[name](span=t.span)
    if name in _DTT_BRACKET_OPS:
        nbr, nterm = _DTT_BRACKET_OPS[name]
        brackets = []
        for _ in range(nbr):
            cur.expect("[")
            brackets.append(_dtt_expr(cur, defs, binders))
            cur.expect("]")
        args = [_dtt_factor(cur, defs, binders) for _ in range(nterm)]
        return _dtt_build(name, brackets, args, t.span)
    for i, (n, *_rest) in enumerate(binders):
        if n == name:
            return dtt.Var(i, span=t.span)
    if name in defs:
        return defs[name]
    cur.fail(f"unknown name {name}")


def _dtt_build(name, brackets, args, span):
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
