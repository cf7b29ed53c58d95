"""Recursive-descent parser for dependent type theory expressions, read
into de Bruijn indices.

Every keyword is spelled once, in the tables `dtt.printer.KEYWORDS` and
`BINDERS` that this parser and the printer share; a prefix form's arguments
are its constructor's `dtt.syntax._SHAPE` fields, in order.
"""

from __future__ import annotations

from .. import dtt
from ..dtt.printer import BINDERS, KEYWORDS, UNBRACKETED
from ..dtt.syntax import _SHAPE
from .lexer import Cursor


def parse_dtt_expr(cur: Cursor, defs: dict | None = None, binders=()) -> dtt.Expr:
    return _dtt_expr(cur, defs or {}, binders)


def _dtt_expr(cur, defs, binders):
    t = cur.peek()
    if t.kind == "ident" and t.value in BINDERS:
        cls, in_prop = BINDERS[t.value]
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
        cur.expect("=>" if cls is dtt.Lam else ",")
        body = _dtt_expr(cur, defs, _extend_names(binders, [g[0] for g in groups]))
        flags = (in_prop,) if cls is dtt.Sigma else ()
        for i, (n, ty, depth) in reversed(list(enumerate(groups))):
            if i != depth:
                ty = dtt.shift(ty, i - depth)
            body = cls(ty, body, *flags, hint=n, span=t.span)
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
        return dtt.numeral(cur.numeral())
    if cur.at("("):
        cur.next()
        e = _dtt_expr(cur, defs, binders)
        cur.expect(")")
        return e
    name = cur.expect_kind("ident").value
    if name in KEYWORDS:
        cls = KEYWORDS[name]
        if cls is dtt.TypeSort:
            return dtt.TypeSort(int(cur.expect_kind("int").value), span=t.span)
        if cls is dtt.Axiom:
            return dtt.Axiom(cur.expect_kind("ident").value, span=t.span)
        shape = _SHAPE.get(cls, ())
        args = []
        if shape and cls not in UNBRACKETED:
            cur.expect("[")
            args.append(_dtt_expr(cur, defs, binders))
            cur.expect("]")
        for _ in range(len(shape) - len(args)):
            args.append(_dtt_factor(cur, defs, binders))
        return cls(*args, span=t.span)
    for i, (n, *_rest) in enumerate(binders):
        if n == name:
            return dtt.Var(i, span=t.span)
    if name in defs:
        return defs[name]
    cur.fail(f"unknown name {name}")

