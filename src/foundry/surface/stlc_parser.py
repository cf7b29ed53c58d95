"""Recursive-descent parser for simply typed lambda terms and their types.

Every keyword is spelled once, in the tables this parser shares with the
printers: `stlc.printer.KEYWORDS` and `BINDERS` for terms and
`stlc.typing.TYPE_KEYWORDS` for types; a prefix form's arguments are its
constructor's `stlc.syntax._SHAPE` fields, in order. A bound name is read as
its de Bruijn index against the stack of the names the binders around it
bind, innermost first.
"""

from __future__ import annotations

from ..stlc.printer import ANNOTATED, BINDERS, KEYWORDS
from ..stlc.syntax import (
    _SHAPE, App, Arrow, Base, Free, Pair, Prod, SimpleType, SumT, Term, Var, numeral,
)
from ..stlc.typing import TYPE_KEYWORDS
from .lexer import MAX_NUMERAL, Cursor


def parse_stlc_type(cur: Cursor) -> SimpleType:
    a = _stlc_sum_type(cur)
    if cur.at("->"):
        cur.next()
        return Arrow(a, parse_stlc_type(cur), span=a.span)
    return a


def _stlc_sum_type(cur):
    a = _stlc_prod_type(cur)
    while cur.at("+"):
        cur.next()
        a = SumT(a, _stlc_prod_type(cur), span=a.span)
    return a


def _stlc_prod_type(cur):
    a = _stlc_atom_type(cur)
    while cur.at("*"):
        cur.next()
        a = Prod(a, _stlc_atom_type(cur), span=a.span)
    return a


def _stlc_atom_type(cur):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = parse_stlc_type(cur)
        cur.expect(")")
        return a
    name = cur.expect_kind("ident").value
    if name in TYPE_KEYWORDS:
        return TYPE_KEYWORDS[name](span=t.span)
    return Base(name, span=t.span)


def parse_stlc_term(cur: Cursor, consts: dict | None = None, binders=()) -> Term:
    consts = consts or {}
    t = cur.peek()
    if t.kind == "ident" and t.value in BINDERS:
        binder = BINDERS[t.value]
        cur.next()
        groups = cur.binder_groups(lambda _bound: parse_stlc_type(cur))
        cur.expect("=>")
        body = parse_stlc_term(cur, consts, tuple(n for n, _, _ in reversed(groups)) + binders)
        for n, ty, _ in reversed(groups):
            body = binder(ty, body, hint=n, span=t.span)
        return body
    return _stlc_app(cur, consts, binders)


def _stlc_app(cur, consts, binders):
    factors = [_stlc_factor(cur, consts, binders)]
    while _stlc_starts_factor(cur):
        factors.append(_stlc_factor(cur, consts, binders))
    term = factors[0]
    for f in factors[1:]:
        term = App(term, f, span=term.span)
    return term


def _stlc_starts_factor(cur):
    return cur.peek().kind in ("int", "ident") or cur.at("(")


def _stlc_factor(cur, consts, binders):
    t = cur.peek()
    if t.kind == "int":
        return numeral(cur.integer(MAX_NUMERAL))
    if cur.at("("):
        cur.next()
        a = parse_stlc_term(cur, consts, binders)
        if cur.at(","):
            cur.next()
            b = parse_stlc_term(cur, consts, binders)
            cur.expect(")")
            return Pair(a, b, span=t.span)
        cur.expect(")")
        return a
    name = cur.expect_kind("ident").value
    if name in KEYWORDS:
        cls = KEYWORDS[name]
        args = []
        if cls in ANNOTATED:
            cur.expect("[")
            args.append(parse_stlc_type(cur))
            cur.expect("]")
        for _ in _SHAPE.get(cls, ()):
            args.append(_stlc_factor(cur, consts, binders))
        return cls(*args, span=t.span)
    if name in binders:
        return Var(binders.index(name), span=t.span)
    if name in consts:
        return consts[name]  # a constant or a macro expansion
    return Free(name, span=t.span)
