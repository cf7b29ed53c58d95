"""Recursive-descent parser for sorted first-order formulas and terms.

Every keyword and connective is spelled once, in the table
`fol.syntax.SURFACE` that this parser and `pretty_formula` share; the
connectives are read by one right-associative loop over its precedences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import fol
from ..fol.syntax import SURFACE, _close as close_impl
from .lexer import Cursor


@dataclass
class FolEnv:
    """What the FOL parser knows: the signature and the sorts of named variables."""

    signature: fol.Signature | None = None
    var_sorts: dict | None = None  # name -> Sort

    def sort_named(self, name: str, cur: Cursor) -> fol.Sort:
        s = fol.Sort(name)
        if self.signature is not None and s not in self.signature.sorts:
            cur.fail(f"unknown sort {name}")
        return s

    def default_sort(self, cur: Cursor, name: str) -> fol.Sort:
        if self.var_sorts and name in self.var_sorts:
            return self.var_sorts[name]
        if self.signature is not None and self.signature.only_sort is not None:
            return self.signature.only_sort
        cur.fail(f"cannot determine the sort of variable {name}")

    def is_constant(self, name: str) -> bool:
        return (
            self.signature is not None
            and name in self.signature.functions
            and self.signature.functions[name][0] == ()
        )


def parse_fol_formula(cur: Cursor, env: FolEnv, binders=()) -> fol.Formula:
    return _fol_iff(cur, env, binders)


def _fol_iff(cur, env, binders):
    start = cur.peek().span
    a = _fol_binary(cur, env, binders, 0)
    if cur.at("<->"):
        cur.next()
        b = _fol_binary(cur, env, binders, 0)
        return fol.And(fol.Implies(a, b), fol.Implies(b, a), span=start)
    return a


def _fol_binary(cur, env, binders, floor):
    """A formula joined by connectives of precedence floor or more; a
    connective's right operand is read at its own precedence, so each level
    associates to the right."""
    a = _fol_unary(cur, env, binders)
    while True:
        t = cur.peek()
        if t.kind != "symbol" or t.value not in SURFACE:
            return a
        cls, prec = SURFACE[t.value]
        if prec < floor:
            return a
        cur.next()
        a = cls(a, _fol_binary(cur, env, binders, prec), span=a.span)


def _fol_unary(cur, env, binders):
    t = cur.peek()
    if cur.at("~"):
        cur.next()
        return fol.Implies(_fol_unary(cur, env, binders), fol.Bot(), span=t.span)
    if t.kind == "ident" and t.value in SURFACE:
        cls = SURFACE[t.value][0]
        cur.next()
        if cls is fol.Bot:
            return fol.Bot(span=t.span)
        names = [cur.expect_kind("ident").value]
        while cur.at_kind("ident") and not cur.at(":") and cur.peek().value not in (",",):
            if cur.peek().value in SURFACE:
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
        body = parse_fol_formula(cur, env, inner)
        for name in reversed(names):
            body = cls(sort, _close(body, name, sort), hint=name, span=t.span)
        return body
    return _fol_atom(cur, env, binders)


def _close(a, name, sort):
    return close_impl(a, 0, fol.FVar(name, sort))


def _fol_atom(cur, env, binders):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = parse_fol_formula(cur, env, binders)
        cur.expect(")")
        return a
    term = parse_fol_term(cur, env, binders)
    if cur.at("="):
        cur.next()
        rhs = parse_fol_term(cur, env, binders)
        return fol.Eq(term, rhs, span=t.span)
    # reinterpret the term as a relational atom
    match term:
        case fol.App(fn=f, args=args):
            return fol.Rel(f, args, span=t.span)
        case fol.FVar(name=n):
            return fol.Rel(n, (), span=t.span)
    cur.fail("expected an atomic formula")


def parse_fol_term(cur: Cursor, env: FolEnv, binders=()) -> fol.Term:
    t = cur.expect_kind("ident")
    name = t.value
    if cur.at("("):
        cur.next()
        args = []
        if not cur.at(")"):
            args.append(parse_fol_term(cur, env, binders))
            while cur.at(","):
                cur.next()
                args.append(parse_fol_term(cur, env, binders))
        cur.expect(")")
        return fol.App(name, tuple(args), span=t.span)
    for name2, sort in binders:
        if name2 == name:
            # parsed against the binder stack: keep as a tagged free variable,
            # closed by the quantifier constructor above
            return fol.FVar(name, sort, span=t.span)
    if env.is_constant(name):
        return fol.App(name, (), span=t.span)
    return fol.FVar(name, env.default_sort(cur, name), span=t.span)
