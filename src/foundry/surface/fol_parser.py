"""Recursive-descent parser for sorted first-order formulas and terms.

Every keyword and connective is spelled once, in the table
`fol.syntax.SURFACE` that this parser and `pretty_formula` share; the
connectives are read by one right-associative loop over its precedences.
A bound name is read as its de Bruijn index against the stack of the names
the quantifiers around it bind, innermost first.
"""

from __future__ import annotations

from ..fol.syntax import (
    SURFACE, And, App, Bot, BVar, Eq, Formula, FVar, Implies, Rel, Signature, Sort, Term,
)
from ..span import node
from .lexer import Cursor


@node
class FolEnv:
    """What the FOL parser knows: the signature and the sorts of named variables."""

    signature: Signature | None = None
    var_sorts: dict | None = None  # name -> Sort

    def sort_named(self, name: str, cur: Cursor) -> Sort:
        s = Sort(name)
        if self.signature is not None and s not in self.signature.sorts:
            cur.fail(f"unknown sort {name}")
        return s

    def default_sort(self, cur: Cursor, name: str) -> Sort:
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

    def is_proposition(self, name: str) -> bool:
        return self.signature is not None and self.signature.relations.get(name) == ()


def parse_fol_expr(cur: Cursor, signature: Signature | None = None, var_sorts: dict | None = None) -> Formula:
    """A formula read against a signature and the sorts of named variables."""
    return parse_fol_formula(cur, FolEnv(signature, var_sorts))


def parse_fol_formula(cur: Cursor, env: FolEnv, binders=()) -> Formula:
    return _fol_iff(cur, env, binders)


def _fol_iff(cur, env, binders):
    start = cur.peek().span
    a = _fol_binary(cur, env, binders, 0)
    if cur.at("<->"):
        cur.next()
        b = _fol_binary(cur, env, binders, 0)
        return And(Implies(a, b), Implies(b, a), span=start)
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
        return Implies(_fol_unary(cur, env, binders), Bot(), span=t.span)
    if t.kind == "ident" and t.value in SURFACE:
        cls = SURFACE[t.value][0]
        cur.next()
        if cls is Bot:
            return Bot(span=t.span)
        names = [cur.expect_kind("ident").value]
        while cur.at_kind("ident") and cur.peek().value not in SURFACE:
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
        body = parse_fol_formula(cur, env, tuple(reversed(names)) + binders)
        for name in reversed(names):
            body = cls(sort, body, hint=name, span=t.span)
        return body
    return _fol_atom(cur, env, binders)


def _fol_atom(cur, env, binders):
    t = cur.peek()
    if cur.at("("):
        cur.next()
        a = parse_fol_formula(cur, env, binders)
        cur.expect(")")
        return a
    # a name no quantifier binds and the signature declares a nullary
    # relation is that atom, unless `(` or `=` makes it a term: read as a
    # term it is a variable, whose sort only a one-sort signature gives
    if t.kind == "ident" and t.value not in binders and env.is_proposition(t.value):
        after = cur.tokens[cur.pos + 1]
        if not (after.kind == "symbol" and after.value in ("(", "=")):
            cur.next()
            return Rel(t.value, (), span=t.span)
    term = parse_fol_term(cur, env, binders)
    if cur.at("="):
        cur.next()
        rhs = parse_fol_term(cur, env, binders)
        return Eq(term, rhs, span=t.span)
    # reinterpret the term as a relational atom; a lone name, bound or not,
    # is a propositional atom
    match term:
        case App(fn=f, args=args):
            return Rel(f, args, span=t.span)
        case FVar() | BVar():
            return Rel(t.value, (), span=t.span)
    cur.fail("expected an atomic formula")


def parse_fol_term(cur: Cursor, env: FolEnv, binders=()) -> Term:
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
        return App(name, tuple(args), span=t.span)
    if name in binders:
        return BVar(binders.index(name), span=t.span)
    if env.is_constant(name):
        return App(name, (), span=t.span)
    return FVar(name, env.default_sort(cur, name), span=t.span)
