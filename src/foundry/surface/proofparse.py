"""Parsers for natural-deduction trees and Hilbert proof lines."""

from __future__ import annotations

from .. import fol
from ..errors import ParseError
from .lexer import Cursor
from .fol_parser import FolEnv, parse_fol_formula, parse_fol_term


def _formula(cur: Cursor, env: FolEnv):
    cur.expect("{")
    a = parse_fol_formula(cur, env)
    cur.expect("}")
    return a


def _term(cur: Cursor, env: FolEnv):
    cur.expect("{")
    t = parse_fol_term(cur, env)
    cur.expect("}")
    return t


def _var(cur: Cursor, env: FolEnv) -> fol.FVar:
    cur.expect("(")
    name = cur.expect_kind("ident").value
    if cur.at(":"):
        cur.next()
        sort = env.sort_named(cur.expect_kind("ident").value, cur)
    else:
        sort = env.default_sort(cur, name)
    cur.expect(")")
    return fol.FVar(name, sort)


def parse_nd(cur: Cursor, env: FolEnv) -> fol.NdDerivation:
    if cur.at("("):
        cur.next()
        d = parse_nd(cur, env)
        cur.expect(")")
        return d
    t = cur.expect_kind("ident")
    rule = t.value
    match rule:
        case "hyp":
            return fol.Hyp(_formula(cur, env))
        case "andI":
            return fol.AndI(parse_nd(cur, env), parse_nd(cur, env))
        case "andE1":
            return fol.AndE1(parse_nd(cur, env))
        case "andE2":
            return fol.AndE2(parse_nd(cur, env))
        case "orI1":
            return fol.OrI1(parse_nd(cur, env), _formula(cur, env))
        case "orI2":
            return fol.OrI2(_formula(cur, env), parse_nd(cur, env))
        case "orE":
            return fol.OrE(parse_nd(cur, env), parse_nd(cur, env), parse_nd(cur, env))
        case "impI":
            return fol.ImpI(_formula(cur, env), parse_nd(cur, env))
        case "impE":
            return fol.ImpE(parse_nd(cur, env), parse_nd(cur, env))
        case "botE":
            return fol.BotE(_formula(cur, env), parse_nd(cur, env))
        case "raa":
            return fol.Raa(_formula(cur, env), parse_nd(cur, env))
        case "allI":
            return fol.AllI(_var(cur, env), parse_nd(cur, env))
        case "allE":
            return fol.AllE(parse_nd(cur, env), _term(cur, env))
        case "exI":
            target = _formula(cur, env)
            witness = _term(cur, env)
            return fol.ExI(target, witness, parse_nd(cur, env))
        case "exE":
            major = parse_nd(cur, env)
            var = _var(cur, env)
            return fol.ExE(major, var, parse_nd(cur, env))
        case "eqRefl":
            return fol.EqRefl(_term(cur, env))
        case "eqTerm":
            p = parse_nd(cur, env)
            tmpl = _term(cur, env)
            return fol.EqSubstTerm(p, tmpl, _var(cur, env))
        case "eqForm":
            p = parse_nd(cur, env)
            q = parse_nd(cur, env)
            tmpl = _formula(cur, env)
            return fol.EqSubstForm(p, q, tmpl, _var(cur, env))
        case "weaken":
            cur.expect("{")
            extra = [parse_fol_formula(cur, env)]
            while cur.at(";"):
                cur.next()
                extra.append(parse_fol_formula(cur, env))
            cur.expect("}")
            return fol.Weaken(frozenset(extra), parse_nd(cur, env))
    raise ParseError(f"unknown deduction rule {rule}", span=t.span)


def parse_hilbert(cur: Cursor, env: FolEnv) -> fol.HilbertProof:
    lines = []
    while not cur.done():
        t = cur.expect_kind("ident")
        match t.value:
            case "ax":
                schema = int(cur.expect_kind("int").value)
                payload = _ax_payload(cur, env, schema, t)
                lines.append(fol.AxLine(schema, payload))
            case "hyp":
                lines.append(fol.HypLine(_formula(cur, env)))
            case "mp":
                i = int(cur.expect_kind("int").value) - 1
                j = int(cur.expect_kind("int").value) - 1
                lines.append(fol.MpLine(i, j))
            case "all":
                i = int(cur.expect_kind("int").value) - 1
                lines.append(fol.AllLine(i, _var(cur, env)))
            case "ex":
                i = int(cur.expect_kind("int").value) - 1
                lines.append(fol.ExLine(i, _var(cur, env)))
            case _:
                raise ParseError(f"unknown proof line {t.value}", span=t.span)
        if cur.at(";"):
            cur.next()
    return fol.HilbertProof(tuple(lines))


def _ax_payload(cur: Cursor, env: FolEnv, schema: int, t) -> tuple:
    if schema in (1, 3, 4, 5, 6, 7):
        return (_formula(cur, env), _formula(cur, env))
    if schema in (2, 8):
        return (_formula(cur, env), _formula(cur, env), _formula(cur, env))
    if schema == 9:
        return (_formula(cur, env),)
    if schema in (10, 11):
        return (_formula(cur, env), _term(cur, env))
    if schema == 12:
        cur.expect("(")
        sort = env.sort_named(cur.expect_kind("ident").value, cur)
        cur.expect(")")
        return (sort,)
    if schema == 13:
        return (_term(cur, env), _var(cur, env))
    if schema == 14:
        return (_formula(cur, env), _var(cur, env))
    raise ParseError(f"unknown axiom schema {schema}", span=t.span)
