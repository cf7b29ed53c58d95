"""Parsers for natural-deduction trees and Hilbert proof lines."""

from __future__ import annotations

from ..errors import ParseError
from ..fol import hilbert, proof
from ..fol.syntax import FVar
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


def _var(cur: Cursor, env: FolEnv) -> FVar:
    cur.expect("(")
    name = cur.expect_kind("ident").value
    if cur.at(":"):
        cur.next()
        sort = env.sort_named(cur.expect_kind("ident").value, cur)
    else:
        sort = env.default_sort(cur, name)
    cur.expect(")")
    return FVar(name, sort)


def parse_nd(cur: Cursor, env: FolEnv) -> proof.NdDerivation:
    if cur.at("("):
        cur.next()
        d = parse_nd(cur, env)
        cur.expect(")")
        return d
    t = cur.expect_kind("ident")
    rule = t.value
    match rule:
        case "hyp":
            return proof.Hyp(_formula(cur, env))
        case "andI":
            return proof.AndI(parse_nd(cur, env), parse_nd(cur, env))
        case "andE1":
            return proof.AndE1(parse_nd(cur, env))
        case "andE2":
            return proof.AndE2(parse_nd(cur, env))
        case "orI1":
            return proof.OrI1(parse_nd(cur, env), _formula(cur, env))
        case "orI2":
            return proof.OrI2(_formula(cur, env), parse_nd(cur, env))
        case "orE":
            return proof.OrE(parse_nd(cur, env), parse_nd(cur, env), parse_nd(cur, env))
        case "impI":
            return proof.ImpI(_formula(cur, env), parse_nd(cur, env))
        case "impE":
            return proof.ImpE(parse_nd(cur, env), parse_nd(cur, env))
        case "botE":
            return proof.BotE(_formula(cur, env), parse_nd(cur, env))
        case "raa":
            return proof.Raa(_formula(cur, env), parse_nd(cur, env))
        case "allI":
            return proof.AllI(_var(cur, env), parse_nd(cur, env))
        case "allE":
            return proof.AllE(parse_nd(cur, env), _term(cur, env))
        case "exI":
            target = _formula(cur, env)
            witness = _term(cur, env)
            return proof.ExI(target, witness, parse_nd(cur, env))
        case "exE":
            major = parse_nd(cur, env)
            var = _var(cur, env)
            return proof.ExE(major, var, parse_nd(cur, env))
        case "eqRefl":
            return proof.EqRefl(_term(cur, env))
        case "eqTerm":
            p = parse_nd(cur, env)
            tmpl = _term(cur, env)
            return proof.EqSubstTerm(p, tmpl, _var(cur, env))
        case "eqForm":
            p = parse_nd(cur, env)
            q = parse_nd(cur, env)
            tmpl = _formula(cur, env)
            return proof.EqSubstForm(p, q, tmpl, _var(cur, env))
        case "weaken":
            cur.expect("{")
            extra = [parse_fol_formula(cur, env)]
            while cur.at(";"):
                cur.next()
                extra.append(parse_fol_formula(cur, env))
            cur.expect("}")
            return proof.Weaken(frozenset(extra), parse_nd(cur, env))
    raise ParseError(f"unknown deduction rule {rule}", span=t.span)


def parse_hilbert(cur: Cursor, env: FolEnv) -> hilbert.HilbertProof:
    lines = []
    while not cur.done():
        t = cur.expect_kind("ident")
        match t.value:
            case "ax":
                schema = int(cur.expect_kind("int").value)
                payload = _ax_payload(cur, env, schema, t)
                lines.append(hilbert.AxLine(schema, payload))
            case "hyp":
                lines.append(hilbert.HypLine(_formula(cur, env)))
            case "mp":
                i = int(cur.expect_kind("int").value) - 1
                j = int(cur.expect_kind("int").value) - 1
                lines.append(hilbert.MpLine(i, j))
            case "all":
                i = int(cur.expect_kind("int").value) - 1
                lines.append(hilbert.AllLine(i, _var(cur, env)))
            case "ex":
                i = int(cur.expect_kind("int").value) - 1
                lines.append(hilbert.ExLine(i, _var(cur, env)))
            case _:
                raise ParseError(f"unknown proof line {t.value}", span=t.span)
        if cur.at(";"):
            cur.next()
    return hilbert.HilbertProof(tuple(lines))


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
