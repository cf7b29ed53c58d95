"""Parsers for natural-deduction trees and Hilbert proof lines.

Both proof languages are read from tables. `_ND` maps each deduction rule's
name to its node class and to the kinds of its arguments, which are the
class's fields in order; `_LINES` does the same for the Hilbert lines `hyp`,
`mp`, `all` and `ex`. An `ax` line's fillers are read by the kinds that
`hilbert.FILLERS` lists for its schema. `_READERS` reads each kind. The
formula each Hilbert line concludes is computed by the checker, in
`fol/hilbert.py`, not here.
"""

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


def _formulas(cur: Cursor, env: FolEnv) -> frozenset:
    cur.expect("{")
    extra = [parse_fol_formula(cur, env)]
    while cur.at(";"):
        cur.next()
        extra.append(parse_fol_formula(cur, env))
    cur.expect("}")
    return frozenset(extra)


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


def _sort(cur: Cursor, env: FolEnv):
    cur.expect("(")
    sort = env.sort_named(cur.expect_kind("ident").value, cur)
    cur.expect(")")
    return sort


def _line(cur: Cursor, env: FolEnv) -> int:
    return cur.integer() - 1


def _node(cur: Cursor, env: FolEnv, table: dict, what: str):
    """The node whose name comes next, built from its arguments read in order."""
    t = cur.expect_kind("ident")
    entry = table.get(t.value)
    if entry is None:
        raise ParseError(f"unknown {what} {t.value}", span=t.span)
    cls, kinds = entry
    return cls(*[_READERS[kind](cur, env) for kind in kinds])


def parse_nd(cur: Cursor, env: FolEnv) -> proof.NdDerivation:
    if cur.at("("):
        cur.next()
        d = parse_nd(cur, env)
        cur.expect(")")
        return d
    return _node(cur, env, _ND, "deduction rule")


def parse_hilbert(cur: Cursor, env: FolEnv) -> hilbert.HilbertProof:
    lines = []
    while not cur.done():
        if cur.at("ax"):
            t = cur.next()
            schema = cur.integer()
            kinds = hilbert.FILLERS.get(schema)
            if kinds is None:
                raise ParseError(f"unknown axiom schema {schema}", span=t.span)
            lines.append(hilbert.AxLine(schema, tuple(_READERS[k](cur, env) for k in kinds)))
        else:
            lines.append(_node(cur, env, _LINES, "proof line"))
        if cur.at(";"):
            cur.next()
    return hilbert.HilbertProof(tuple(lines))


_READERS = {
    "formula": _formula, "formulas": _formulas, "term": _term, "var": _var,
    "sort": _sort, "nd": parse_nd, "line": _line,
}

_ND = {
    "hyp": (proof.Hyp, ("formula",)),
    "andI": (proof.AndI, ("nd", "nd")),
    "andE1": (proof.AndE1, ("nd",)),
    "andE2": (proof.AndE2, ("nd",)),
    "orI1": (proof.OrI1, ("nd", "formula")),
    "orI2": (proof.OrI2, ("formula", "nd")),
    "orE": (proof.OrE, ("nd", "nd", "nd")),
    "impI": (proof.ImpI, ("formula", "nd")),
    "impE": (proof.ImpE, ("nd", "nd")),
    "botE": (proof.BotE, ("formula", "nd")),
    "raa": (proof.Raa, ("formula", "nd")),
    "allI": (proof.AllI, ("var", "nd")),
    "allE": (proof.AllE, ("nd", "term")),
    "exI": (proof.ExI, ("formula", "term", "nd")),
    "exE": (proof.ExE, ("nd", "var", "nd")),
    "eqRefl": (proof.EqRefl, ("term",)),
    "eqTerm": (proof.EqSubstTerm, ("nd", "term", "var")),
    "eqForm": (proof.EqSubstForm, ("nd", "nd", "formula", "var")),
    "weaken": (proof.Weaken, ("formulas", "nd")),
}

_LINES = {
    "hyp": (hilbert.HypLine, ("formula",)),
    "mp": (hilbert.MpLine, ("line", "line")),
    "all": (hilbert.AllLine, ("line", "var")),
    "ex": (hilbert.ExLine, ("line", "var")),
}
