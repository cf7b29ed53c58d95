"""Hilbert-style proofs: the fourteen axiom schemas and three rules, and
their checker.

A proof is an ordered list of lines; references point backward only. Axiom
lines carry the schema index plus the fillers needed to rebuild the instance,
so the checker constructs each line's formula rather than trusting a claim.

`FILLERS` lists the kinds of each schema's fillers; `hilbert_axiom` and the
proof-line parser in `surface/proofparse.py` both read a schema's arity from
it. `_conclude` computes the formula of one line from the formulas of the
lines before it, and is the only code that does: `_evaluate` runs it over a
proof for `check_hilbert` and for the untrusted transforms in `transforms.py`
(`hilbert_to_nd`, `deduction_transform`), whose `_Builder` also runs it on
each line it emits.
"""

from __future__ import annotations

from typing import Union

from ..errors import ProofError
from ..span import node
from .proof import CertifiedSequent, Sequent, _certify
from .syntax import (
    And,
    Bot,
    Eq,
    Exists,
    Formula,
    Forall,
    FVar,
    Implies,
    Or,
    alpha_equal,
    check_well_formed,
    exists,
    forall,
    free_vars,
    fresh_name,
    neg,
    open_binder,
    pretty_formula,
    subst_in_term,
    substitute,
    term_free_vars,
)


@node
class AxLine:
    """A Hilbert line instantiating an axiom schema with its fillers."""

    schema: int
    payload: tuple


@node
class HypLine:
    """A Hilbert line citing a hypothesis."""

    formula: Formula


@node
class MpLine:
    """A Hilbert line by modus ponens from two earlier lines."""

    implication: int
    antecedent: int


@node
class AllLine:
    """A Hilbert line generalizing an earlier line over a variable."""

    ref: int
    var: FVar


@node
class ExLine:
    """A Hilbert line bounding an earlier line's variable existentially in its antecedent."""

    ref: int
    var: FVar


Line = Union[AxLine, HypLine, MpLine, AllLine, ExLine]


@node
class HilbertProof:
    """A Hilbert proof: a list of lines, each citing only earlier ones."""

    lines: tuple


# The kinds of each schema's fillers, in order: a formula `{A}`, a term
# `{t}`, a variable `(x : s)` or a sort `(s)`.
FILLERS = {
    1: ("formula", "formula"),
    2: ("formula", "formula", "formula"),
    3: ("formula", "formula"),
    4: ("formula", "formula"),
    5: ("formula", "formula"),
    6: ("formula", "formula"),
    7: ("formula", "formula"),
    8: ("formula", "formula", "formula"),
    9: ("formula",),
    10: ("formula", "term"),
    11: ("formula", "term"),
    12: ("sort",),
    13: ("term", "var"),
    14: ("formula", "var"),
}


def _eq_vars(taken: set, z: FVar) -> tuple[FVar, FVar]:
    """The x and y of schemas 13 and 14: fresh for the names taken and z's,
    of z's sort."""
    taken = taken | {z.name}
    xn = fresh_name("x", taken)
    yn = fresh_name("y", taken | {xn})
    return FVar(xn, z.sort), FVar(yn, z.sort)


def hilbert_axiom(mode: str, schema: int, payload: tuple) -> Formula:
    """Construct the instance of schema 1..14; in classical mode schema 9 is
    double-negation elimination instead of ex falso."""
    kinds = FILLERS.get(schema)
    if kinds is None:
        raise ProofError(f"unknown axiom schema {schema}")
    if len(payload) != len(kinds):
        raise ProofError(f"schema {schema} takes {len(kinds)} filler(s), got {len(payload)}")
    match schema:
        case 1:
            a, b = payload
            return Implies(a, Implies(b, a))
        case 2:
            a, b, c = payload
            return Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c)))
        case 3:
            a, b = payload
            return Implies(a, Implies(b, And(a, b)))
        case 4:
            a, b = payload
            return Implies(And(a, b), a)
        case 5:
            a, b = payload
            return Implies(And(a, b), b)
        case 6:
            a, b = payload
            return Implies(a, Or(a, b))
        case 7:
            a, b = payload
            return Implies(b, Or(a, b))
        case 8:
            a, b, c = payload
            return Implies(Implies(a, c), Implies(Implies(b, c), Implies(Or(a, b), c)))
        case 9:
            (a,) = payload
            if mode == "classical":
                return Implies(neg(neg(a)), a)
            return Implies(Bot(), a)
        case 10:
            quantified, t = payload
            if not isinstance(quantified, Forall):
                raise ProofError("schema 10 needs a universally quantified formula")
            return Implies(quantified, open_binder(quantified, t))
        case 11:
            quantified, t = payload
            if not isinstance(quantified, Exists):
                raise ProofError("schema 11 needs an existentially quantified formula")
            return Implies(open_binder(quantified, t), quantified)
        case 12:
            (sort,) = payload
            x = FVar("x", sort)
            return forall(x, Eq(x, x))
        case 13:
            t, z = payload
            x, y = _eq_vars({v.name for v in term_free_vars(t)}, z)
            body = Implies(Eq(x, y), Eq(subst_in_term(t, z, x), subst_in_term(t, z, y)))
            return forall(x, forall(y, body))
        case 14:
            a, z = payload
            x, y = _eq_vars({v.name for v in free_vars(a)}, z)
            body = Implies(Eq(x, y), Implies(substitute(a, z, x), substitute(a, z, y)))
            return forall(x, forall(y, body))


def _cited(formulas: list, i: int, n: int) -> Formula:
    if not (0 <= i < n):
        raise ProofError(f"line {n + 1}: reference {i + 1} does not point backward")
    return formulas[i]


def _conclude(mode: str, line: Line, n: int, formulas: list) -> Formula:
    """The formula that line n concludes, given the formulas of lines 0..n-1."""
    match line:
        case AxLine(schema=s, payload=payload):
            return hilbert_axiom(mode, s, payload)
        case HypLine(formula=g):
            if free_vars(g):
                raise ProofError(
                    f"line {n + 1}: hypotheses must be sentences "
                    f"(the quantifier rules generalize free variables)"
                )
            return g
        case MpLine(implication=i, antecedent=j):
            fi, fj = _cited(formulas, i, n), _cited(formulas, j, n)
            if not isinstance(fi, Implies):
                raise ProofError(f"line {n + 1}: modus ponens on non-implication")
            if not alpha_equal(fi.left, fj):
                raise ProofError(
                    f"line {n + 1}: modus ponens shape mismatch: "
                    f"{pretty_formula(fj)} vs antecedent {pretty_formula(fi.left)}"
                )
            return fi.right
        case AllLine(ref=i, var=x) | ExLine(ref=i, var=x):
            fi = _cited(formulas, i, n)
            if not isinstance(fi, Implies):
                raise ProofError(f"line {n + 1}: quantifier rule needs an implication")
            if isinstance(line, AllLine):
                if x in free_vars(fi.left):
                    raise ProofError(f"line {n + 1}: {x.name} is free in the antecedent")
                return Implies(fi.left, forall(x, fi.right))
            if x in free_vars(fi.right):
                raise ProofError(f"line {n + 1}: {x.name} is free in the consequent")
            return Implies(exists(x, fi.left), fi.right)
    raise ProofError(f"line {n + 1}: unknown line kind {type(line).__name__}")


def _evaluate(theory, proof: HilbertProof) -> tuple[list, frozenset]:
    """Each line's formula, well formed over the theory's signature, and the
    hypotheses the proof cites; a ProofError names the first line that fails."""
    if not proof.lines:
        raise ProofError("empty proof")
    formulas: list[Formula] = []
    for n, line in enumerate(proof.lines):
        f = _conclude(theory.mode, line, n, formulas)
        try:
            check_well_formed(theory.signature, f)
        except Exception as e:
            raise ProofError(f"line {n + 1}: ill-formed formula: {e}") from e
        formulas.append(f)
    return formulas, frozenset(line.formula for line in proof.lines if isinstance(line, HypLine))


def check_hilbert(theory, proof: HilbertProof) -> CertifiedSequent:
    """Check all lines; returns {cited hypotheses} |- last-line formula."""
    formulas, hypotheses = _evaluate(theory, proof)
    return _certify(Sequent(hypotheses, formulas[-1]), theory)
