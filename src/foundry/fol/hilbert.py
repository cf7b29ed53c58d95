"""Hilbert-style proofs: the fourteen axiom schemas, three rules, and the
deduction-theorem transformation.

A proof is an ordered list of lines; references point backward only. Axiom
lines carry the schema index plus the fillers needed to rebuild the instance,
so the checker constructs each line's formula rather than trusting a claim.
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


def hilbert_axiom(mode: str, schema: int, payload: tuple) -> Formula:
    """Construct the instance of schema 1..14; in classical mode schema 9 is
    double-negation elimination instead of ex falso."""

    def formulas(n):
        if len(payload) != n:
            raise ProofError(f"schema {schema} takes {n} filler(s), got {len(payload)}")
        return payload

    match schema:
        case 1:
            a, b = formulas(2)
            return Implies(a, Implies(b, a))
        case 2:
            a, b, c = formulas(3)
            return Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c)))
        case 3:
            a, b = formulas(2)
            return Implies(a, Implies(b, And(a, b)))
        case 4:
            a, b = formulas(2)
            return Implies(And(a, b), a)
        case 5:
            a, b = formulas(2)
            return Implies(And(a, b), b)
        case 6:
            a, b = formulas(2)
            return Implies(a, Or(a, b))
        case 7:
            a, b = formulas(2)
            return Implies(b, Or(a, b))
        case 8:
            a, b, c = formulas(3)
            return Implies(Implies(a, c), Implies(Implies(b, c), Implies(Or(a, b), c)))
        case 9:
            (a,) = formulas(1)
            if mode == "classical":
                return Implies(neg(neg(a)), a)
            return Implies(Bot(), a)
        case 10:
            quantified, t = formulas(2)
            if not isinstance(quantified, Forall):
                raise ProofError("schema 10 needs a universally quantified formula")
            return Implies(quantified, open_binder(quantified, t))
        case 11:
            quantified, t = formulas(2)
            if not isinstance(quantified, Exists):
                raise ProofError("schema 11 needs an existentially quantified formula")
            return Implies(open_binder(quantified, t), quantified)
        case 12:
            (sort,) = formulas(1)
            x = FVar("x", sort)
            return forall(x, Eq(x, x))
        case 13:
            t, z = formulas(2)
            taken = {v.name for v in term_free_vars(t)} | {z.name}
            xn = fresh_name("x", taken)
            yn = fresh_name("y", taken | {xn})
            x, y = FVar(xn, z.sort), FVar(yn, z.sort)
            body = Implies(Eq(x, y), Eq(subst_in_term(t, z, x), subst_in_term(t, z, y)))
            return forall(x, forall(y, body))
        case 14:
            a, z = formulas(2)
            taken = {v.name for v in free_vars(a)} | {z.name}
            xn = fresh_name("x", taken)
            yn = fresh_name("y", taken | {xn})
            x, y = FVar(xn, z.sort), FVar(yn, z.sort)
            body = Implies(Eq(x, y), Implies(substitute(a, z, x), substitute(a, z, y)))
            return forall(x, forall(y, body))
    raise ProofError(f"unknown axiom schema {schema}")


def check_hilbert(theory, proof: HilbertProof) -> CertifiedSequent:
    """Check all lines; returns {cited hypotheses} |- last-line formula."""
    if not proof.lines:
        raise ProofError("empty proof")
    formulas: list[Formula] = []
    hypotheses: set[Formula] = set()

    def ref(i: int, here: int) -> Formula:
        if not (0 <= i < here):
            raise ProofError(f"line {here + 1}: reference {i + 1} does not point backward")
        return formulas[i]

    for n, line in enumerate(proof.lines):
        match line:
            case AxLine(schema=s, payload=payload):
                f = hilbert_axiom(theory.mode, s, payload)
            case HypLine(formula=g):
                if free_vars(g):
                    raise ProofError(
                        f"line {n + 1}: hypotheses must be sentences "
                        f"(the quantifier rules generalize free variables)"
                    )
                hypotheses.add(g)
                f = g
            case MpLine(implication=i, antecedent=j):
                fi, fj = ref(i, n), ref(j, n)
                if not isinstance(fi, Implies):
                    raise ProofError(f"line {n + 1}: modus ponens on non-implication")
                if not alpha_equal(fi.left, fj):
                    raise ProofError(
                        f"line {n + 1}: modus ponens shape mismatch: "
                        f"{pretty_formula(fj)} vs antecedent {pretty_formula(fi.left)}"
                    )
                f = fi.right
            case AllLine(ref=i, var=x):
                fi = ref(i, n)
                if not isinstance(fi, Implies):
                    raise ProofError(f"line {n + 1}: quantifier rule needs an implication")
                if x in free_vars(fi.left):
                    raise ProofError(f"line {n + 1}: {x.name} is free in the antecedent")
                f = Implies(fi.left, forall(x, fi.right))
            case ExLine(ref=i, var=x):
                fi = ref(i, n)
                if not isinstance(fi, Implies):
                    raise ProofError(f"line {n + 1}: quantifier rule needs an implication")
                if x in free_vars(fi.right):
                    raise ProofError(f"line {n + 1}: {x.name} is free in the consequent")
                f = Implies(exists(x, fi.left), fi.right)
            case _:
                raise ProofError(f"line {n + 1}: unknown line kind {type(line).__name__}")
        try:
            check_well_formed(theory.signature, f)
        except Exception as e:
            raise ProofError(f"line {n + 1}: ill-formed formula: {e}") from e
        formulas.append(f)

    return _certify(Sequent(frozenset(hypotheses), formulas[-1]), theory)


# ---------------------------------------------------------------------------
# Translation into natural deduction (the cross-checking oracle for the
# acceptance tests: an accepted Hilbert proof re-checks as a derivation)


def hilbert_to_nd(theory, proof: HilbertProof):
    """Translate an accepted Hilbert proof into a natural deduction
    derivation of the same conclusion (hypotheses can only shrink, since
    unused citations disappear)."""
    from . import proof as nd

    def axiom_nd(schema: int, payload: tuple):
        match schema:
            case 1:
                a, b = payload
                return nd.ImpI(a, nd.ImpI(b, nd.Hyp(a)))
            case 2:
                a, b, c = payload
                abc = Implies(a, Implies(b, c))
                ab = Implies(a, b)
                body = nd.ImpE(
                    nd.ImpE(nd.Hyp(abc), nd.Hyp(a)),
                    nd.ImpE(nd.Hyp(ab), nd.Hyp(a)),
                )
                return nd.ImpI(abc, nd.ImpI(ab, nd.ImpI(a, body)))
            case 3:
                a, b = payload
                return nd.ImpI(a, nd.ImpI(b, nd.AndI(nd.Hyp(a), nd.Hyp(b))))
            case 4:
                a, b = payload
                return nd.ImpI(And(a, b), nd.AndE1(nd.Hyp(And(a, b))))
            case 5:
                a, b = payload
                return nd.ImpI(And(a, b), nd.AndE2(nd.Hyp(And(a, b))))
            case 6:
                a, b = payload
                return nd.ImpI(a, nd.OrI1(nd.Hyp(a), b))
            case 7:
                a, b = payload
                return nd.ImpI(b, nd.OrI2(a, nd.Hyp(b)))
            case 8:
                a, b, c = payload
                ac, bc = Implies(a, c), Implies(b, c)
                body = nd.OrE(
                    nd.Hyp(Or(a, b)),
                    nd.ImpE(nd.Hyp(ac), nd.Hyp(a)),
                    nd.ImpE(nd.Hyp(bc), nd.Hyp(b)),
                )
                return nd.ImpI(ac, nd.ImpI(bc, nd.ImpI(Or(a, b), body)))
            case 9:
                (a,) = payload
                if theory.mode == "classical":
                    nna = neg(neg(a))
                    return nd.ImpI(
                        nna, nd.Raa(a, nd.ImpE(nd.Hyp(nna), nd.Hyp(neg(a))))
                    )
                return nd.ImpI(Bot(), nd.BotE(a, nd.Hyp(Bot())))
            case 10:
                quantified, t = payload
                return nd.ImpI(quantified, nd.AllE(nd.Hyp(quantified), t))
            case 11:
                quantified, t = payload
                opened = open_binder(quantified, t)
                return nd.ImpI(opened, nd.ExI(quantified, t, nd.Hyp(opened)))
            case 12:
                (sort,) = payload
                x = FVar("x", sort)
                return nd.AllI(x, nd.EqRefl(x))
            case 13:
                t, z = payload
                taken = {v.name for v in term_free_vars(t)} | {z.name}
                xn = fresh_name("x", taken)
                yn = fresh_name("y", taken | {xn})
                x, y = FVar(xn, z.sort), FVar(yn, z.sort)
                body = nd.ImpI(Eq(x, y), nd.EqSubstTerm(nd.Hyp(Eq(x, y)), t, z))
                return nd.AllI(x, nd.AllI(y, body))
            case 14:
                a, z = payload
                taken = {v.name for v in free_vars(a)} | {z.name}
                xn = fresh_name("x", taken)
                yn = fresh_name("y", taken | {xn})
                x, y = FVar(xn, z.sort), FVar(yn, z.sort)
                ax = substitute(a, z, x)
                body = nd.ImpI(
                    Eq(x, y),
                    nd.ImpI(
                        ax,
                        nd.EqSubstForm(nd.Hyp(Eq(x, y)), nd.Hyp(ax), a, z),
                    ),
                )
                return nd.AllI(x, nd.AllI(y, body))
        raise ProofError(f"unknown axiom schema {schema}")

    check_hilbert(theory, proof)
    forms: list[Formula] = []
    trees = []
    for line in proof.lines:
        match line:
            case AxLine(schema=s, payload=payload):
                trees.append(axiom_nd(s, payload))
                forms.append(hilbert_axiom(theory.mode, s, payload))
            case HypLine(formula=g):
                trees.append(nd.Hyp(g))
                forms.append(g)
            case MpLine(implication=i, antecedent=j):
                trees.append(nd.ImpE(trees[i], trees[j]))
                forms.append(forms[i].right)
            case AllLine(ref=i, var=x):
                a = forms[i].left
                trees.append(nd.ImpI(a, nd.AllI(x, nd.ImpE(trees[i], nd.Hyp(a)))))
                forms.append(Implies(a, forall(x, forms[i].right)))
            case ExLine(ref=i, var=x):
                a, b = forms[i].left, forms[i].right
                ex = exists(x, a)
                case_tree = nd.ImpE(trees[i], nd.Hyp(a))
                trees.append(nd.ImpI(ex, nd.ExE(nd.Hyp(ex), x, case_tree)))
                forms.append(Implies(ex, b))
    return trees[-1]


# ---------------------------------------------------------------------------
# Deduction theorem


class _Builder:
    """Emits Hilbert lines while tracking their formulas, so the derived
    combinators below can be written like forward proofs."""

    def __init__(self, mode: str):
        self.mode = mode
        self.lines: list[Line] = []
        self.forms: list[Formula] = []

    def emit(self, line: Line, formula: Formula) -> int:
        self.lines.append(line)
        self.forms.append(formula)
        return len(self.forms) - 1

    def ax(self, schema: int, payload: tuple) -> int:
        return self.emit(AxLine(schema, payload), hilbert_axiom(self.mode, schema, payload))

    def hyp(self, f: Formula) -> int:
        return self.emit(HypLine(f), f)

    def mp(self, i: int, j: int) -> int:
        fi = self.forms[i]
        assert isinstance(fi, Implies) and alpha_equal(fi.left, self.forms[j])
        return self.emit(MpLine(i, j), fi.right)

    def all_rule(self, i: int, x: FVar) -> int:
        fi = self.forms[i]
        return self.emit(AllLine(i, x), Implies(fi.left, forall(x, fi.right)))

    def ex_rule(self, i: int, x: FVar) -> int:
        fi = self.forms[i]
        return self.emit(ExLine(i, x), Implies(exists(x, fi.left), fi.right))

    # standard derived combinators -----------------------------------------

    def imp_refl(self, a: Formula) -> int:
        aa = Implies(a, a)
        l1 = self.ax(2, (a, aa, a))
        l2 = self.ax(1, (a, aa))
        l3 = self.mp(l1, l2)
        l4 = self.ax(1, (a, a))
        return self.mp(l3, l4)

    def add_assum(self, a: Formula, i: int) -> int:
        b = self.forms[i]
        l1 = self.ax(1, (b, a))
        return self.mp(l1, i)

    def imp_trans(self, i: int, j: int) -> int:
        # i : A -> B,  j : B -> C   =>   A -> C
        a = self.forms[i].left
        b, c = self.forms[j].left, self.forms[j].right
        l1 = self.add_assum(a, j)
        l2 = self.ax(2, (a, b, c))
        l3 = self.mp(l2, l1)
        return self.mp(l3, i)

    def imp_swap(self, i: int) -> int:
        # i : A -> (B -> C)   =>   B -> (A -> C)
        fi = self.forms[i]
        a, rest = fi.left, fi.right
        b, c = rest.left, rest.right
        l1 = self.ax(1, (b, a))
        l2 = self.ax(2, (a, b, c))
        l3 = self.mp(l2, i)
        return self.imp_trans(l1, l3)

    def imp_uncurry(self, i: int) -> int:
        # i : A -> (B -> C)   =>   (A /\ B) -> C
        fi = self.forms[i]
        a, rest = fi.left, fi.right
        b, c = rest.left, rest.right
        ab = And(a, b)
        l4 = self.ax(4, (a, b))
        l5 = self.ax(5, (a, b))
        t1 = self.imp_trans(l4, i)
        t2 = self.ax(2, (ab, b, c))
        t3 = self.mp(t2, t1)
        return self.mp(t3, l5)

    def imp_curry(self, i: int) -> int:
        # i : (A /\ B) -> C   =>   A -> (B -> C)
        ab, c = self.forms[i].left, self.forms[i].right
        a, b = ab.left, ab.right
        l3 = self.ax(3, (a, b))
        j = self.add_assum(b, i)
        k = self.ax(2, (b, ab, c))
        k2 = self.mp(k, j)
        return self.imp_trans(l3, k2)


def deduction_transform(theory, proof: HilbertProof, hypothesis: Formula) -> HilbertProof:
    """Discharge a hypothesis: from a proof of B using hypothesis A, build a
    proof of A -> B without it. Quantifier rules in the input must not
    generalize a variable free in A."""
    check_hilbert(theory, proof)  # errors propagate

    b = _Builder(theory.mode)
    old = _Builder(theory.mode)  # recompute the original line formulas
    mapping: list[int] = []
    a = hypothesis
    a_frees = free_vars(a)

    for line in proof.lines:
        match line:
            case HypLine(formula=f):
                old.emit(line, f)
                if alpha_equal(f, a):
                    mapping.append(b.imp_refl(a))
                else:
                    h = b.hyp(f)
                    mapping.append(b.add_assum(a, h))
            case AxLine(schema=s, payload=payload):
                f = hilbert_axiom(theory.mode, s, payload)
                old.emit(line, f)
                i = b.ax(s, payload)
                mapping.append(b.add_assum(a, i))
            case MpLine(implication=i, antecedent=j):
                fi = old.forms[i]
                old.emit(line, fi.right)
                x, f = fi.left, fi.right
                l2 = b.ax(2, (a, x, f))
                l3 = b.mp(l2, mapping[i])
                mapping.append(b.mp(l3, mapping[j]))
            case AllLine(ref=i, var=x):
                if x in a_frees:
                    raise ProofError(
                        f"quantifier rule generalizes {x.name}, which is free in the "
                        f"discharged hypothesis"
                    )
                fi = old.forms[i]
                old.emit(line, Implies(fi.left, forall(x, fi.right)))
                u = b.imp_uncurry(mapping[i])
                w = b.all_rule(u, x)
                mapping.append(b.imp_curry(w))
            case ExLine(ref=i, var=x):
                if x in a_frees:
                    raise ProofError(
                        f"quantifier rule generalizes {x.name}, which is free in the "
                        f"discharged hypothesis"
                    )
                fi = old.forms[i]
                old.emit(line, Implies(exists(x, fi.left), fi.right))
                s = b.imp_swap(mapping[i])
                e = b.ex_rule(s, x)
                mapping.append(b.imp_swap(e))

    return HilbertProof(tuple(b.lines))
