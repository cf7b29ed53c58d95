"""Transformations of checked Hilbert proofs: translation into natural
deduction, and the deduction theorem.

Nothing here is trusted. Each transform computes its output from a proof
that `hilbert._evaluate` accepts, and whatever it returns is an ordinary
proof object: a caller that wants a certificate checks it with `check_nd`
or `check_hilbert`, as the tests do. A `foundry check` never loads this
module.
"""

from __future__ import annotations

from ..errors import ProofError
from .hilbert import (
    AllLine,
    AxLine,
    ExLine,
    HilbertProof,
    HypLine,
    Line,
    MpLine,
    _conclude,
    _eq_vars,
    _evaluate,
)
from .syntax import (
    And,
    Bot,
    Eq,
    Formula,
    FVar,
    Implies,
    Or,
    alpha_equal,
    free_vars,
    neg,
    open_binder,
    substitute,
    term_free_vars,
)


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
                x, y = _eq_vars({v.name for v in term_free_vars(t)}, z)
                body = nd.ImpI(Eq(x, y), nd.EqSubstTerm(nd.Hyp(Eq(x, y)), t, z))
                return nd.AllI(x, nd.AllI(y, body))
            case 14:
                a, z = payload
                x, y = _eq_vars({v.name for v in free_vars(a)}, z)
                ax = substitute(a, z, x)
                body = nd.ImpI(
                    Eq(x, y),
                    nd.ImpI(
                        ax,
                        nd.EqSubstForm(nd.Hyp(Eq(x, y)), nd.Hyp(ax), a, z),
                    ),
                )
                return nd.AllI(x, nd.AllI(y, body))

    forms, _ = _evaluate(theory, proof)
    trees = []
    for n, line in enumerate(proof.lines):
        match line:
            case AxLine(schema=s, payload=payload):
                trees.append(axiom_nd(s, payload))
            case HypLine(formula=g):
                trees.append(nd.Hyp(g))
            case MpLine(implication=i, antecedent=j):
                trees.append(nd.ImpE(trees[i], trees[j]))
            case AllLine(ref=i, var=x):
                a = forms[i].left
                trees.append(nd.ImpI(a, nd.AllI(x, nd.ImpE(trees[i], nd.Hyp(a)))))
            case ExLine(ref=i, var=x):
                ex = forms[n].left
                case_tree = nd.ImpE(trees[i], nd.Hyp(forms[i].left))
                trees.append(nd.ImpI(ex, nd.ExE(nd.Hyp(ex), x, case_tree)))
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

    def emit(self, line: Line) -> int:
        self.forms.append(_conclude(self.mode, line, len(self.lines), self.forms))
        self.lines.append(line)
        return len(self.lines) - 1

    def ax(self, schema: int, payload: tuple) -> int:
        return self.emit(AxLine(schema, payload))

    def mp(self, i: int, j: int) -> int:
        return self.emit(MpLine(i, j))

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
    forms, _ = _evaluate(theory, proof)  # errors propagate

    b = _Builder(theory.mode)
    mapping: list[int] = []
    a = hypothesis
    a_frees = free_vars(a)

    for line, f in zip(proof.lines, forms):
        match line:
            case HypLine() if alpha_equal(f, a):
                mapping.append(b.imp_refl(a))
            case HypLine() | AxLine():
                mapping.append(b.add_assum(a, b.emit(line)))
            case MpLine(implication=i, antecedent=j):
                l2 = b.ax(2, (a, forms[i].left, f))
                l3 = b.mp(l2, mapping[i])
                mapping.append(b.mp(l3, mapping[j]))
            case AllLine(var=x) | ExLine(var=x) if x in a_frees:
                raise ProofError(
                    f"quantifier rule generalizes {x.name}, which is free in the "
                    f"discharged hypothesis"
                )
            case AllLine(ref=i, var=x):
                u = b.imp_uncurry(mapping[i])
                mapping.append(b.imp_curry(b.emit(AllLine(u, x))))
            case ExLine(ref=i, var=x):
                s = b.imp_swap(mapping[i])
                mapping.append(b.imp_swap(b.emit(ExLine(s, x))))

    return HilbertProof(tuple(b.lines))
