"""Shared random generators and independent oracles for the test suite.

The oracles here are deliberately written with different algorithms than the
main build (naive saturation instead of union-find, direct enumeration
instead of structured search) so cross-checks are meaningful.
"""

from __future__ import annotations

import itertools
import random

from foundry import fol
from foundry.fol import (
    AllE, AllI, AndE1, AndE2, AndI, App, BotE, BVar, Eq, EqRefl, ExI, ExE,
    Exists, Forall, FVar, Hyp, ImpE, ImpI, OrE, OrI1, OrI2, Rel, Sort,
    Weaken, exists, forall, free_vars, neg, open_binder,
)

OBJ = Sort("obj")


# ---------------------------------------------------------------------------
# Nodes: telling a node from a field value, and copying one with some fields
# changed


def is_node(x) -> bool:
    """Whether x is an instance of a class built by `foundry.span.node`."""
    return hasattr(type(x), "_fields") and not isinstance(x, tuple)


def replace(x, **changes):
    """x with the named fields changed."""
    return type(x)(**{name: getattr(x, name) for name in x._fields} | changes)


def nd_signature() -> fol.Signature:
    sig = fol.single_sorted("obj")
    sig = sig.with_relation("A", ())
    sig = sig.with_relation("B", ())
    sig = sig.with_relation("C", ())
    sig = sig.with_relation("P", (OBJ,))
    sig = sig.with_relation("Q", (OBJ,))
    return sig


VARS = [FVar(n, OBJ) for n in ("x", "y", "z")]


def gen_term(rng: random.Random) -> fol.Term:
    return rng.choice(VARS)


def gen_formula(rng: random.Random, depth: int) -> fol.Formula:
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Rel(rng.choice("ABC"), ())
        if kind == 1:
            return Rel(rng.choice("PQ"), (gen_term(rng),))
        if kind == 2:
            return Eq(gen_term(rng), gen_term(rng))
        return fol.Bot()
    kind = rng.randrange(6)
    if kind == 0:
        return fol.And(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    if kind == 1:
        return fol.Or(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    if kind == 2:
        return fol.Implies(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1))
    if kind == 3:
        x = rng.choice(VARS)
        return forall(x, gen_formula(rng, depth - 1))
    if kind == 4:
        x = rng.choice(VARS)
        return exists(x, gen_formula(rng, depth - 1))
    return gen_formula(rng, 0)


def formula_depth(a: fol.Formula) -> int:
    match a:
        case fol.And(left=l, right=r) | fol.Or(left=l, right=r) | fol.Implies(left=l, right=r):
            return 1 + max(formula_depth(l), formula_depth(r))
        case Forall(body=b) | Exists(body=b):
            return 1 + formula_depth(b)
        case _:
            return 0


# ---------------------------------------------------------------------------
# Random certified natural deduction derivations (forward generation)


def gen_nd(rng: random.Random, theory, steps: int = 10, max_depth: int = 4):
    """A random derivation; certified by construction, then re-checked.

    Forward generation over a growing pool: introduction rules always apply,
    eliminations fire whenever a pool member has the right shape."""
    from foundry.fol.proof import EqSubstForm, EqSubstTerm
    from foundry.fol.proof import _check

    def concl(d):
        return _check(theory, d, "gen")

    pool = [Hyp(gen_formula(rng, rng.randrange(2))) for _ in range(3)]
    pool.append(EqRefl(gen_term(rng)))
    eigen = FVar("v0", OBJ)

    for _ in range(steps):
        choice = rng.randrange(13)
        d = rng.choice(pool)
        seq = concl(d)
        try:
            if choice == 0:
                new = AndI(d, rng.choice(pool))
            elif choice == 1:
                if not isinstance(seq.conclusion, fol.And):
                    cand = [p for p in pool if isinstance(concl(p).conclusion, fol.And)]
                    if not cand:
                        continue
                    d = rng.choice(cand)
                new = rng.choice([AndE1, AndE2])(d)
            elif choice == 2:
                new = rng.choice(
                    [
                        lambda: OrI1(d, gen_formula(rng, 1)),
                        lambda: OrI2(gen_formula(rng, 1), d),
                    ]
                )()
            elif choice == 3:
                hyps = list(seq.hypotheses)
                a = rng.choice(hyps) if hyps and rng.random() < 0.8 else gen_formula(rng, 1)
                new = ImpI(a, d)
            elif choice == 4:
                if not isinstance(seq.conclusion, fol.Implies):
                    cand = [p for p in pool if isinstance(concl(p).conclusion, fol.Implies)]
                    if not cand:
                        continue
                    d = rng.choice(cand)
                    seq = concl(d)
                new = ImpE(d, Hyp(seq.conclusion.left))
            elif choice == 5 and isinstance(seq.conclusion, fol.Or):
                e = rng.choice(pool)
                new = OrE(d, e, e)
            elif choice == 6:
                x = rng.choice(VARS)
                if any(x in free_vars(h) for h in seq.hypotheses):
                    continue
                new = AllI(x, d)
            elif choice == 7:
                if not isinstance(seq.conclusion, Forall):
                    cand = [p for p in pool if isinstance(concl(p).conclusion, Forall)]
                    if not cand:
                        continue
                    d = rng.choice(cand)
                new = AllE(d, gen_term(rng))
            elif choice == 8:
                x = rng.choice(VARS)
                target = exists(x, seq.conclusion)
                new = ExI(target, x, d)
            elif choice == 9:
                # eliminate an existential into an unrelated conclusion
                cand = [p for p in pool if isinstance(concl(p).conclusion, Exists)]
                other = [p for p in pool if eigen not in free_vars(concl(p).conclusion)]
                if not cand or not other:
                    continue
                major = rng.choice(cand)
                e = rng.choice(other)
                opened = open_binder(concl(major).conclusion, eigen)
                new = ExE(major, eigen, Weaken(frozenset({opened}), e))
            elif choice == 10:
                cand = [p for p in pool if isinstance(concl(p).conclusion, Eq)]
                if not cand:
                    continue
                d = rng.choice(cand)
                new = EqSubstTerm(d, gen_term(rng), rng.choice(VARS))
            elif choice == 11:
                cand = [p for p in pool if isinstance(concl(p).conclusion, Eq)]
                if not cand:
                    continue
                d = rng.choice(cand)
                r = concl(d).conclusion.lhs
                a = gen_formula(rng, 1)
                hole = rng.choice(VARS)
                new = EqSubstForm(d, Hyp(fol.substitute(a, hole, r)), a, hole)
            else:
                new = Weaken(frozenset({gen_formula(rng, 1)}), d)
            s = concl(new)
            if formula_depth(s.conclusion) > max_depth:
                continue
            if any(formula_depth(h) > max_depth for h in s.hypotheses):
                continue
            pool.append(new)
        except Exception:
            continue
    return rng.choice(pool)


def sequent_valid(model: fol.FiniteModel, sequent) -> bool:
    """Semantic validity of a sequent in one model: every assignment that
    satisfies all hypotheses satisfies the conclusion."""
    fvs = set()
    for h in sequent.hypotheses:
        fvs |= free_vars(h)
    fvs |= free_vars(sequent.conclusion)
    fvs = sorted(fvs, key=lambda v: v.name)
    for vals in itertools.product(*(model.universe(v.sort) for v in fvs)):
        sigma = dict(zip(fvs, vals))
        if all(fol.holds(model, sigma, h) for h in sequent.hypotheses):
            if not fol.holds(model, sigma, sequent.conclusion):
                return False
    return True


# ---------------------------------------------------------------------------
# Random Hilbert proofs


def gen_hilbert(rng: random.Random, theory, steps: int = 8):
    from foundry.fol.hilbert import AxLine, HilbertProof, HypLine, MpLine, AllLine, ExLine, hilbert_axiom

    lines = []
    forms = []

    def emit(line, f):
        lines.append(line)
        forms.append(f)

    def sentence(depth):
        while True:
            a = gen_formula(rng, depth)
            if not free_vars(a):
                return a

    for _ in range(steps):
        k = rng.randrange(8)
        if k in (0, 1) or not lines:
            schema = rng.choice([1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
            if schema in (1, 3, 4, 5, 6, 7):
                payload = (gen_formula(rng, 1), gen_formula(rng, 1))
            elif schema in (2, 8):
                payload = (gen_formula(rng, 1), gen_formula(rng, 1), gen_formula(rng, 1))
            elif schema == 9:
                payload = (gen_formula(rng, 1),)
            else:
                payload = (OBJ,)
            emit(AxLine(schema, payload), hilbert_axiom(theory.mode, schema, payload))
        elif k == 2:
            a = sentence(rng.randrange(2))
            emit(HypLine(a), a)
        elif k in (3, 4, 5):
            # look for a modus ponens opportunity
            done = False
            order = list(range(len(lines)))
            rng.shuffle(order)
            for i in order:
                fi = forms[i]
                if isinstance(fi, fol.Implies):
                    for j in range(len(lines)):
                        if fol.alpha_equal(forms[j], fi.left):
                            emit(MpLine(i, j), fi.right)
                            done = True
                            break
                if done:
                    break
            if not done:
                a = sentence(1)
                emit(HypLine(a), a)
        else:
            # quantifier rule on an implication line
            done = False
            for i in range(len(lines) - 1, -1, -1):
                fi = forms[i]
                if isinstance(fi, fol.Implies):
                    x = rng.choice(VARS)
                    if rng.random() < 0.5 and x not in free_vars(fi.left):
                        emit(AllLine(i, x), fol.Implies(fi.left, forall(x, fi.right)))
                        done = True
                    elif x not in free_vars(fi.right):
                        emit(ExLine(i, x), fol.Implies(exists(x, fi.left), fi.right))
                        done = True
                    break
            if not done:
                a = sentence(1)
                emit(HypLine(a), a)
    return HilbertProof(tuple(lines))


# ---------------------------------------------------------------------------
# Ground equational problems and the saturation oracle


def gen_ground_problem(rng: random.Random):
    consts = [fol.const(c) for c in "abcd"[: rng.randrange(2, 5)]]
    fns = ["f", "g"][: rng.randrange(1, 3)]

    def term(depth):
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice(consts)
        return App(rng.choice(fns), (term(depth - 1),))

    eqs = [(term(2), term(2)) for _ in range(rng.randrange(1, 6))]
    goal = (term(3), term(3))
    return eqs, goal, consts, fns


def ground_signature(consts, fns) -> fol.Signature:
    sig = fol.single_sorted("obj")
    for c in consts:
        sig = sig.with_function(c.fn, (), OBJ)
    for f in fns:
        sig = sig.with_function(f, (OBJ,), OBJ)
    return sig


def saturate_oracle(equations, goal) -> bool:
    """Naive saturation: close the subterm pair set under symmetry,
    transitivity, and congruence by fixpoint iteration. Independent of the
    union-find implementation."""

    def subterms(t, acc):
        acc.add(t)
        for a in t.args:
            subterms(a, acc)

    terms = set()
    for (l, r) in [*equations, goal]:
        subterms(l, terms)
        subterms(r, terms)
    terms = list(terms)
    eq = {(t, t) for t in terms}
    eq |= {(l, r) for (l, r) in equations}
    eq |= {(r, l) for (l, r) in equations}
    changed = True
    while changed:
        changed = False
        add = set()
        for (a, b) in eq:
            for (c, d) in eq:
                if b == c and (a, d) not in eq:
                    add.add((a, d))
        for s in terms:
            for t in terms:
                if s.fn == t.fn and len(s.args) == len(t.args) and (s, t) not in eq:
                    if all((x, y) in eq for x, y in zip(s.args, t.args)):
                        add.add((s, t))
        if add:
            eq |= add
            changed = True
    return (goal[0], goal[1]) in eq
