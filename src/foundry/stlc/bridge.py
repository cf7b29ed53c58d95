"""The Curry-Howard bridge between typing derivations and natural deduction.

Arrow maps to implication, product to conjunction, sum to disjunction, and
the distinguished base type Void to falsity; other base types are read as
propositional atoms. Constants of type Void -> a are the images of ex falso.
"""

from __future__ import annotations

from ..errors import TypeCheckError
from ..fol import proof as nd
from ..fol.syntax import And, Bot, Formula, Implies, Or, Rel
from .syntax import (
    App, Arrow, Base, Cases, Const, Free, Inj0, Inj1, Lam, Pair, Prod, Proj0,
    Proj1, SimpleType, SumT, Term, Var, VOID, abstract_free,
)
from .typing import TypingContext, infer_type, pretty_type

EFQ = "efq"


def efq(target: SimpleType) -> Const:
    return Const(EFQ, Arrow(VOID, target))


def type_to_formula(ty: SimpleType) -> Formula:
    match ty:
        case Base(name="Void"):
            return Bot()
        case Base(name=n):
            return Rel(n, ())
        case Arrow(dom=d, cod=c):
            return Implies(type_to_formula(d), type_to_formula(c))
        case Prod(left=l, right=r):
            return And(type_to_formula(l), type_to_formula(r))
        case SumT(left=l, right=r):
            return Or(type_to_formula(l), type_to_formula(r))
    raise TypeCheckError(f"type {pretty_type(ty)} has no propositional image")


def formula_to_type(a: Formula) -> SimpleType:
    match a:
        case Bot():
            return VOID
        case Rel(name=n, args=()):
            return Base(n)
        case Implies(left=l, right=r):
            return Arrow(formula_to_type(l), formula_to_type(r))
        case And(left=l, right=r):
            return Prod(formula_to_type(l), formula_to_type(r))
        case Or(left=l, right=r):
            return SumT(formula_to_type(l), formula_to_type(r))
    raise TypeCheckError(
        "unsupported-fragment: only ->, /\\, \\/ and false cross the bridge",
        tag="unsupported-fragment",
    )


def to_nd(ctx: TypingContext, t: Term) -> nd.NdDerivation:
    """Read a typing derivation (the term, under annotated binders) as a
    natural deduction derivation of its type's image."""
    infer_type(ctx, t)  # fail early with a typing error

    def go(t: Term, stack: tuple[SimpleType, ...]) -> nd.NdDerivation:
        match t:
            case Var(index=k):
                return nd.Hyp(type_to_formula(stack[k]))
            case Free(name=n):
                return nd.Hyp(type_to_formula(ctx[n]))
            case Lam(dom=d, body=b):
                return nd.ImpI(type_to_formula(d), go(b, (d,) + stack))
            case App(fn=Const(name=EFQ, type=Arrow(dom=Base(name="Void"), cod=target)), arg=a):
                return nd.BotE(type_to_formula(target), go(a, stack))
            case App(fn=f, arg=a):
                return nd.ImpE(go(f, stack), go(a, stack))
            case Pair(left=l, right=r):
                return nd.AndI(go(l, stack), go(r, stack))
            case Proj0(pair=p):
                return nd.AndE1(go(p, stack))
            case Proj1(pair=p):
                return nd.AndE2(go(p, stack))
            case Inj0(right=ty, value=v):
                return nd.OrI1(go(v, stack), type_to_formula(ty))
            case Inj1(left=ty, value=v):
                return nd.OrI2(type_to_formula(ty), go(v, stack))
            case Cases(on_left=f, on_right=g, scrutinee=s):
                ts = infer_type(ctx, s, stack)
                a = type_to_formula(ts.left)
                b = type_to_formula(ts.right)
                left_case = nd.ImpE(go(f, stack), nd.Hyp(a))
                right_case = nd.ImpE(go(g, stack), nd.Hyp(b))
                return nd.OrE(go(s, stack), left_case, right_case)
        raise TypeCheckError(
            f"unsupported-fragment: {type(t).__name__} has no deduction image",
            tag="unsupported-fragment",
        )

    return go(t, ())


def from_nd(derivation: nd.NdDerivation) -> tuple[Term, TypingContext]:
    """Extract the proof term of a derivation in the ->, /\\, \\/, false
    fragment; undischarged hypotheses become typed free variables."""
    env: dict[Formula, str] = {}

    def hyp_var(a: Formula) -> str:
        if a not in env:
            env[a] = f"h{len(env)}"
        return env[a]

    def go(d: nd.NdDerivation) -> Term:
        match d:
            case nd.Hyp(formula=a):
                formula_to_type(a)
                return Free(hyp_var(a))
            case nd.ImpI(assumption=a, premise=p):
                body = go(p)
                name = hyp_var(a)
                return Lam(formula_to_type(a), abstract_free(body, name), hint=name)
            case nd.ImpE(implication=f, argument=a):
                return App(go(f), go(a))
            case nd.AndI(left=l, right=r):
                return Pair(go(l), go(r))
            case nd.AndE1(premise=p):
                return Proj0(go(p))
            case nd.AndE2(premise=p):
                return Proj1(go(p))
            case nd.OrI1(premise=p, right=b):
                return Inj0(formula_to_type(b), go(p))
            case nd.OrI2(left=a, premise=p):
                return Inj1(formula_to_type(a), go(p))
            case nd.OrE(disjunction=dj, left_case=lc, right_case=rc):
                # recover the discharged formulas from the major premise
                tsum = _concluded_or(dj)
                a, b = tsum
                tl = go(lc)
                tr = go(rc)
                na, nb = hyp_var(a), hyp_var(b)
                fl = Lam(formula_to_type(a), abstract_free(tl, na), hint=na)
                fr = Lam(formula_to_type(b), abstract_free(tr, nb), hint=nb)
                return Cases(fl, fr, go(dj))
            case nd.BotE(target=a, premise=p):
                return App(efq(formula_to_type(a)), go(p))
        raise TypeCheckError(
            f"unsupported-fragment: rule {type(d).__name__} is outside the bridge",
            tag="unsupported-fragment",
        )

    def _concluded_or(d: nd.NdDerivation) -> tuple[Formula, Formula]:
        c = _conclusion(d)
        if isinstance(c, Or):
            return c.left, c.right
        raise TypeCheckError("disjunction elimination on a non-disjunction")

    def _conclusion(d: nd.NdDerivation) -> Formula:
        match d:
            case nd.Hyp(formula=a):
                return a
            case nd.ImpI(assumption=a, premise=p):
                return Implies(a, _conclusion(p))
            case nd.ImpE(implication=f):
                return _conclusion(f).right
            case nd.AndI(left=l, right=r):
                return And(_conclusion(l), _conclusion(r))
            case nd.AndE1(premise=p):
                return _conclusion(p).left
            case nd.AndE2(premise=p):
                return _conclusion(p).right
            case nd.OrI1(premise=p, right=b):
                return Or(_conclusion(p), b)
            case nd.OrI2(left=a, premise=p):
                return Or(a, _conclusion(p))
            case nd.OrE(left_case=lc):
                return _conclusion(lc)
            case nd.BotE(target=a):
                return a
        raise TypeCheckError("unsupported-fragment", tag="unsupported-fragment")

    term = go(derivation)
    ctx = {name: formula_to_type(a) for a, name in env.items()}
    return term, ctx
