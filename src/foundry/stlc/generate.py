"""Type-directed random term generation for the property-test corpus.

Depth-bounded (default 6) and size-bounded; deterministic for a given seed.
The corpus seed used by the acceptance suite is 20240601.
"""

from __future__ import annotations

import random

from .syntax import (
    App, Arrow, BoolT, Cases, Cond, FF, Inj0, Inj1, Lam, NatT, Pair, Prod,
    Proj0, Proj1, RecNat, SimpleType, Succ, SumT, Term, TT, Var, Zero, _SHAPE,
)

CORPUS_SEED = 20240601


def gen_type(rng: random.Random, depth: int = 2) -> SimpleType:
    if depth <= 0:
        return rng.choice([NatT(), BoolT()])
    return rng.choice(
        [
            lambda: NatT(),
            lambda: BoolT(),
            lambda: Arrow(gen_type(rng, depth - 1), gen_type(rng, depth - 1)),
            lambda: Prod(gen_type(rng, depth - 1), gen_type(rng, depth - 1)),
            lambda: SumT(gen_type(rng, depth - 1), gen_type(rng, depth - 1)),
        ]
    )()


def _intro(rng, target, depth, stack, budget):
    match target:
        case NatT():
            if depth <= 0 or rng.random() < 0.5:
                return Zero()
            return Succ(gen_term(rng, NatT(), depth - 1, stack, budget))
        case BoolT():
            return rng.choice([TT(), FF()])
        case Arrow(dom=d, cod=c):
            return Lam(d, gen_term(rng, c, depth - 1, (d,) + stack, budget))
        case Prod(left=l, right=r):
            return Pair(
                gen_term(rng, l, depth - 1, stack, budget),
                gen_term(rng, r, depth - 1, stack, budget),
            )
        case SumT(left=l, right=r):
            if rng.random() < 0.5:
                return Inj0(r, gen_term(rng, l, depth - 1, stack, budget))
            return Inj1(l, gen_term(rng, r, depth - 1, stack, budget))
    raise ValueError(f"cannot introduce {target}")


def gen_term(
    rng: random.Random,
    target: SimpleType,
    depth: int = 6,
    stack: tuple[SimpleType, ...] = (),
    budget: list | None = None,
) -> Term:
    """A well-typed term of the target type over the binder stack."""
    if budget is None:
        budget = [30]
    budget[0] -= 1
    candidates = [lambda: _intro(rng, target, depth, stack, budget)]
    vars_of_type = [i for i, ty in enumerate(stack) if ty == target]
    if vars_of_type:
        candidates.append(lambda: Var(rng.choice(vars_of_type)))
    if depth > 0 and budget[0] > 0:
        def app():
            arg_ty = rng.choice([NatT(), BoolT(), gen_type(rng, 1)])
            f = gen_term(rng, Arrow(arg_ty, target), depth - 1, stack, budget)
            a = gen_term(rng, arg_ty, depth - 1, stack, budget)
            return App(f, a)

        def proj():
            other = rng.choice([NatT(), BoolT()])
            side = rng.random() < 0.5
            ty = Prod(target, other) if side else Prod(other, target)
            p = gen_term(rng, ty, depth - 1, stack, budget)
            return Proj0(p) if side else Proj1(p)

        def recnat():
            f = gen_term(rng, target, depth - 1, stack, budget)
            g = gen_term(rng, Arrow(NatT(), Arrow(target, target)), depth - 1, stack, budget)
            n = gen_term(rng, NatT(), depth - 1, stack, budget)
            return RecNat(f, g, n)

        def cond():
            f = gen_term(rng, target, depth - 1, stack, budget)
            g = gen_term(rng, target, depth - 1, stack, budget)
            b = gen_term(rng, BoolT(), depth - 1, stack, budget)
            return Cond(f, g, b)

        def cases():
            l = rng.choice([NatT(), BoolT()])
            r = rng.choice([NatT(), BoolT()])
            s = gen_term(rng, SumT(l, r), depth - 1, stack, budget)
            f = gen_term(rng, Arrow(l, target), depth - 1, stack, budget)
            g = gen_term(rng, Arrow(r, target), depth - 1, stack, budget)
            return Cases(f, g, s)

        candidates.extend([app, proj, recnat, cond, cases])
    weights = [3] + [2] * (len(candidates) - 1)
    return rng.choices(candidates, weights=weights)[0]()


def gen_closed_nat(rng: random.Random, depth: int = 5) -> Term:
    """A closed term of type Nat (for the numeral-canonicity corpus)."""
    return gen_term(rng, NatT(), depth, (), [25])


def term_size(t: Term) -> int:
    return 1 + sum(term_size(getattr(t, name)) for name, _ in _SHAPE.get(type(t), ()))
