"""Reduction: beta, eta, iota (recursor/conditional/projection/cases), and
optional surjective pairing, under two deterministic strategies.

Strong normalization of the calculus means the fuel bound is a safety net,
never the expected exit for well-typed terms at desk scale.
"""

from __future__ import annotations

from ..errors import FuelError, TypeCheckError
from ..span import node
from .syntax import (
    App, Cases, Cond, FF, Inj0, Inj1, Lam, Pair, Proj0, Proj1, RecNat, Succ,
    Term, TT, Var, Zero, _SHAPE, _rebuild, beta_reduce, shift, var_free_in,
)
from .typing import infer_type


@node
class ReductionFlags:
    """Which STLC reductions are enabled."""

    beta: bool = True
    eta: bool = False
    iota: bool = True
    surjective_pairing: bool = False


BETA_ONLY = ReductionFlags(beta=True, eta=False, iota=False)
BETA_ETA = ReductionFlags(beta=True, eta=True, iota=True)
DEFAULT_FLAGS = ReductionFlags()

LEFTMOST_OUTERMOST = "leftmost-outermost"
RIGHTMOST_INNERMOST = "rightmost-innermost"


def contract(t: Term, flags: ReductionFlags) -> Term | None:
    """One contraction at the root, or None."""
    match t:
        case App(fn=Lam() as f, arg=a) if flags.beta:
            return beta_reduce(f, a)
        case Lam(body=App(fn=f, arg=Var(index=0))) if flags.eta and not var_free_in(f, 0):
            return shift(f, -1)
        case RecNat(base=f, target=Zero()) if flags.iota:
            return f
        case RecNat(base=f, step=g, target=Succ(arg=n)) if flags.iota:
            return App(App(g, n), RecNat(f, g, n))
        case Cond(if_true=f, target=TT()) if flags.iota:
            return f
        case Cond(if_false=g, target=FF()) if flags.iota:
            return g
        case Proj0(pair=Pair(left=a)) if flags.iota:
            return a
        case Proj1(pair=Pair(right=b)) if flags.iota:
            return b
        case Cases(on_left=f, scrutinee=Inj0(value=a)) if flags.iota:
            return App(f, a)
        case Cases(on_right=g, scrutinee=Inj1(value=b)) if flags.iota:
            return App(g, b)
        case Pair(left=Proj0(pair=p), right=Proj1(pair=q)) if (
            flags.surjective_pairing and p == q
        ):
            return p
    return None


def reduce_step(t: Term, flags: ReductionFlags = DEFAULT_FLAGS, strategy: str = LEFTMOST_OUTERMOST) -> Term | None:
    """One contraction at the strategy-selected redex, or None if normal.

    Only the nodes on the path from t to the contracted redex are rebuilt.
    """
    shape = _SHAPE.get(type(t), ())
    if strategy == LEFTMOST_OUTERMOST:
        root = contract(t, flags)
        if root is not None:
            return root
        fields = shape
    elif strategy == RIGHTMOST_INNERMOST:
        fields = reversed(shape)
    else:
        raise ValueError(f"unknown strategy {strategy}")
    for name, _ in fields:
        stepped = reduce_step(getattr(t, name), flags, strategy)
        if stepped is not None:
            return _rebuild(t, [stepped if n == name else getattr(t, n) for n, _ in shape])
    return contract(t, flags) if strategy == RIGHTMOST_INNERMOST else None


def normalize(
    t: Term,
    flags: ReductionFlags = DEFAULT_FLAGS,
    strategy: str = LEFTMOST_OUTERMOST,
    fuel: int = 10**5,
    on_step=None,
) -> Term:
    """Reduce to a term with no enabled redex, calling on_step(before, after)
    at each contraction if it is given. Fuel bounds the contractions: a term
    that normalizes in exactly `fuel` of them succeeds."""
    spent = 0
    while (nxt := reduce_step(t, flags, strategy)) is not None:
        if spent >= fuel:
            raise FuelError("normalization fuel exhausted")
        spent += 1
        if on_step is not None:
            on_step(t, nxt)
        t = nxt
    return t


def equal_beta_eta(ctx, s: Term, t: Term, flags: ReductionFlags = BETA_ETA, fuel: int = 10**5) -> bool:
    """Provable equality, decided by comparing normal forms up to alpha."""
    ts = infer_type(ctx, s)
    tt = infer_type(ctx, t)
    if ts != tt:
        raise TypeCheckError("equated terms must share one type")
    return normalize(s, flags, fuel=fuel) == normalize(t, flags, fuel=fuel)
