"""Reduction: beta, eta, iota (recursor/conditional/projection/cases), and
optional surjective pairing, under two deterministic strategies.

Each class that can head a redex has one contraction rule in `_CONTRACT`,
which checks its own flag and the shape of the node's fields; `reduce_step`
looks the rule up by the node's class, so a node that heads no redex costs
one dictionary lookup instead of a trial of every pattern.

Fuel counts contractions, so a term that normalizes in exactly `fuel` of
them succeeds. Strong normalization of the calculus means the fuel bound is
a safety net, never the expected exit for well-typed terms at desk scale.
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


# The contraction rules, one per class that can head a redex; each is called
# with (t, flags) and returns the contractum or None.


def _beta(t: App, flags: ReductionFlags) -> Term | None:
    f = t.fn
    if flags.beta and type(f) is Lam:
        return beta_reduce(f, t.arg)
    return None


def _eta(t: Lam, flags: ReductionFlags) -> Term | None:
    b = t.body
    if flags.eta and type(b) is App and type(b.arg) is Var and b.arg.index == 0:
        if not var_free_in(b.fn, 0):
            return shift(b.fn, -1)
    return None


def _rec_nat(t: RecNat, flags: ReductionFlags) -> Term | None:
    n = t.target
    if flags.iota:
        if type(n) is Zero:
            return t.base
        if type(n) is Succ:
            return App(App(t.step, n.arg), RecNat(t.base, t.step, n.arg))
    return None


def _cond(t: Cond, flags: ReductionFlags) -> Term | None:
    b = type(t.target)
    if flags.iota:
        if b is TT:
            return t.if_true
        if b is FF:
            return t.if_false
    return None


def _proj0(t: Proj0, flags: ReductionFlags) -> Term | None:
    if flags.iota and type(t.pair) is Pair:
        return t.pair.left
    return None


def _proj1(t: Proj1, flags: ReductionFlags) -> Term | None:
    if flags.iota and type(t.pair) is Pair:
        return t.pair.right
    return None


def _cases(t: Cases, flags: ReductionFlags) -> Term | None:
    s = t.scrutinee
    if flags.iota:
        if type(s) is Inj0:
            return App(t.on_left, s.value)
        if type(s) is Inj1:
            return App(t.on_right, s.value)
    return None


def _surjective_pairing(t: Pair, flags: ReductionFlags) -> Term | None:
    left, right = t.left, t.right
    if flags.surjective_pairing and type(left) is Proj0 and type(right) is Proj1:
        if left.pair == right.pair:
            return left.pair
    return None


_CONTRACT = {
    App: _beta,
    Lam: _eta,
    RecNat: _rec_nat,
    Cond: _cond,
    Proj0: _proj0,
    Proj1: _proj1,
    Cases: _cases,
    Pair: _surjective_pairing,
}


def contract(t: Term, flags: ReductionFlags) -> Term | None:
    """One contraction at the root, or None."""
    rule = _CONTRACT.get(type(t))
    return None if rule is None else rule(t, flags)


def reduce_step(t: Term, flags: ReductionFlags = DEFAULT_FLAGS, strategy: str = LEFTMOST_OUTERMOST) -> Term | None:
    """One contraction at the strategy-selected redex, or None if normal.

    Only the nodes on the path from t to the contracted redex are rebuilt.
    """
    shape = _SHAPE.get(type(t), ())
    rule = _CONTRACT.get(type(t))
    if strategy == LEFTMOST_OUTERMOST:
        if rule is not None:
            root = rule(t, flags)
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
    return rule(t, flags) if rule is not None and strategy == RIGHTMOST_INNERMOST else None


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
