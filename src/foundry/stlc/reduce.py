"""Reduction: beta, eta, iota (recursor/conditional/projection/cases), and
optional surjective pairing, under two deterministic strategies.

Each class that can head a redex has one contraction rule in `_CONTRACT`,
which checks its own flag and the shape of the node's fields; the walk looks
the rule up by the node's class, so a node that heads no redex costs one
dictionary lookup instead of a trial of every pattern.

One walk, `_walk`, serves `normalize`, its `on_step` trace and `reduce_step`
under both strategies. It keeps its own stack, so it spends no Python frame
per level or per contraction, and goes on from each contraction instead of
searching again from the root. Rightmost-innermost walks the contractum next:
what it walked before, the subterms to the right, is normal and unchanged,
and it tries the ancestors when it climbs back to them. Leftmost-outermost
tries the ancestors first. Beta and iota read only the classes of their
node's direct fields, and only the parent has a new one, so only the parent
can have become a redex. Eta and surjective pairing read deeper
(`var_free_in`, `==`), so with either flag on, as when the whole term is
wanted, every ancestor is rebuilt and tried, outermost first.

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


def _walk(t: Term, flags: ReductionFlags, strategy: str, fuel: int, on_step, first: bool) -> Term | None:
    """`normalize`; with `first`, the whole term after one contraction, or None."""
    lo = strategy == LEFTMOST_OUTERMOST
    if not lo and strategy != RIGHTMOST_INNERMOST:
        raise ValueError(f"unknown strategy {strategy}")
    every = first or on_step is not None or flags.eta or flags.surjective_pairing
    stack = []  # frames [node, its kids, the kid walked, whether a kid changed]
    spent, before, down, r = 0, t, True, None
    while True:
        if r is not None:  # the redex at the focus contracts to r
            if spent >= fuel:
                raise FuelError.after(spent)
            spent += 1
            t, u, r, down = r, r, None, True
            top = 0 if every else len(stack) - 1 if lo and stack else len(stack)
            for frame in reversed(stack[top:]):  # rebuild these frames around r
                frame[1][frame[2]] = u
                frame[0] = u = _rebuild(frame[0], frame[1])
                frame[3] = False
            if first:
                return u
            if on_step is not None:
                on_step(before, u)
                before = u
            for j in range(top, len(stack)) if lo else ():  # an ancestor now a redex
                rule = _CONTRACT.get(type(stack[j][0]))
                if rule is not None and (r := rule(stack[j][0], flags)) is not None:
                    del stack[j:]
                    break
        elif down:
            rule = _CONTRACT.get(type(t)) if lo else None
            r = None if rule is None else rule(t, flags)
            shape = _SHAPE.get(type(t))
            down = shape is not None
            if r is None and down:
                kids = [getattr(t, name) for name, _ in shape]
                stack.append([t, kids, 0 if lo else len(kids) - 1, False])
                t = kids[stack[-1][2]]
        elif stack:
            node, kids, i, _ = frame = stack[-1]
            if t is not kids[i]:
                kids[i], frame[3] = t, True
            i += 1 if lo else -1
            if 0 <= i < len(kids):
                frame[2], t, down = i, kids[i], True
                continue
            stack.pop()
            t = _rebuild(node, kids) if frame[3] else node
            rule = None if lo else _CONTRACT.get(type(t))
            r = None if rule is None else rule(t, flags)
        else:
            return None if first else t


def reduce_step(t: Term, flags: ReductionFlags = DEFAULT_FLAGS, strategy: str = LEFTMOST_OUTERMOST) -> Term | None:
    """One contraction at the strategy-selected redex, or None if normal.
    Only the nodes on the path from t to the contracted redex are rebuilt."""
    return _walk(t, flags, strategy, 1, None, True)


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
    return _walk(t, flags, strategy, fuel, on_step, False)


def equal_beta_eta(ctx, s: Term, t: Term, flags: ReductionFlags = BETA_ETA, fuel: int = 10**5) -> bool:
    """Provable equality, decided by comparing normal forms up to alpha."""
    ts = infer_type(ctx, s)
    tt = infer_type(ctx, t)
    if ts != tt:
        raise TypeCheckError("equated terms must share one type")
    return normalize(s, flags, fuel=fuel) == normalize(t, flags, fuel=fuel)
