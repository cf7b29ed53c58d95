"""Syntax-directed type inference for the simply typed lambda calculus."""

from __future__ import annotations

from typing import Mapping

from ..errors import TypeCheckError
from .syntax import (
    App, Arrow, Base, BoolT, Cases, Cond, Const, FF, Free, Inj0, Inj1, Lam,
    NatT, Pair, Prod, Proj0, Proj1, RecNat, SimpleType, Succ, SumT, TT, Term,
    Var, Zero, _loose_range,
)

TypingContext = Mapping[str, SimpleType]

# The STLC type keywords, each with the constructor it names; pretty_type and
# the type parser in `surface.stlc_parser` both read this table.
TYPE_KEYWORDS = {"Nat": NatT, "Bool": BoolT}
_TYPE_WORDS = {cls: kw for kw, cls in TYPE_KEYWORDS.items()}


def pretty_type(ty: SimpleType) -> str:
    if type(ty) in _TYPE_WORDS:
        return _TYPE_WORDS[type(ty)]
    match ty:
        case Base(name=n):
            return n
        case Arrow(dom=d, cod=c):
            dd = pretty_type(d)
            if isinstance(d, Arrow):
                dd = f"({dd})"
            return f"{dd} -> {pretty_type(c)}"
        case Prod(left=l, right=r):
            return f"{_atom(l)} * {_atom(r)}"
        case SumT(left=l, right=r):
            return f"{_atom(l)} + {_atom(r)}"
    raise TypeError(ty)


def _atom(ty: SimpleType) -> str:
    s = pretty_type(ty)
    return f"({s})" if isinstance(ty, (Arrow, Prod, SumT)) else s


def infer_type(ctx: TypingContext, t: Term, stack: tuple[SimpleType, ...] = ()) -> SimpleType:
    """The unique type derivable for t; annotated binders keep this
    syntax-directed.

    A closed compound node that names no free variable keeps its type, and
    returns it when it is typed again. The runner inlines each `define` as
    one node object at every use, so a definition naming the previous one is
    typed once, not once per use. This cannot change a verdict:

    - such a term's type is a function of the term alone: the rules read
      `stack` only at a `Var` and `ctx` only at a `Free`, and every `Var` in
      it is bound by one of its own annotated binders;
    - nodes are immutable;
    - a failed inference raises before anything is stored.
    """
    ty = t._typed
    if ty is not None:
        return ty
    match t:
        case Var(index=k):
            if k >= len(stack):
                raise TypeCheckError(f"unbound de Bruijn index {k}")
            return stack[k]
        case Free(name=n):
            if n not in ctx:
                raise TypeCheckError(f"unbound variable {n}")
            return ctx[n]
        case Const(type=ty):
            return ty
        case Zero():
            return NatT()
        case TT() | FF():
            return BoolT()
        case Lam(dom=d, body=b):
            ty = Arrow(d, infer_type(ctx, b, (d,) + stack))
        case App(fn=f, arg=a):
            tf = infer_type(ctx, f, stack)
            if not isinstance(tf, Arrow):
                raise TypeCheckError(f"application of non-arrow type {pretty_type(tf)}")
            ta = infer_type(ctx, a, stack)
            if ta != tf.dom:
                raise TypeCheckError(
                    f"argument type {pretty_type(ta)} does not match domain {pretty_type(tf.dom)}"
                )
            ty = tf.cod
        case Pair(left=l, right=r):
            ty = Prod(infer_type(ctx, l, stack), infer_type(ctx, r, stack))
        case Proj0(pair=p) | Proj1(pair=p):
            tp = infer_type(ctx, p, stack)
            if not isinstance(tp, Prod):
                raise TypeCheckError(f"projection from non-product type {pretty_type(tp)}")
            ty = tp.left if isinstance(t, Proj0) else tp.right
        case Inj0(right=r, value=v):
            ty = SumT(infer_type(ctx, v, stack), r)
        case Inj1(left=l, value=v):
            ty = SumT(l, infer_type(ctx, v, stack))
        case Cases(on_left=f, on_right=g, scrutinee=s):
            ts = infer_type(ctx, s, stack)
            if not isinstance(ts, SumT):
                raise TypeCheckError(f"case analysis on non-sum type {pretty_type(ts)}")
            tf = infer_type(ctx, f, stack)
            tg = infer_type(ctx, g, stack)
            if not (isinstance(tf, Arrow) and tf.dom == ts.left):
                raise TypeCheckError("left branch must consume the left summand")
            if not (isinstance(tg, Arrow) and tg.dom == ts.right):
                raise TypeCheckError("right branch must consume the right summand")
            if tf.cod != tg.cod:
                raise TypeCheckError(
                    f"cases branch mismatch: {pretty_type(tf.cod)} vs {pretty_type(tg.cod)}"
                )
            ty = tf.cod
        case Succ(arg=a):
            ta = infer_type(ctx, a, stack)
            if not isinstance(ta, NatT):
                raise TypeCheckError(f"succ applied to {pretty_type(ta)}")
            ty = NatT()
        case RecNat(base=f, step=g, target=n):
            tn = infer_type(ctx, n, stack)
            if not isinstance(tn, NatT):
                raise TypeCheckError(f"recursor target has type {pretty_type(tn)}, not Nat")
            tf = infer_type(ctx, f, stack)
            tg = infer_type(ctx, g, stack)
            want = Arrow(NatT(), Arrow(tf, tf))
            if tg != want:
                raise TypeCheckError(
                    f"recursor step has type {pretty_type(tg)}, expected {pretty_type(want)}"
                )
            ty = tf
        case Cond(if_true=f, if_false=g, target=b):
            tb = infer_type(ctx, b, stack)
            if not isinstance(tb, BoolT):
                raise TypeCheckError(f"conditional target has type {pretty_type(tb)}, not Bool")
            tf = infer_type(ctx, f, stack)
            tg = infer_type(ctx, g, stack)
            if tf != tg:
                raise TypeCheckError(
                    f"conditional branches disagree: {pretty_type(tf)} vs {pretty_type(tg)}"
                )
            ty = tf
        case _:
            raise TypeError(t)
    if _loose_range(t) == 0:
        object.__setattr__(t, "_typed", ty)
    return ty
