"""Syntax-directed type inference for the simply typed lambda calculus."""

from __future__ import annotations

from typing import Mapping

from ..errors import TypeCheckError
from .syntax import (
    App, Arrow, Base, BoolT, Cases, Cond, Const, FF, Free, Inj0, Inj1, Lam,
    NatT, Pair, Prod, Proj0, Proj1, RecNat, SimpleType, Succ, SumT, TT, Term,
    Var, Zero,
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
    syntax-directed."""
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
        case Lam(dom=d, body=b):
            return Arrow(d, infer_type(ctx, b, (d,) + stack))
        case App(fn=f, arg=a):
            tf = infer_type(ctx, f, stack)
            if not isinstance(tf, Arrow):
                raise TypeCheckError(f"application of non-arrow type {pretty_type(tf)}")
            ta = infer_type(ctx, a, stack)
            if ta != tf.dom:
                raise TypeCheckError(
                    f"argument type {pretty_type(ta)} does not match domain {pretty_type(tf.dom)}"
                )
            return tf.cod
        case Pair(left=l, right=r):
            return Prod(infer_type(ctx, l, stack), infer_type(ctx, r, stack))
        case Proj0(pair=p) | Proj1(pair=p):
            tp = infer_type(ctx, p, stack)
            if not isinstance(tp, Prod):
                raise TypeCheckError(f"projection from non-product type {pretty_type(tp)}")
            return tp.left if isinstance(t, Proj0) else tp.right
        case Inj0(right=ty, value=v):
            return SumT(infer_type(ctx, v, stack), ty)
        case Inj1(left=ty, value=v):
            return SumT(ty, infer_type(ctx, v, stack))
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
            return tf.cod
        case Zero():
            return NatT()
        case Succ(arg=a):
            ta = infer_type(ctx, a, stack)
            if not isinstance(ta, NatT):
                raise TypeCheckError(f"succ applied to {pretty_type(ta)}")
            return NatT()
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
            return tf
        case TT() | FF():
            return BoolT()
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
            return tf
    raise TypeError(t)
