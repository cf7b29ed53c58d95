"""The DTT kernel's head step as one `match`, before it became a table.

`_step` and `_HEAD_FIELD` below are the kernel's code, word for word, from
before its beta and iota rules moved into `dtt.kernel._STEP`, keyed by the
redex's class and then by its head's. `whnf` put the `_HEAD_FIELD` field of
a node in weak head normal form and then called `_step` on the node, which
returns the contractum or None. `whnf`, `instantiate` and `shift` are the
kernel's own: `tests/test_dtt_dispatch.py` compares the head steps alone.
"""

from foundry.dtt.kernel import KernelConfig, whnf
from foundry.dtt.syntax import (
    App, BoolCases, EmptyCases, Expr, FalseE, IdCases, Inl, Inr, Lam, NatRec,
    Pair, Refl, SigmaCases, Succ, SumCases, Sup, TrueE, Var, W, WRec, Zero,
    instantiate, shift,
)


def _step(cfg: KernelConfig, e: Expr) -> Expr | None:
    """One head reduction (beta or iota), or None. Axioms are inert."""
    match e:
        case App(fn=Lam(body=b), arg=a):
            return instantiate(b, a)
        case NatRec(base=b, target=Zero()):
            return b
        case NatRec(motive=m, base=b, step=s, target=Succ(arg=u)):
            return App(App(s, u), NatRec(m, b, s, u))
        case SigmaCases(branch=br, scrutinee=Pair(fst=a, snd=b)):
            return App(App(br, a), b)
        case IdCases(refl_case=rc, proof=Refl(term=z)):
            return App(rc, z)
        case BoolCases(if_true=t, target=TrueE()):
            return t
        case BoolCases(if_false=f, target=FalseE()):
            return f
        case SumCases(on_left=f, scrutinee=Inl(value=a)):
            return App(f, a)
        case SumCases(on_right=g, scrutinee=Inr(value=b)):
            return App(g, b)
        case WRec(motive=m, step=s, target=Sup(wtype=wty, label=a, children=f)):
            braw = whnf(cfg, wty)
            if not isinstance(braw, W):
                return None
            child_ty = instantiate(braw.cod, a)
            rec_children = Lam(
                child_ty,
                WRec(shift(m, 1), shift(s, 1), App(shift(f, 1), Var(0))),
                hint="y",
            )
            return App(App(App(s, a), f), rec_children)
    return None


_HEAD_FIELD = {
    App: "fn",
    NatRec: "target",
    SigmaCases: "scrutinee",
    IdCases: "proof",
    BoolCases: "target",
    SumCases: "scrutinee",
    WRec: "target",
    EmptyCases: "target",
}

