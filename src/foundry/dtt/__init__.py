"""Intensional dependent type theory kernel."""

from .syntax import (  # noqa: F401
    App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id, IdCases,
    Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases,
    Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W, WRec,
    Zero, arrow, instantiate, numeral, numeral_value, shift, subst,
)
from .kernel import (  # noqa: F401
    DTT_AXIOMS, DttContext, KernelConfig, axiom_term, axiom_type, check,
    check_ctx, defeq, infer, normalize, prop_elim_guard, sort_of, whnf,
)
from .printer import pretty  # noqa: F401
