"""Simply typed lambda calculus with Nat/Bool/products/sums."""

from .. import lazy_names
from .syntax import (  # noqa: F401
    App, Arrow, Base, BoolT, Cases, Cond, Const, FF, Free, Inj0, Inj1, Lam,
    NatT, Pair, Prod, Proj0, Proj1, RecNat, SimpleType, Succ, SumT, Term, TT,
    Var, VOID, Zero, abstract_free, beta_reduce, free_names, numeral,
    numeral_value, shift, subst, var_free_in,
)
from .typing import TypingContext, infer_type, pretty_type  # noqa: F401
from .reduce import (  # noqa: F401
    BETA_ETA, BETA_ONLY, DEFAULT_FLAGS, LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST, ReductionFlags, contract, equal_beta_eta, normalize,
    reduce_step,
)

# A check never runs the proofs-as-terms bridge, which loads FOL, or the term
# generator, so these two modules load on first use of one of their names.
lazy_names(__name__, {
    "efq": "bridge", "formula_to_type": "bridge", "from_nd": "bridge",
    "to_nd": "bridge", "type_to_formula": "bridge",
    "CORPUS_SEED": "generate", "gen_closed_nat": "generate",
    "gen_term": "generate", "gen_type": "generate", "term_size": "generate",
})
