"""LCF-style simple type theory kernel and its derived-logic layer."""

from .kernel import (  # noqa: F401
    ALPHA, Abs, App, BVar, Const, ConstDecl, EPS, EQ, FVar, HolTerm,
    HolTheorem, HolType, IND, KernelState, PROP, TyApp, TyVar, abs_over,
    abstract_fvar, axiom, axiom_statement, check_term, check_type,
    defining_theorem, dest_eq, fn, free_vars, initial_state, inst_term,
    inst_type, mk_eq, mk_eq_at, new_definition,
    new_type_definition, open_term, pretty_type, standard_definitions,
    subst_fvars, term_ty_subst, term_ty_vars, type_match, type_of,
    type_subst, ty_vars,
)
from .kernel import (  # noqa: F401
    ABS, ASSUME, BETA, DEDUCT_ANTISYM, EQ_MP, ETA, MK_COMB, REFL, TRANS,
)
from .derived import (  # noqa: F401
    AP_TERM, AP_THM, CONJ, CONJUNCT1, CONJUNCT2, CONTR, CONV_RULE, DISCH,
    DISJ1, DISJ2, DISJ_CASES, EQT_ELIM, EQT_INTRO, EXISTS, EXT, GEN, MP,
    NOT_ELIM, NOT_INTRO, SPEC, SYM, TRUTH, UNDISCH, apply_def_conv,
    beta_conv, define_connectives, fold_rule, mk_conj, mk_disj,
    mk_exists_pred, mk_forall, mk_imp, mk_neg, spine_beta, unfold_rule,
)
from .printer import pretty_term  # noqa: F401
