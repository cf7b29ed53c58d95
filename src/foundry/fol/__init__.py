"""First-order logic: syntax, proof checking, theories, semantic oracles."""

from .syntax import (  # noqa: F401
    And, App, Bot, BVar, Eq, Exists, Formula, Forall, FVar, Implies, Or, Rel,
    Signature, Sort, Term, alpha_equal, check_well_formed, const, exists,
    forall, forall_many, free_vars, fresh_name, iff, is_sentence, neg,
    open_binder, pretty_formula, pretty_term, single_sorted, subst_in_term,
    substitute, term_free_vars, term_sort,
)
from .proof import (  # noqa: F401
    AllE, AllI, AndE1, AndE2, AndI, BotE, CertifiedSequent, EqRefl,
    EqSubstForm, EqSubstTerm, ExE, ExI, Hyp, ImpE, ImpI, NdDerivation, OrE,
    OrI1, OrI2, Raa, Sequent, Weaken, check_nd,
)
from .hilbert import (  # noqa: F401
    AllLine, AxLine, ExLine, HilbertProof, HypLine, MpLine, check_hilbert,
    deduction_transform, hilbert_axiom, hilbert_to_nd,
)
from .theory import (  # noqa: F401
    AxiomSchema, LogEntry, SchemaSlot, Theory, add_skolem_function,
    builtin_theory, decidable_equality, exists_unique, extend_by_function,
    extend_by_relation, instantiate_schema, pure_theory,
    schema_recognizes, separation_schema, pra_induction_schema,
    replacement_schema, substitute_parallel,
)
from .primrec import (  # noqa: F401
    ADD, FACT, MUL, Comp, PrimRec, PrimRecDef, Proj, Succ, Zero, arity,
    eval_primrec, validate,
)
from .semantics import (  # noqa: F401
    Assignment, FiniteModel, KripkeModel, all_models, eval_term, forces,
    holds, search_countermodel, valid_in,
)
from .congruence import CCResult, congruence_closure, model_from_partition  # noqa: F401
