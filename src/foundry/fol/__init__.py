"""First-order logic: syntax, proof checking, theories, semantic oracles."""

from .. import lazy_names
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
    hilbert_axiom,
)
from .theory import (  # noqa: F401
    AxiomSchema, LogEntry, SchemaSlot, Theory, add_skolem_function,
    decidable_equality, exists_unique, extend_by_function,
    extend_by_relation, instantiate_schema, pure_theory,
    schema_recognizes, substitute_parallel,
)

# A check never evaluates a model, closes congruences, runs primitive
# recursion, transforms a Hilbert proof or builds a builtin theory, so these
# five modules load on first use of one of their names.
lazy_names(__name__, {
    "ADD": "primrec", "FACT": "primrec", "MUL": "primrec", "Comp": "primrec",
    "PrimRec": "primrec", "PrimRecDef": "primrec", "Proj": "primrec",
    "Succ": "primrec", "Zero": "primrec", "arity": "primrec",
    "eval_primrec": "primrec", "validate": "primrec",
    "Assignment": "semantics", "FiniteModel": "semantics",
    "KripkeModel": "semantics", "all_models": "semantics",
    "eval_term": "semantics", "forces": "semantics", "holds": "semantics",
    "search_countermodel": "semantics", "valid_in": "semantics",
    "CCResult": "congruence", "congruence_closure": "congruence",
    "model_from_partition": "congruence",
    "deduction_transform": "transforms", "hilbert_to_nd": "transforms",
    "builtin_theory": "builtin_theories",
    "pra_induction_schema": "builtin_theories",
    "replacement_schema": "builtin_theories",
    "separation_schema": "builtin_theories",
})
