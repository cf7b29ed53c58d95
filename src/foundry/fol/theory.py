"""Theories: named axioms, axiom schemas and definitional extensions.

A theory is an immutable value; every extension returns a new theory and
appends to the definition log so conservativity can be audited. Schemas are
stored as templates with placeholder relations (names starting with '?');
instantiation opens binders with fresh variables, splices the fillers in, and
universally closes any leftover parameters. The builtin theories Q, PRA, ZF
and ZFC are built from these in `builtin_theories.py`.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import TheoryError
from ..span import EMPTY, grown, node
from .proof import CertifiedSequent
from .syntax import (
    And,
    App,
    Eq,
    Exists,
    Formula,
    Forall,
    FVar,
    Implies,
    Or,
    Rel,
    Signature,
    Sort,
    Term,
    _map_formula,
    _map_term,
    alpha_equal,
    check_well_formed,
    exists,
    forall,
    forall_many,
    free_vars,
    fresh_name,
    iff,
    is_sentence,
    neg,
    open_binder,
    pretty_formula,
    single_sorted,
    substitute,
)


def substitute_parallel(a: Formula, mapping: Mapping[FVar, Term]) -> Formula:
    """Simultaneous capture-free substitution of several free variables.

    One pass replaces each mapped variable by its term; the inserted terms
    are not walked again, so a variable they contain is never replaced.
    """
    if not mapping:
        return a
    return _map_formula(a, lambda t, _depth: _map_term(t, lambda v: mapping.get(v, v)))


@node
class SchemaSlot:
    """A schema's formula placeholder, its parameters and what instances may not use."""

    placeholder: str
    params: tuple[FVar, ...]
    forbidden: frozenset = frozenset()
    quantifier_free: bool = False


@node
class AxiomSchema:
    """A formula-with-holes plus per-slot side conditions."""

    name: str
    template: Formula
    slots: tuple[SchemaSlot, ...]

    def slot(self, placeholder: str) -> SchemaSlot:
        for s in self.slots:
            if s.placeholder == placeholder:
                return s
        raise TheoryError(f"schema {self.name} has no slot {placeholder}")


def _is_quantifier_free(a: Formula) -> bool:
    match a:
        case Forall() | Exists():
            return False
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return _is_quantifier_free(l) and _is_quantifier_free(r)
        case _:
            return True


def instantiate_schema(schema: AxiomSchema, fillers) -> Formula:
    """Build the closed axiom instance; extra free parameters of the fillers
    are implicitly universally quantified on the outside."""
    if len(fillers) != len(schema.slots):
        raise TheoryError(
            f"schema {schema.name} takes {len(schema.slots)} filler(s), got {len(fillers)}"
        )
    by_slot = dict(zip((s.placeholder for s in schema.slots), fillers))
    taken = set()
    for slot, filler in zip(schema.slots, fillers):
        names = {v.name for v in free_vars(filler)}
        bad = names & set(slot.forbidden)
        if bad:
            raise TheoryError(
                f"schema {schema.name}: forbidden variable {sorted(bad)[0]} occurs in the filler"
            )
        if slot.quantifier_free and not _is_quantifier_free(filler):
            raise TheoryError(f"schema {schema.name}: filler must be quantifier-free")
        taken |= names
        taken |= {p.name for p in slot.params}

    def fill(a: Formula) -> Formula:
        match a:
            case Rel(name=n, args=args) if n.startswith("?"):
                slot = schema.slot(n)
                if len(args) != len(slot.params):
                    raise TheoryError(f"schema {schema.name}: bad arity at {n}")
                return substitute_parallel(by_slot[n], dict(zip(slot.params, args)))
            case And(left=l, right=r):
                return And(fill(l), fill(r))
            case Or(left=l, right=r):
                return Or(fill(l), fill(r))
            case Implies(left=l, right=r):
                return Implies(fill(l), fill(r))
            case Forall(sort=s, body=_, hint=h) | Exists(sort=s, body=_, hint=h):
                x = FVar(fresh_name(h or "v", taken), s)
                taken.add(x.name)
                opened = fill(open_binder(a, x))
                return forall(x, opened) if isinstance(a, Forall) else exists(x, opened)
            case _:
                return a

    instance = fill(schema.template)
    extras = sorted(free_vars(instance), key=lambda v: v.name)
    return forall_many(extras, instance)


def schema_recognizes(schema: AxiomSchema, candidate: Formula) -> bool:
    """Is the candidate an instance of the schema (any order of the outer
    parameter quantifiers)?"""
    peeled: list[FVar] = []
    body = candidate
    used = {v.name for v in free_vars(candidate)}

    def try_match(body: Formula, extras: list[FVar]) -> bool:
        occurrences: list[tuple[str, tuple, Formula]] = []

        def walk(tpl: Formula, cand: Formula) -> bool:
            match tpl:
                case Rel(name=n, args=args) if n.startswith("?"):
                    occurrences.append((n, args, cand))
                    return True
                case And(left=l1, right=r1):
                    return (
                        isinstance(cand, And) and walk(l1, cand.left) and walk(r1, cand.right)
                    )
                case Or(left=l1, right=r1):
                    return isinstance(cand, Or) and walk(l1, cand.left) and walk(r1, cand.right)
                case Implies(left=l1, right=r1):
                    return (
                        isinstance(cand, Implies)
                        and walk(l1, cand.left)
                        and walk(r1, cand.right)
                    )
                case Forall(sort=s1) | Exists(sort=s1):
                    if type(cand) is not type(tpl) or cand.sort != s1:
                        return False
                    x = FVar(fresh_name("m", used), s1)
                    used.add(x.name)
                    return walk(open_binder(tpl, x), open_binder(cand, x))
                case _:
                    return tpl == cand

        if not walk(schema.template, body):
            return False
        # solve each slot from an occurrence applied to distinct variables
        fillers: dict[str, Formula] = {}
        for slot in schema.slots:
            hits = [(args, sub) for (n, args, sub) in occurrences if n == slot.placeholder]
            if not hits:
                return False
            solved = None
            for args, sub in hits:
                if all(isinstance(t, FVar) for t in args) and len(set(args)) == len(args):
                    solved = substitute_parallel(sub, dict(zip(args, slot.params)))
                    break
            if solved is None:
                return False
            if slot.quantifier_free and not _is_quantifier_free(solved):
                return False
            fillers[slot.placeholder] = solved
        allowed = set()
        for slot in schema.slots:
            allowed |= set(slot.params)
        allowed |= set(extras)
        for f in fillers.values():
            if not free_vars(f) <= allowed:
                return False
        # verify every occurrence, not just the solving one
        for (n, args, sub) in occurrences:
            slot = schema.slot(n)
            expect = substitute_parallel(fillers[n], dict(zip(slot.params, args)))
            if not alpha_equal(expect, sub):
                return False
        return True

    while True:
        if try_match(body, peeled):
            return True
        if isinstance(body, Forall):
            x = FVar(fresh_name("p", used), body.sort)
            used.add(x.name)
            peeled.append(x)
            body = open_binder(body, x)
        else:
            return False


# ---------------------------------------------------------------------------
# Theories


@node
class LogEntry:
    """One extension of a theory, recorded in its definition log."""

    kind: str
    name: str
    detail: str = ""


@node
class Theory:
    """A signature, axioms and schemas, in a logic mode, with its extension log."""

    name: str
    signature: Signature
    axioms: Mapping[str, Formula] = EMPTY
    schemas: Mapping[str, AxiomSchema] = EMPTY
    mode: str = "classical"
    definition_log: tuple = ()

    def __post_init__(self):
        if self.mode not in ("classical", "intuitionistic"):
            raise TheoryError(f"unknown logic mode {self.mode}")
        for name, a in self.axioms.items():
            self._check_axiom(name, a)
        # The axioms' formulas, for lookup by `proves_outright`: alpha-equal
        # formulas are `==`, so a set finds any axiom alpha-equal to a query.
        object.__setattr__(self, "_formulas", frozenset(self.axioms.values()))

    def _check_axiom(self, name: str, a: Formula) -> None:
        check_well_formed(self.signature, a)
        if not is_sentence(a):
            raise TheoryError(f"axiom {name} is not a sentence")

    def _grown(self, **changes) -> "Theory":
        """This theory with fields changed, its axioms not checked again.

        Each axiom is checked once, as it enters: by the constructor or by
        `with_axiom`. Callers change only the log, the axioms by `with_axiom`
        and the signature by its `with_*` methods, and an axiom well formed
        over a signature stays so when sorts and symbols are added.
        """
        return grown(self, **changes)

    def with_axiom(self, name: str, a: Formula) -> "Theory":
        if name in self.axioms:
            raise TheoryError(f"axiom name {name} already used")
        self._check_axiom(name, a)
        return self._grown(axioms={**self.axioms, name: a}, _formulas=self._formulas | {a})

    def log(self, entry: LogEntry) -> "Theory":
        return self._grown(definition_log=self.definition_log + (entry,))

    def proves_outright(self, a: Formula) -> bool:
        """Is the formula available without proof: an axiom or an instance of
        one of the theory's schemas?"""
        if a in self._formulas:
            return True
        return any(schema_recognizes(s, a) for s in self.schemas.values())


def pure_theory(sig: Signature | None = None, mode: str = "classical", name: str = "logic") -> Theory:
    return Theory(name=name, signature=sig or single_sorted(), mode=mode)


def _require_certificate(theory: Theory, cert, statement: Formula, what: str) -> None:
    if not isinstance(cert, CertifiedSequent):
        raise TheoryError(f"{what} requires a certified sequent")
    if cert.theory is not theory and cert.theory.axioms != theory.axioms:
        raise TheoryError(f"{what} certificate was checked against a different theory")
    if not alpha_equal(cert.conclusion, statement):
        raise TheoryError(
            f"{what} certificate proves {pretty_formula(cert.conclusion)}, "
            f"expected {pretty_formula(statement)}"
        )
    for h in cert.hypotheses:
        if not theory.proves_outright(h):
            raise TheoryError(
                f"{what} certificate cites {pretty_formula(h)}, which is not in the theory"
            )


def exists_unique(y: FVar, a: Formula) -> Exists:
    """∃!y A per the standard expansion ∃y (A(y) ∧ ∀z (A(z) ⟹ z = y))."""
    taken = {v.name for v in free_vars(a)} | {y.name}
    z = FVar(fresh_name("z", taken), y.sort)
    inner = forall(z, Implies(substitute(a, y, z), Eq(z, y)))
    return exists(y, And(a, inner))


def extend_by_relation(theory: Theory, name: str, definition: Formula, params: tuple[FVar, ...]) -> Theory:
    """Declare R(params) with defining axiom ∀params (R(params) ⟺ definition)."""
    if name in theory.signature.relations or name in theory.signature.functions:
        raise TheoryError(f"symbol {name} already declared")
    if free_vars(definition) != frozenset(params):
        raise TheoryError(
            "the definition's free variables must be exactly the designated parameters"
        )
    check_well_formed(theory.signature, forall_many(params, definition))
    sig = theory.signature.with_relation(name, tuple(p.sort for p in params))
    axiom = forall_many(params, iff(Rel(name, tuple(params)), definition))
    out = theory._grown(signature=sig).with_axiom(f"def_{name}", axiom)
    return out.log(LogEntry("relation-definition", name, pretty_formula(definition)))


def extend_by_function(
    theory: Theory,
    name: str,
    definition: Formula,
    params: tuple[FVar, ...],
    result: FVar,
    uniqueness: CertifiedSequent,
) -> Theory:
    """Definite description: given ⊢ ∀params ∃!result definition, declare f
    with axiom ∀params definition[f(params)/result]."""
    if name in theory.signature.relations or name in theory.signature.functions:
        raise TheoryError(f"symbol {name} already declared")
    if free_vars(definition) != frozenset(params) | {result}:
        raise TheoryError("definition must use exactly the parameters and the result variable")
    statement = forall_many(params, exists_unique(result, definition))
    _require_certificate(theory, uniqueness, statement, "function definition")
    sig = theory.signature.with_function(name, tuple(p.sort for p in params), result.sort)
    witness = App(name, tuple(params))
    axiom = forall_many(params, substitute(definition, result, witness))
    out = theory._grown(signature=sig).with_axiom(f"def_{name}", axiom)
    return out.log(LogEntry("function-definition", name, pretty_formula(definition)))


def decidable_equality(sort: Sort) -> Formula:
    x, y = FVar("x", sort), FVar("y", sort)
    return forall(x, forall(y, Or(Eq(x, y), neg(Eq(x, y)))))


def add_skolem_function(
    theory: Theory,
    name: str,
    definition: Formula,
    params: tuple[FVar, ...],
    result: FVar,
    existence: CertifiedSequent,
) -> Theory:
    """Indefinite description: existence only. Conservative classically, or
    intuitionistically in the presence of decidable equality."""
    if name in theory.signature.relations or name in theory.signature.functions:
        raise TheoryError(f"symbol {name} already declared")
    if theory.mode != "classical":
        wanted = decidable_equality(result.sort)
        if wanted not in theory._formulas:
            raise TheoryError(
                "indefinite descriptions need classical logic or the decidable-equality axiom"
            )
    if free_vars(definition) != frozenset(params) | {result}:
        raise TheoryError("definition must use exactly the parameters and the result variable")
    statement = forall_many(params, exists(result, definition))
    _require_certificate(theory, existence, statement, "skolem function")
    sig = theory.signature.with_function(name, tuple(p.sort for p in params), result.sort)
    witness = App(name, tuple(params))
    axiom = forall_many(params, substitute(definition, result, witness))
    out = theory._grown(signature=sig).with_axiom(f"def_{name}", axiom)
    return out.log(LogEntry("skolem-function", name, "indefinite-description"))
