"""Natural deduction proof objects and their checker.

Derivations are explicit trees; every node's concluded sequent is recomputed
from its rule and premises, so a derivation that checks is correct by
construction. Eigenvariable side conditions follow the standard convention
(the variable must not survive free in the hypotheses / conclusion), which
the rule figure leaves implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import ProofError
from .syntax import (
    And,
    Bot,
    Eq,
    Exists,
    Formula,
    Forall,
    FVar,
    Implies,
    Or,
    Term,
    alpha_equal,
    check_well_formed,
    forall,
    free_vars,
    neg,
    open_binder,
    pretty_formula,
    subst_in_term,
    substitute,
    term_sort,
)


@dataclass(frozen=True)
class Sequent:
    """Hypotheses and a conclusion: the judgement a derivation proves."""

    hypotheses: frozenset
    conclusion: Formula

    def __str__(self) -> str:
        hyps = ", ".join(sorted(pretty_formula(h) for h in self.hypotheses))
        return f"{hyps} |- {pretty_formula(self.conclusion)}" if hyps else f"|- {pretty_formula(self.conclusion)}"


_CERT_TOKEN = object()


class CertifiedSequent:
    """A sequent that has passed a checker. Only check_nd / check_hilbert
    construct these (LCF-light); theory extensions demand them."""

    __slots__ = ("sequent", "theory")

    def __init__(self, sequent: Sequent, theory, *, _token=None):
        if _token is not _CERT_TOKEN:
            raise ProofError("certified sequents are produced only by the proof checkers")
        object.__setattr__(self, "sequent", sequent)
        object.__setattr__(self, "theory", theory)

    def __setattr__(self, name, value):
        raise AttributeError("certified sequents are immutable")

    @property
    def hypotheses(self):
        return self.sequent.hypotheses

    @property
    def conclusion(self):
        return self.sequent.conclusion

    def __str__(self) -> str:
        return str(self.sequent)


def _certify(sequent: Sequent, theory) -> CertifiedSequent:
    return CertifiedSequent(sequent, theory, _token=_CERT_TOKEN)


# ---------------------------------------------------------------------------
# Derivation nodes (one per Fig-style rule, plus ex falso, RAA and weakening)


@dataclass(frozen=True)
class Hyp:
    """Natural deduction: assume a formula."""

    formula: Formula


@dataclass(frozen=True)
class AndI:
    """Natural deduction: conjunction introduction."""

    left: "NdDerivation"
    right: "NdDerivation"


@dataclass(frozen=True)
class AndE1:
    """Natural deduction: the left conjunct of a conjunction."""

    premise: "NdDerivation"


@dataclass(frozen=True)
class AndE2:
    """Natural deduction: the right conjunct of a conjunction."""

    premise: "NdDerivation"


@dataclass(frozen=True)
class OrI1:
    """Natural deduction: a disjunction from its left disjunct."""

    premise: "NdDerivation"
    right: Formula


@dataclass(frozen=True)
class OrI2:
    """Natural deduction: a disjunction from its right disjunct."""

    left: Formula
    premise: "NdDerivation"


@dataclass(frozen=True)
class OrE:
    """Natural deduction: disjunction elimination by cases."""

    disjunction: "NdDerivation"
    left_case: "NdDerivation"
    right_case: "NdDerivation"


@dataclass(frozen=True)
class ImpI:
    """Natural deduction: implication introduction, discharging an assumption."""

    assumption: Formula
    premise: "NdDerivation"


@dataclass(frozen=True)
class ImpE:
    """Natural deduction: modus ponens."""

    implication: "NdDerivation"
    argument: "NdDerivation"


@dataclass(frozen=True)
class BotE:
    """Natural deduction: any formula from falsity."""

    target: Formula
    premise: "NdDerivation"


@dataclass(frozen=True)
class Raa:
    """Natural deduction: reductio ad absurdum, classical mode only."""

    target: Formula
    premise: "NdDerivation"


@dataclass(frozen=True)
class AllI:
    """Natural deduction: universal introduction over a fresh variable."""

    var: FVar
    premise: "NdDerivation"


@dataclass(frozen=True)
class AllE:
    """Natural deduction: universal elimination at a term."""

    premise: "NdDerivation"
    term: Term


@dataclass(frozen=True)
class ExI:
    """Natural deduction: existential introduction from a witness."""

    target: Exists
    witness: Term
    premise: "NdDerivation"


@dataclass(frozen=True)
class ExE:
    """Natural deduction: existential elimination through a fresh variable."""

    existential: "NdDerivation"
    var: FVar
    case: "NdDerivation"


@dataclass(frozen=True)
class EqRefl:
    """Natural deduction: a term equals itself."""

    term: Term


@dataclass(frozen=True)
class EqSubstTerm:
    """Natural deduction: rewrite an equation's sides inside a term template."""

    premise: "NdDerivation"
    template: Term
    hole: FVar


@dataclass(frozen=True)
class EqSubstForm:
    """Natural deduction: rewrite by an equation inside a formula template."""

    equation: "NdDerivation"
    premise: "NdDerivation"
    template: Formula
    hole: FVar


@dataclass(frozen=True)
class Weaken:
    """Natural deduction: add unused hypotheses."""

    extra: frozenset
    premise: "NdDerivation"


NdDerivation = Union[
    Hyp, AndI, AndE1, AndE2, OrI1, OrI2, OrE, ImpI, ImpE, BotE, Raa,
    AllI, AllE, ExI, ExE, EqRefl, EqSubstTerm, EqSubstForm, Weaken,
]


def check_nd(theory, derivation: NdDerivation) -> CertifiedSequent:
    """Check a derivation against the theory's signature and logic mode;
    returns the root sequent, certified."""
    sequent = _check(theory, derivation, "root")
    return _certify(sequent, theory)


def _fail(path: str, msg: str):
    raise ProofError(f"at {path}: {msg}")


def _wf(theory, a: Formula, path: str) -> None:
    try:
        check_well_formed(theory.signature, a)
    except Exception as e:
        _fail(path, f"ill-formed formula {pretty_formula(a)}: {e}")


def _hyps_free_vars(hyps) -> frozenset:
    out = frozenset()
    for h in hyps:
        out |= free_vars(h)
    return out


def _check(theory, d: NdDerivation, path: str) -> Sequent:
    match d:
        case Hyp(formula=a):
            _wf(theory, a, path)
            return Sequent(frozenset({a}), a)

        case AndI(left=l, right=r):
            sl = _check(theory, l, path + ".left")
            sr = _check(theory, r, path + ".right")
            return Sequent(sl.hypotheses | sr.hypotheses, And(sl.conclusion, sr.conclusion))

        case AndE1(premise=p) | AndE2(premise=p):
            sp = _check(theory, p, path + ".premise")
            if not isinstance(sp.conclusion, And):
                _fail(path, f"premise concludes {pretty_formula(sp.conclusion)}, not a conjunction")
            side = sp.conclusion.left if isinstance(d, AndE1) else sp.conclusion.right
            return Sequent(sp.hypotheses, side)

        case OrI1(premise=p, right=b):
            sp = _check(theory, p, path + ".premise")
            _wf(theory, b, path)
            return Sequent(sp.hypotheses, Or(sp.conclusion, b))

        case OrI2(left=a, premise=p):
            sp = _check(theory, p, path + ".premise")
            _wf(theory, a, path)
            return Sequent(sp.hypotheses, Or(a, sp.conclusion))

        case OrE(disjunction=dj, left_case=lc, right_case=rc):
            sd = _check(theory, dj, path + ".disjunction")
            if not isinstance(sd.conclusion, Or):
                _fail(path, f"major premise concludes {pretty_formula(sd.conclusion)}, not a disjunction")
            a, b = sd.conclusion.left, sd.conclusion.right
            sl = _check(theory, lc, path + ".left_case")
            sr = _check(theory, rc, path + ".right_case")
            if not alpha_equal(sl.conclusion, sr.conclusion):
                _fail(path, "case conclusions differ")
            hyps = sd.hypotheses | (sl.hypotheses - {a}) | (sr.hypotheses - {b})
            return Sequent(hyps, sl.conclusion)

        case ImpI(assumption=a, premise=p):
            _wf(theory, a, path)
            sp = _check(theory, p, path + ".premise")
            return Sequent(sp.hypotheses - {a}, Implies(a, sp.conclusion))

        case ImpE(implication=i, argument=arg):
            si = _check(theory, i, path + ".implication")
            if not isinstance(si.conclusion, Implies):
                _fail(path, f"major premise concludes {pretty_formula(si.conclusion)}, not an implication")
            sa = _check(theory, arg, path + ".argument")
            if not alpha_equal(si.conclusion.left, sa.conclusion):
                _fail(
                    path,
                    f"minor premise {pretty_formula(sa.conclusion)} does not match "
                    f"antecedent {pretty_formula(si.conclusion.left)}",
                )
            return Sequent(si.hypotheses | sa.hypotheses, si.conclusion.right)

        case BotE(target=a, premise=p):
            _wf(theory, a, path)
            sp = _check(theory, p, path + ".premise")
            if not isinstance(sp.conclusion, Bot):
                _fail(path, "ex falso premise does not conclude false")
            return Sequent(sp.hypotheses, a)

        case Raa(target=a, premise=p):
            if theory.mode != "classical":
                _fail(path, "classical rule in intuitionistic mode")
            _wf(theory, a, path)
            sp = _check(theory, p, path + ".premise")
            if not isinstance(sp.conclusion, Bot):
                _fail(path, "reductio premise does not conclude false")
            return Sequent(sp.hypotheses - {neg(a)}, a)

        case AllI(var=x, premise=p):
            sp = _check(theory, p, path + ".premise")
            if x in _hyps_free_vars(sp.hypotheses):
                _fail(path, f"eigenvariable {x.name} occurs free in surviving hypotheses")
            return Sequent(sp.hypotheses, forall(x, sp.conclusion))

        case AllE(premise=p, term=t):
            sp = _check(theory, p, path + ".premise")
            if not isinstance(sp.conclusion, Forall):
                _fail(path, "premise is not universally quantified")
            got = term_sort(theory.signature, t)
            if got != sp.conclusion.sort:
                _fail(path, f"instantiating term has sort {got}, binder wants {sp.conclusion.sort}")
            return Sequent(sp.hypotheses, open_binder(sp.conclusion, t))

        case ExI(target=tgt, witness=t, premise=p):
            if not isinstance(tgt, Exists):
                _fail(path, "target of existence introduction must be existential")
            _wf(theory, tgt, path)
            got = term_sort(theory.signature, t)
            if got != tgt.sort:
                _fail(path, f"witness has sort {got}, binder wants {tgt.sort}")
            sp = _check(theory, p, path + ".premise")
            if not alpha_equal(sp.conclusion, open_binder(tgt, t)):
                _fail(
                    path,
                    f"premise {pretty_formula(sp.conclusion)} is not the target "
                    f"instantiated at the witness",
                )
            return Sequent(sp.hypotheses, tgt)

        case ExE(existential=e, var=x, case=c):
            se = _check(theory, e, path + ".existential")
            if not isinstance(se.conclusion, Exists):
                _fail(path, "major premise is not existentially quantified")
            if x.sort != se.conclusion.sort:
                _fail(path, "eigenvariable sort does not match the binder")
            if x in free_vars(se.conclusion):
                _fail(path, f"eigenvariable {x.name} occurs free in the existential premise")
            opened = open_binder(se.conclusion, x)
            sc = _check(theory, c, path + ".case")
            if x in free_vars(sc.conclusion):
                _fail(path, f"eigenvariable {x.name} occurs free in the conclusion")
            if x in _hyps_free_vars(sc.hypotheses - {opened}):
                _fail(path, f"eigenvariable {x.name} occurs free in surviving hypotheses")
            return Sequent(se.hypotheses | (sc.hypotheses - {opened}), sc.conclusion)

        case EqRefl(term=t):
            term_sort(theory.signature, t)
            return Sequent(frozenset(), Eq(t, t))

        case EqSubstTerm(premise=p, template=t, hole=x):
            sp = _check(theory, p, path + ".premise")
            if not isinstance(sp.conclusion, Eq):
                _fail(path, "premise is not an equation")
            r, s = sp.conclusion.lhs, sp.conclusion.rhs
            if term_sort(theory.signature, r) != x.sort:
                _fail(path, "hole sort does not match the equation's sort")
            term_sort(theory.signature, t)
            return Sequent(
                sp.hypotheses,
                Eq(subst_in_term(t, x, r), subst_in_term(t, x, s)),
            )

        case EqSubstForm(equation=e, premise=p, template=a, hole=x):
            se = _check(theory, e, path + ".equation")
            if not isinstance(se.conclusion, Eq):
                _fail(path, "first premise is not an equation")
            r, s = se.conclusion.lhs, se.conclusion.rhs
            if term_sort(theory.signature, r) != x.sort:
                _fail(path, "hole sort does not match the equation's sort")
            _wf_template(theory, a, x, path)
            sp = _check(theory, p, path + ".premise")
            if not alpha_equal(sp.conclusion, substitute(a, x, r)):
                _fail(path, "second premise is not the template at the equation's left side")
            return Sequent(se.hypotheses | sp.hypotheses, substitute(a, x, s))

        case Weaken(extra=extra, premise=p):
            for h in extra:
                _wf(theory, h, path)
            sp = _check(theory, p, path + ".premise")
            return Sequent(sp.hypotheses | frozenset(extra), sp.conclusion)

    raise ProofError(f"at {path}: unknown derivation node {type(d).__name__}")


def _wf_template(theory, a: Formula, hole: FVar, path: str) -> None:
    # the template may mention the hole variable; it is checked after filling
    try:
        check_well_formed(theory.signature, a)
    except Exception as e:
        _fail(path, f"ill-formed template {pretty_formula(a)}: {e}")
