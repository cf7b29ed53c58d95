import random

import pytest

from foundry.dtt import (
    App, Axiom, Bool, DttContext, Empty, Id, IdCases, KernelConfig, Lam, Nat,
    NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases, Star, Succ, Sum,
    TypeSort, Unit, Var, W, WRec, Zero, axiom_term, check, check_ctx,
    defeq, infer, normalize, numeral, numeral_value,
    prop_elim_guard, shift, sort_of, whnf,
)
from foundry.errors import FuelError, TypeCheckError, UniverseError
from foundry.surface.parsers import parse_expr

from helpers_dtt import contains_axiom, corpus_defs, fin_inhabitants, gen_dtt_nat

CFG = KernelConfig()
CTX = DttContext()


def test_check_ctx_cases():
    good = DttContext().extend("a", TypeSort(0)).extend("x", Var(0))
    check_ctx(CFG, good)
    bad = DttContext().extend("x", Var(0)).extend("a", TypeSort(0))
    with pytest.raises(TypeCheckError):
        check_ctx(CFG, bad)
    with pytest.raises(TypeCheckError):
        check_ctx(CFG, DttContext().extend("x", Zero()))
    with pytest.raises(TypeCheckError):
        check_ctx(CFG, DttContext().extend("a", TypeSort(0)).extend("a", TypeSort(0)))


def test_infer_polymorphic_identity_lands_one_up():
    tid = Lam(TypeSort(0), Lam(Var(0), Var(0)))
    ty = infer(CFG, CTX, tid)
    assert ty == Pi(TypeSort(0), Pi(Var(0), Var(1)))
    assert sort_of(CFG, CTX, ty) == TypeSort(1)


def test_infer_natrec_motive_shape():
    m = Lam(Nat(), TypeSort(0))
    with pytest.raises(TypeCheckError) as e:
        infer(CFG, CTX, NatRec(Zero(), Zero(), Zero(), Zero()))
    # a proper dependent eliminator checks out at the displayed type
    motive = Lam(Nat(), Nat())
    step = Lam(Nat(), Lam(Nat(), Succ(Var(0))))
    assert defeq(CFG, CTX, infer(CFG, CTX, NatRec(motive, Zero(), step, numeral(3))), Nat())


def test_pi_formation_takes_the_larger_universe():
    pi = Pi(TypeSort(1), TypeSort(0))
    assert infer(CFG, CTX, pi) == TypeSort(2)
    pi2 = Pi(Nat(), Nat())
    assert infer(CFG, CTX, pi2) == TypeSort(0)


def test_check_reduces_inside_types():
    # checking snd (a, b) against the codomain instantiated at fst (a, b)
    sig = Sigma(Nat(), Nat())
    p = Pair(sig, numeral(1), numeral(2))
    fst = SigmaCases(Lam(sig, Nat()), Lam(Nat(), Lam(Nat(), Var(1))), p)
    motive = Lam(Nat(), TypeSort(0))
    # Id Nat (fst p) 1 is a type that only checks if fst p reduces
    ty = Id(Nat(), fst, numeral(1))
    check(CFG, CTX, Refl(Nat(), numeral(1)), ty)


def test_cumulativity_flag():
    cfg = KernelConfig(cumulativity=True)
    check(cfg, CTX, Nat(), TypeSort(1))
    with pytest.raises(UniverseError):
        check(CFG, CTX, Nat(), TypeSort(1))


def test_girard_guard():
    for cfg in (CFG, KernelConfig(cumulativity=True)):
        with pytest.raises(UniverseError):
            check(cfg, CTX, TypeSort(0), TypeSort(0))
        with pytest.raises(UniverseError):
            check(cfg, CTX, TypeSort(3), TypeSort(3))


def test_defeq_examples():
    sig = Sigma(Nat(), Nat())
    p = Pair(sig, numeral(1), numeral(2))
    fst = SigmaCases(Lam(sig, Nat()), Lam(Nat(), Lam(Nat(), Var(1))), p)
    snd = SigmaCases(Lam(sig, Nat()), Lam(Nat(), Lam(Nat(), Var(0))), p)
    assert defeq(CFG, CTX, fst, numeral(1))
    assert defeq(CFG, CTX, snd, numeral(2))
    motive = Lam(Nat(), Nat())
    step = Lam(Nat(), Lam(Nat(), Succ(Var(0))))
    u = numeral(1)
    lhs = NatRec(motive, Zero(), step, Succ(u))
    rhs = App(App(step, u), NatRec(motive, Zero(), step, u))
    assert defeq(CFG, CTX, lhs, rhs)


def test_defeq_equivalence_and_congruence_random():
    rng = random.Random(99)
    terms = [gen_dtt_nat(rng, 3) for _ in range(40)]
    for t in terms:
        assert defeq(CFG, CTX, t, t)
        nf = normalize(CFG, CTX, t)
        assert defeq(CFG, CTX, t, nf) and defeq(CFG, CTX, nf, t)
        # congruence under an application context
        ctxt = Lam(Nat(), Succ(Var(0)))
        assert defeq(CFG, CTX, App(ctxt, t), App(ctxt, nf))
    # transitivity on a chain
    a, b = terms[0], normalize(CFG, CTX, terms[0])
    c = App(Lam(Nat(), Var(0)), b)
    assert defeq(CFG, CTX, a, b) and defeq(CFG, CTX, b, c) and defeq(CFG, CTX, a, c)


def test_subject_reduction_random():
    rng = random.Random(7)
    for _ in range(40):
        t = gen_dtt_nat(rng, 3)
        ty = infer(CFG, CTX, t)
        nf = normalize(CFG, CTX, t)
        assert defeq(CFG, CTX, infer(CFG, CTX, nf), ty)


def test_canonicity_without_axioms():
    rng = random.Random(12)
    for _ in range(60):
        t = gen_dtt_nat(rng, 4)
        check(CFG, CTX, t, Nat())
        assert numeral_value(normalize(CFG, CTX, t)) is not None


def test_add_commutativity_proof_checks():
    defs = corpus_defs("add_comm.dtt")
    stated = parse_expr("dtt", "Pi (x : Nat) (y : Nat), Id Nat (add x y) (add y x)", defs=defs)
    check(CFG, CTX, defs["add_comm"], stated)
    two_plus_three = App(App(defs["add"], numeral(2)), numeral(3))
    assert numeral_value(normalize(CFG, CTX, two_plus_three)) == 5


def test_normalize_wrec_unfolds_and_axioms_stick():
    cfg = KernelConfig(axioms=frozenset({"funext"}))
    ax, axty = axiom_term(cfg, "funext")
    check(cfg, CTX, ax, axty)
    stuck = normalize(cfg, CTX, App(Lam(axty, Var(0)), ax))
    assert contains_axiom(stuck)


def test_axiom_terms_and_gating():
    cfgp = KernelConfig(impredicative_prop=True, axioms=frozenset({"choice", "propext", "K", "funext"}))
    t, ty = axiom_term(cfgp, "choice")
    assert isinstance(ty, Pi) and ty.dom == TypeSort(0)
    check(cfgp, CTX, t, ty)
    for name in ("propext", "K", "funext"):
        t2, ty2 = axiom_term(cfgp, name)
        check(cfgp, CTX, t2, ty2)
    with pytest.raises(TypeCheckError) as e:
        axiom_term(KernelConfig(), "K")
    assert e.value.tag == "axiom-disabled"
    with pytest.raises(TypeCheckError):
        axiom_term(KernelConfig(axioms=frozenset({"choice"})), "choice")  # needs Prop


def test_prop_elim_guard_cases():
    cfgp = KernelConfig(impredicative_prop=True)
    ex = Sigma(Nat(), Id(Nat(), Var(0), Var(0)), in_prop=True)
    wit = Pair(ex, numeral(3), Refl(Nat(), numeral(3)))
    branch_fst = Lam(Nat(), Lam(Id(Nat(), Var(0), Var(0)), Var(1)))
    bad = SigmaCases(Lam(ex, Nat()), branch_fst, wit)
    with pytest.raises(TypeCheckError) as e:
        prop_elim_guard(cfgp, CTX, bad)
    assert e.value.tag == "prop-elimination"
    small = SigmaCases(
        Lam(ex, Id(Nat(), Zero(), Zero())),
        Lam(Nat(), Lam(Id(Nat(), Var(0), Var(0)), Refl(Nat(), Zero()))),
        wit,
    )
    prop_elim_guard(cfgp, CTX, small)
    sub = Sigma(Nat(), Id(Nat(), Var(0), Var(0)))
    wit2 = Pair(sub, numeral(3), Refl(Nat(), numeral(3)))
    fst2 = SigmaCases(Lam(sub, Nat()), branch_fst, wit2)
    assert defeq(cfgp, CTX, fst2, numeral(3))


def test_definitional_proof_irrelevance():
    cfgi = KernelConfig(impredicative_prop=True, proof_irrelevance=True)
    ty = Id(Nat(), Zero(), Zero())
    h1 = Refl(Nat(), Zero())
    h2 = IdCases(
        Lam(Nat(), Lam(Nat(), Lam(Id(Nat(), Var(1), Var(0)), Id(Nat(), Var(2), Var(1))))),
        Lam(Nat(), Refl(Nat(), Var(0))),
        Zero(), Zero(), Refl(Nat(), Zero()),
    )
    check(cfgi, CTX, h1, ty)
    check(cfgi, CTX, h2, ty)
    assert defeq(cfgi, CTX, h1, h2, ty=ty)
    cfg_no = KernelConfig(impredicative_prop=True)
    assert defeq(cfg_no, CTX, h1, h2)  # these happen to reduce to the same refl


def test_eta_for_pi_flag():
    f = Lam(Pi(Nat(), Nat()), Var(0))
    lam_eta = Lam(Pi(Nat(), Nat()), Lam(Nat(), App(Var(1), Var(0))))
    cfg_eta = KernelConfig(eta_for_pi=True)
    assert defeq(cfg_eta, CTX, f, lam_eta)
    assert not defeq(CFG, CTX, f, lam_eta)


def test_fin_has_exactly_n_inhabitants():
    fin = corpus_defs("fin.dtt")["fin"]
    for n in range(5):
        assert len(fin_inhabitants(CFG, fin, n)) == n


def test_fuel_exhaustion_is_distinct():
    big = App(App(corpus_defs("add_comm.dtt")["add"], numeral(50)), numeral(50))
    with pytest.raises(FuelError):
        normalize(CFG, CTX, big, fuel=10)


def test_prop_disabled_without_flag():
    with pytest.raises(TypeCheckError) as e:
        infer(CFG, CTX, PropSort())
    assert e.value.tag == "prop-disabled"
    with pytest.raises(TypeCheckError):
        infer(CFG, CTX, Sigma(Nat(), Id(Nat(), Var(0), Var(0)), in_prop=True))
