import random

import pytest

from foundry import stlc
from foundry.errors import FuelError, TypeCheckError
from foundry.stlc import (
    App, Arrow, BETA_ETA, BETA_ONLY, Base, BoolT, Cond, DEFAULT_FLAGS, FF,
    Free, Lam, LEFTMOST_OUTERMOST, NatT, Pair, Prod, Proj0, Proj1, RecNat,
    RIGHTMOST_INNERMOST, ReductionFlags, Succ, TT, Var, Zero, equal_beta_eta,
    gen_term, gen_type, infer_type, normalize, numeral, numeral_value,
    reduce_step, CORPUS_SEED,
)


def test_infer_examples():
    t = Lam(Arrow(NatT(), NatT()), Lam(NatT(), App(Var(1), Succ(Succ(Var(0))))))
    assert infer_type({}, t) == Arrow(Arrow(NatT(), NatT()), Arrow(NatT(), NatT()))
    assert infer_type({"s": NatT(), "t": BoolT()}, Pair(Free("s"), Free("t"))) == Prod(NatT(), BoolT())
    with pytest.raises(TypeCheckError) as e:
        infer_type({}, App(Zero(), Zero()))
    assert "non-arrow" in str(e.value)


def test_reduce_step_examples():
    assert reduce_step(App(Lam(NatT(), Var(0)), Free("y"))) == Free("y")
    eta = Lam(NatT(), App(Free("f"), Var(0)))
    assert reduce_step(eta, BETA_ETA) == Free("f")
    assert reduce_step(eta, BETA_ONLY) is None
    r = RecNat(Free("f"), Free("g"), Succ(Zero()))
    stepped = reduce_step(r, DEFAULT_FLAGS)
    assert stepped == App(App(Free("g"), Zero()), RecNat(Free("f"), Free("g"), Zero()))


def test_normalize_examples():
    assert normalize(Cond(Free("f"), Free("g"), TT())) == Free("f")
    assert normalize(Proj0(Pair(Free("s"), Free("t")))) == Free("s")
    closed = RecNat(Zero(), Lam(NatT(), Lam(NatT(), Succ(Var(0)))), numeral(2))
    assert normalize(closed) == numeral(2)


def test_surjective_pairing_flag():
    p = Free("p")
    t = Pair(Proj0(p), Proj1(p))
    assert reduce_step(t, DEFAULT_FLAGS) is None
    sp = ReductionFlags(surjective_pairing=True)
    assert reduce_step(t, sp) == p


def test_equal_beta_eta_examples():
    ctx = {"f": Arrow(NatT(), NatT()), "y": NatT()}
    lam_eta = Lam(NatT(), App(Free("f"), Var(0)))
    assert equal_beta_eta(ctx, lam_eta, Free("f"), BETA_ETA)
    assert not equal_beta_eta(ctx, lam_eta, Free("f"), BETA_ONLY)
    assert equal_beta_eta(ctx, App(Lam(NatT(), Var(0)), Free("y")), Free("y"), BETA_ONLY)
    with pytest.raises(TypeCheckError):
        equal_beta_eta(ctx, Free("f"), Free("y"))


def test_equal_beta_eta_is_congruence():
    ctx = {"f": Arrow(NatT(), NatT())}
    s = Lam(NatT(), App(Free("f"), Var(0)))
    t = Free("f")
    # application congruence
    assert equal_beta_eta(ctx, App(s, Zero()), App(t, Zero()), BETA_ETA)
    # lambda congruence
    assert equal_beta_eta(ctx, Lam(NatT(), App(s, Var(0))), Lam(NatT(), App(t, Var(0))), BETA_ETA)


def test_subject_reduction_and_confluence_random():
    rng = random.Random(CORPUS_SEED)
    for _ in range(120):
        ty = gen_type(rng, 2)
        t = gen_term(rng, ty, 5)
        t0 = infer_type({}, t)
        cur = t
        for _ in range(10 ** 5):
            nxt = reduce_step(cur, DEFAULT_FLAGS)
            if nxt is None:
                break
            assert infer_type({}, nxt) == t0
            cur = nxt
        lo = normalize(t, DEFAULT_FLAGS, LEFTMOST_OUTERMOST)
        ri = normalize(t, DEFAULT_FLAGS, RIGHTMOST_INNERMOST)
        assert lo == ri
        assert reduce_step(lo, DEFAULT_FLAGS) is None


def test_numeral_canonicity_random():
    from foundry.stlc import gen_closed_nat

    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(60):
        t = gen_closed_nat(rng)
        assert infer_type({}, t) == NatT()
        nf = normalize(t)
        assert numeral_value(nf) is not None


def test_fuel_error_distinct():
    omega_ish = RecNat(Zero(), Lam(NatT(), Lam(NatT(), Succ(Var(0)))), numeral(50))
    with pytest.raises(FuelError):
        normalize(omega_ish, fuel=3)


def test_traced_eval_spends_the_fuel_once():
    from foundry.run import Options, run_script_text

    text = "eval {natrec 0 (fun (n : Nat) (ih : Nat) => succ (succ ih)) 30}\n"
    report = run_script_text("stlc", text, Options(trace=True, fuel=5))
    assert report.first_error().tag == "fuel-exhausted"
    assert 0 < len(report.trace) <= 5
    traced = run_script_text("stlc", text, Options(trace=True))
    plain = run_script_text("stlc", text)
    assert traced.ok and traced.results[0].output == plain.results[0].output == "60"
    assert len(traced.trace) > 5


@pytest.mark.parametrize("strategy", [LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST])
def test_fuel_bounds_contractions_only(strategy):
    t = RecNat(Zero(), Lam(NatT(), Lam(NatT(), Succ(Var(0)))), numeral(4))
    steps = []
    nf = normalize(t, strategy=strategy, on_step=lambda a, b: steps.append(b))
    n = len(steps)
    assert n > 0 and numeral_value(nf) == 4
    assert normalize(t, strategy=strategy, fuel=n) == nf
    with pytest.raises(FuelError):
        normalize(t, strategy=strategy, fuel=n - 1)
    assert normalize(nf, fuel=0) == nf
