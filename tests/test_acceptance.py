"""The acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
tolerances and corpus sizes are pinned here, not configurable.
"""

import copy
import dataclasses
import pathlib
import random
import time

import pytest

from foundry import dtt, fol, stlc
from foundry.errors import KernelError
from foundry.run import Options, run_script_text
from foundry.surface import parse_expr, parse_script, pretty

from helpers import (
    gen_formula, gen_ground_problem, gen_hilbert, gen_nd, ground_signature,
    nd_signature, sequent_valid,
)
from helpers_dtt import corpus_defs, fin_inhabitants, gen_dtt_nat

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_fol_soundness_oracle():
    theory = fol.pure_theory(nd_signature(), "intuitionistic")
    models = list(fol.all_models(theory.signature, 3))
    rng = random.Random(101)
    t0 = time.perf_counter()
    for i in range(200):
        d = gen_nd(rng, theory)
        cert = fol.check_nd(theory, d)
        for m in models:
            assert sequent_valid(m, cert.sequent), f"sequent {i} fails: {cert}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"200 certified sequents valid in all {len(models)} models of size <= 3 "
               f"({elapsed:.1f}s < 60s)")


def test_criterion_02_intuitionistic_separation():
    # the two-world Kripke model refutes P \/ ~P at its root
    obj = fol.Sort("obj")
    base = {obj: (0,)}
    k = fol.KripkeModel(
        worlds=("root", "top"),
        order=frozenset({("root", "top")}),
        models={
            "root": fol.FiniteModel(universes=base, relations={"P0": frozenset()}),
            "top": fol.FiniteModel(universes=base, relations={"P0": frozenset({()})}),
        },
    )
    em = fol.Or(fol.Rel("P0", ()), fol.neg(fol.Rel("P0", ())))
    assert not fol.forces(k, "root", {}, em)
    # while every classical model validates it
    sig = fol.single_sorted("obj").with_relation("P0", ())
    count = 0
    for m in fol.all_models(sig, 3):
        assert fol.valid_in(m, em)
        count += 1
    # and the checker rejects the whole negative derivation corpus
    r = run_script_text("fol", (CORPUS / "em_negative.fol").read_text(), Options(), "em_negative.fol")
    assert r.ok, r.first_error()
    rejected = sum(1 for x in r.results if x.command == "ExpectError")
    assert rejected == 5
    _report(2, f"Kripke root refutes excluded middle; {count} classical models validate it; "
               f"{rejected}/5 submitted derivations rejected")


def test_criterion_03_deduction_round_trip():
    theory = fol.pure_theory(nd_signature(), "intuitionistic")
    rng = random.Random(103)
    done = 0
    while done < 100:
        proof = gen_hilbert(rng, theory)
        cert = fol.check_hilbert(theory, proof)
        hyps = sorted(cert.hypotheses, key=fol.pretty_formula)
        if not hyps:
            continue
        a = rng.choice(hyps)
        out = fol.deduction_transform(theory, proof, a)
        cert2 = fol.check_hilbert(theory, out)
        assert fol.alpha_equal(cert2.conclusion, fol.Implies(a, cert.conclusion))
        assert a not in cert2.hypotheses
        lines = list(out.lines) + [fol.HypLine(a)]
        lines.append(fol.MpLine(len(lines) - 2, len(lines) - 1))
        cert3 = fol.check_hilbert(theory, fol.HilbertProof(tuple(lines)))
        assert fol.alpha_equal(cert3.conclusion, cert.conclusion)
        done += 1
    _report(3, "100 random Hilbert proofs: transform re-checks and modus ponens "
               "recovers the original conclusion")


def test_criterion_04_stlc_confluence_termination():
    rng = random.Random(stlc.CORPUS_SEED)
    t0 = time.perf_counter()
    for i in range(500):
        ty = stlc.gen_type(rng, 2)
        t = stlc.gen_term(rng, ty, 6)
        assert stlc.term_size(t) <= 120  # budgeted generation stays small
        t0ty = stlc.infer_type({}, t)
        cur = t
        steps = 0
        while True:
            nxt = stlc.reduce_step(cur, stlc.DEFAULT_FLAGS)
            if nxt is None:
                break
            steps += 1
            assert steps <= 10 ** 5, "fuel exhausted"
            assert stlc.infer_type({}, nxt) == t0ty, f"subject reduction fails at term {i}"
            cur = nxt
        ri = stlc.normalize(t, stlc.DEFAULT_FLAGS, stlc.RIGHTMOST_INNERMOST, fuel=10 ** 5)
        assert cur == ri, f"strategies disagree at term {i}"
    _report(4, f"500 random terms: both strategies agree, types preserved at every step, "
               f"fuel never exhausted ({time.perf_counter() - t0:.1f}s)")


def test_criterion_05_numeral_canonicity():
    rng = random.Random(105)
    for _ in range(100):
        t = stlc.gen_closed_nat(rng)
        assert stlc.infer_type({}, t) == stlc.NatT()
        assert stlc.numeral_value(stlc.normalize(t, fuel=10 ** 5)) is not None
    cfg = dtt.KernelConfig()
    ctx = dtt.DttContext()
    for _ in range(100):
        e = gen_dtt_nat(rng, 4)
        dtt.check(cfg, ctx, e, dtt.Nat())
        assert dtt.numeral_value(dtt.normalize(cfg, ctx, e)) is not None
    _report(5, "100 closed STLC terms and 100 closed DTT terms of type Nat "
               "all normalize to numerals")


def test_criterion_06_hol_diaconescu():
    text = (CORPUS / "diaconescu.hol").read_text()
    r = run_script_text("hol", text, Options(axioms=("choice", "propext")), "diaconescu.hol")
    assert r.ok, r.first_error()
    assert r.theorems_certified == 1
    final = r.results[-1]
    assert final.name == "excluded_middle" and "forall" in final.output
    r2 = run_script_text("hol", text, Options(axioms=("propext",)), "diaconescu.hol")
    err = r2.first_error()
    assert err is not None and err.tag == "axiom-disabled"
    _report(6, "shipped script certifies forall P. P \\/ ~P with choice+propext+eta; "
               "disabling choice fails with a dependency error")


def test_criterion_07_lcf_forging():
    from foundry.hol import HolTheorem, FVar, PROP, define_connectives, initial_state

    st, thms = define_connectives(initial_state())
    victim = thms["true"]
    bogus = FVar("p", PROP)
    attempts = 0
    with pytest.raises(KernelError):
        HolTheorem(frozenset(), bogus)
    attempts += 1
    with pytest.raises(KernelError):
        HolTheorem(frozenset(), bogus, _token=object())
    attempts += 1

    class Evil(HolTheorem):
        def __init__(self):
            super().__init__(frozenset(), bogus, _token=None)

    with pytest.raises(KernelError):
        Evil()
    attempts += 1
    with pytest.raises(AttributeError):
        victim.conclusion = bogus
    attempts += 1
    with pytest.raises(TypeError):
        dataclasses.replace(victim, conclusion=bogus)
    attempts += 1
    assert attempts == 5
    _report(7, "all five attempts to obtain a theorem outside the kernel API fail")


def test_criterion_08_dtt_regression_scripts():
    r = run_script_text("dtt", (CORPUS / "add_comm.dtt").read_text(), Options(), "add_comm.dtt")
    assert r.ok and r.theorems_certified == 1, r.first_error()

    r2 = run_script_text("dtt", (CORPUS / "girard.dtt").read_text(), Options(), "girard.dtt")
    err = r2.first_error()
    assert err is not None and err.tag == "universe-error"

    r3 = run_script_text("dtt", (CORPUS / "funext_stuck.dtt").read_text(), Options(), "funext_stuck.dtt")
    assert r3.ok, r3.first_error()
    out = [x.output for x in r3.results if x.command == "Eval"][-1]
    assert "axiom funext" in out

    fin = corpus_defs("fin.dtt")["fin"]
    counts = [len(fin_inhabitants(dtt.KernelConfig(), fin, n)) for n in range(5)]
    assert counts == [0, 1, 2, 3, 4]
    _report(8, "add-commutativity checks; Type:Type rejected with a universe error; "
               f"funext-stuck normal form keeps the axiom; Fin counts {counts}")


def test_criterion_09_congruence_closure_vs_oracle():
    rng = random.Random(109)
    t0 = time.perf_counter()
    n_valid = n_refuted = 0
    for i in range(500):
        eqs, goal, consts, fns = gen_ground_problem(rng)
        result = fol.congruence_closure(eqs, goal)
        sig = ground_signature(consts, fns)
        eq_forms = [fol.Eq(l, r) for (l, r) in eqs]
        goal_form = fol.Eq(*goal)
        if result.valid:
            assert fol.search_countermodel(sig, eq_forms, goal_form, 4) is None, i
            n_valid += 1
        else:
            model = fol.model_from_partition(sig, result.partition)
            for f in eq_forms:
                assert fol.holds(model, {}, f), i
            assert not fol.holds(model, {}, goal_form), i
            n_refuted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(9, f"500 ground problems, zero disagreements ({n_valid} valid, {n_refuted} "
               f"refuted by their partition models; {elapsed:.1f}s < 120s)")


def test_criterion_10_pra_evaluator():
    import math

    for x in range(11):
        for y in range(11):
            assert fol.eval_primrec(fol.ADD, (x, y)) == x + y
            assert fol.eval_primrec(fol.MUL, (x, y)) == x * y
        assert fol.eval_primrec(fol.FACT, (x,)) == math.factorial(x)
    _report(10, "primitive recursive add, mul, factorial agree with machine "
                "arithmetic for all arguments <= 10")


def test_criterion_11_parser_round_trip_and_fuzz():
    from helpers_dtt import gen_dtt_nat
    from test_surface import _gen_hol
    from foundry.hol import PROP, IND, fn, define_connectives, initial_state

    rng = random.Random(111)
    sig = nd_signature()
    st, _ = define_connectives(initial_state())
    count = 0
    for _ in range(300):
        a = gen_formula(rng, rng.randrange(4))
        env = {v.name: v.sort for v in fol.free_vars(a)}
        assert fol.alpha_equal(a, parse_expr("fol", pretty("fol", a), signature=sig, var_sorts=env))
        count += 1
    for _ in range(300):
        t = stlc.gen_term(rng, stlc.gen_type(rng, 2), 4)
        assert parse_expr("stlc", pretty("stlc", t)) == t
        count += 1
    for _ in range(250):
        e = gen_dtt_nat(rng, 3)
        assert parse_expr("dtt", pretty("dtt", e)) == e
        count += 1
    for _ in range(150):
        h = _gen_hol(rng, st, rng.choice([PROP, fn(IND, PROP)]), 3, [])
        assert parse_expr("hol", pretty("hol", h), state=st) == h
        count += 1
    assert count == 1000

    # fuzz: 10^4 byte-level mutations of valid scripts never crash the parser
    seeds = [
        (CORPUS / "add_comm.dtt").read_text(),
        (CORPUS / "fol_basics.fol").read_text(),
        (CORPUS / "connectives.hol").read_text(),
        (CORPUS / "diaconescu.hol").read_text(),
        (CORPUS / "stlc_basics.stlc").read_text(),
    ]
    alphabet = "abcxyzPQ(){}[]:=->,~/\\ \n0123456789'"
    crashes = 0
    for _ in range(10 ** 4):
        text = rng.choice(seeds)
        chars = list(text)
        for _ in range(rng.randrange(1, 8)):
            pos = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[pos] = rng.choice(alphabet)
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(alphabet))
        try:
            parse_script("".join(chars))
        except Exception as e:
            from foundry.errors import FoundryError

            if not isinstance(e, FoundryError):
                crashes += 1
    assert crashes == 0
    _report(11, "1000 generated ASTs round-trip alpha-equal across all calculi; "
                "10^4 fuzzed inputs produce no crash")
