import random

import pytest

from foundry import fol
from foundry.errors import ProofError
from foundry.fol import (
    AllLine, AndE1, AndE2, AndI, AxLine, CertifiedSequent, ExLine, FVar,
    HilbertProof, Hyp, HypLine, ImpI, MpLine, Raa, Rel, Sort, alpha_equal,
    check_hilbert, check_nd, deduction_transform, exists, forall,
    hilbert_axiom, neg, pure_theory,
)

from helpers import OBJ, gen_hilbert, gen_nd, nd_signature, sequent_valid

A, B = Rel("A", ()), Rel("B", ())


def theory(mode="intuitionistic"):
    return pure_theory(nd_signature(), mode)


def test_nd_two_imp_intros_is_hilbert_axiom_one():
    d = ImpI(A, ImpI(B, Hyp(A)))
    cert = check_nd(theory(), d)
    assert not cert.hypotheses
    assert alpha_equal(cert.conclusion, hilbert_axiom("intuitionistic", 1, (A, B)))


def test_nd_and_swap_validated_by_models():
    d = AndI(AndE2(Hyp(fol.And(A, B))), AndE1(Hyp(fol.And(A, B))))
    cert = check_nd(theory(), d)
    assert cert.hypotheses == frozenset({fol.And(A, B)})
    assert alpha_equal(cert.conclusion, fol.And(B, A))
    for model in fol.all_models(theory().signature, 3):
        assert sequent_valid(model, cert.sequent)


def test_nd_raa_rejected_intuitionistically():
    d = Raa(A, Hyp(fol.Bot()))
    with pytest.raises(ProofError) as e:
        check_nd(theory(), d)
    assert "classical rule in intuitionistic mode" in str(e.value)
    cert = check_nd(theory("classical"), Raa(A, Hyp(fol.Bot())))
    assert neg(A) not in cert.hypotheses


def test_nd_eigenvariable_condition():
    x = FVar("x", OBJ)
    p = Rel("P", (x,))
    d = fol.AllI(x, Hyp(p))
    with pytest.raises(ProofError) as e:
        check_nd(theory(), d)
    assert "eigenvariable" in str(e.value)


def test_nd_error_paths_are_reported():
    d = AndI(AndE1(Hyp(A)), Hyp(B))
    with pytest.raises(ProofError) as e:
        check_nd(theory(), d)
    assert "root.left" in str(e.value)


def test_hilbert_imp_refl_five_lines():
    th = theory("classical")
    proof = HilbertProof(
        (
            AxLine(2, (A, fol.Implies(A, A), A)),
            AxLine(1, (A, fol.Implies(A, A))),
            MpLine(0, 1),
            AxLine(1, (A, A)),
            MpLine(2, 3),
        )
    )
    cert = check_hilbert(th, proof)
    assert alpha_equal(cert.conclusion, fol.Implies(A, A))
    assert not cert.hypotheses


def test_hilbert_schema_10():
    th = theory()
    x = FVar("x", OBJ)
    quant = forall(x, Rel("P", (x,)))
    t = FVar("y", OBJ)
    f = hilbert_axiom(th.mode, 10, (quant, t))
    assert alpha_equal(f, fol.Implies(quant, Rel("P", (t,))))
    cert = check_hilbert(th, HilbertProof((AxLine(10, (quant, t)),)))
    assert alpha_equal(cert.conclusion, f)


def test_hilbert_all_rule_side_condition():
    th = theory()
    x = FVar("x", OBJ)
    p = Rel("P", (x,))
    # axiom instance P(x) -> (A -> P(x)); generalizing x violates the side
    # condition because x is free in the antecedent
    proof = HilbertProof((AxLine(1, (p, A)), AllLine(0, x)))
    with pytest.raises(ProofError) as e:
        check_hilbert(th, proof)
    assert "free in the antecedent" in str(e.value)
    # and hypotheses must be sentences outright
    with pytest.raises(ProofError) as e2:
        check_hilbert(th, HilbertProof((HypLine(p),)))
    assert "sentences" in str(e2.value)


def test_hilbert_classical_mode_swaps_axiom_nine():
    assert alpha_equal(
        hilbert_axiom("classical", 9, (A,)), fol.Implies(neg(neg(A)), A)
    )
    assert alpha_equal(
        hilbert_axiom("intuitionistic", 9, (A,)), fol.Implies(fol.Bot(), A)
    )


def test_deduction_base_case():
    th = theory()
    proof = HilbertProof((HypLine(A),))
    out = deduction_transform(th, proof, A)
    cert = check_hilbert(th, out)
    assert not cert.hypotheses
    assert alpha_equal(cert.conclusion, fol.Implies(A, A))


def test_deduction_discharges_one_of_two():
    th = theory()
    imp = fol.Implies(A, B)
    proof = HilbertProof((HypLine(imp), HypLine(A), MpLine(0, 1)))
    out = deduction_transform(th, proof, A)
    cert = check_hilbert(th, out)
    assert cert.hypotheses == frozenset({imp})
    assert alpha_equal(cert.conclusion, fol.Implies(A, B))


def test_deduction_invalid_input_propagates():
    th = theory()
    proof = HilbertProof((HypLine(A), MpLine(0, 0)))
    with pytest.raises(ProofError):
        deduction_transform(th, proof, A)


def test_deduction_quantifier_guard():
    th = theory()
    x = FVar("x", OBJ)
    p = Rel("P", (x,))
    # from hypothesis P(x) |- P(x) -> P(x), then generalize x
    proof = HilbertProof(
        (
            AxLine(1, (p, p)),
            HypLine(forall(x, p)),
            AxLine(10, (forall(x, p), x)),
            MpLine(2, 1),
            AxLine(1, (p, forall(x, p))),
            MpLine(4, 3),
            AllLine(5, x),
        )
    )
    check_hilbert(th, proof)
    with pytest.raises(ProofError) as e:
        deduction_transform(th, proof, p)  # x is free in the hypothesis
    assert "generalizes" in str(e.value)


def test_random_deduction_round_trip():
    th = theory()
    rng = random.Random(7)
    done = 0
    while done < 25:
        proof = gen_hilbert(rng, th)
        cert = check_hilbert(th, proof)
        hyps = sorted(cert.hypotheses, key=fol.pretty_formula)
        if not hyps:
            continue
        a = rng.choice(hyps)
        out = deduction_transform(th, proof, a)
        cert2 = check_hilbert(th, out)
        assert alpha_equal(cert2.conclusion, fol.Implies(a, cert.conclusion))
        assert a not in cert2.hypotheses
        # recompose with modus ponens
        lines = list(out.lines)
        lines.append(HypLine(a))
        lines.append(MpLine(len(lines) - 2, len(lines) - 1))
        cert3 = check_hilbert(th, HilbertProof(tuple(lines)))
        assert alpha_equal(cert3.conclusion, cert.conclusion)
        done += 1


def test_certified_sequent_cannot_be_forged():
    th = theory()
    with pytest.raises(ProofError):
        CertifiedSequent(None, th)


def test_hilbert_to_nd_translation_oracle():
    from foundry.fol.transforms import hilbert_to_nd

    th = theory()
    # the five-line I-combinator proof re-checks as a derivation
    proof = HilbertProof(
        (
            AxLine(2, (A, fol.Implies(A, A), A)),
            AxLine(1, (A, fol.Implies(A, A))),
            MpLine(0, 1),
            AxLine(1, (A, A)),
            MpLine(2, 3),
        )
    )
    cert = fol.check_hilbert(th, proof)
    d = hilbert_to_nd(th, proof)
    cert_nd = fol.check_nd(th, d)
    assert fol.alpha_equal(cert_nd.conclusion, cert.conclusion)
    assert cert_nd.hypotheses <= cert.hypotheses


def test_hilbert_to_nd_on_random_proofs():
    import random

    from foundry.fol.transforms import hilbert_to_nd
    from helpers import gen_hilbert

    for mode in ("intuitionistic", "classical"):
        th = theory(mode)
        rng = random.Random(31)
        for _ in range(40):
            proof = gen_hilbert(rng, th)
            cert = fol.check_hilbert(th, proof)
            cert_nd = fol.check_nd(th, hilbert_to_nd(th, proof))
            assert fol.alpha_equal(cert_nd.conclusion, cert.conclusion)
            assert cert_nd.hypotheses <= cert.hypotheses


@pytest.mark.parametrize("mode", ["intuitionistic", "classical"])
def test_every_schema_instance_translates_to_a_derivation_of_it(mode):
    from foundry.fol.hilbert import FILLERS
    from foundry.fol.transforms import hilbert_to_nd

    th = theory(mode)
    x, y, z = (FVar(n, OBJ) for n in "xyz")
    px, qz = Rel("P", (x,)), Rel("Q", (z,))
    C = Rel("C", ())
    payloads = {
        1: (A, B), 2: (A, B, C), 3: (A, B), 4: (A, B), 5: (A, B), 6: (A, B),
        7: (A, B), 8: (A, B, C), 9: (A,), 10: (forall(x, px), y),
        11: (exists(x, px), y), 12: (OBJ,), 13: (z, z), 14: (fol.And(qz, Rel("P", (y,))), z),
    }
    assert set(payloads) == set(FILLERS)
    for schema, payload in payloads.items():
        proof = HilbertProof((AxLine(schema, payload),))
        cert = check_hilbert(th, proof)
        cert_nd = check_nd(th, hilbert_to_nd(th, proof))
        assert alpha_equal(cert_nd.conclusion, cert.conclusion), schema
        assert not cert_nd.hypotheses and not cert.hypotheses
