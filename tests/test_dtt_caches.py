"""The DTT kernel's per-node caches cannot change a verdict.

A closed compound node keeps its inferred type together with the config
object that inferred it (`_typed`), and every compound node keeps its
loose-bvar range (`_loose`, checked against a naive walk in
test_dtt_subst.py). These tests pin down when a stored type may be reused:
only for the very config object that stored it, never after a failure, and
never in a way that makes a shared subterm behave differently from an
unshared copy.
"""

import random

import pytest

from foundry.dtt import (
    App, Axiom, Bool, BoolCases, DttContext, Id, KernelConfig, Lam, Nat, NatRec,
    Pair, PropSort, Refl, Sigma, SigmaCases, Succ, TrueE, Var, infer,
    numeral, pretty,
)
from foundry.errors import FoundryError, TypeCheckError

from helpers import is_node, replace
from helpers_dtt import gen_dtt_nat

CTX = DttContext()
NAT = Nat()
SIG_NN = Sigma(NAT, NAT)


def unshare(e):
    """A copy of e in which no two positions hold the same node object."""
    return replace(e, **{
        name: unshare(v)
        for name in e._fields
        if is_node(v := getattr(e, name))
    })


def outcome(cfg, e):
    try:
        ty = infer(cfg, CTX, e)
    except FoundryError as err:
        return ("error", type(err).__name__, err.tag, str(err))
    return ("ok", ty, pretty(ty))


def test_a_stored_type_serves_only_the_config_that_stored_it():
    default = KernelConfig()
    impredicative = KernelConfig(impredicative_prop=True)
    e = Lam(PropSort(), Var(0), hint="p")
    for _ in range(2):
        with pytest.raises(TypeCheckError) as err:
            infer(default, CTX, e)
        assert err.value.tag == "prop-disabled"
        assert pretty(infer(impredicative, CTX, e)) == "Prop -> Prop"
    with pytest.raises(TypeCheckError):
        infer(KernelConfig(), CTX, e)


def test_a_term_using_an_axiom_fails_again_once_the_axiom_is_off():
    without = KernelConfig()
    with_funext = KernelConfig(axioms=frozenset({"funext"}))
    e = App(Axiom("funext"), NAT)
    for _ in range(2):
        with pytest.raises(TypeCheckError) as err:
            infer(without, CTX, e)
        assert err.value.tag == "axiom-disabled"
        assert outcome(with_funext, e)[0] == "ok"
    with pytest.raises(TypeCheckError):
        infer(KernelConfig(), CTX, e)


def test_a_failed_inference_stores_nothing():
    cfg = KernelConfig()
    fn = Lam(NAT, Succ(Var(0)), hint="x")
    bad = App(fn, TrueE())
    for _ in range(2):
        with pytest.raises(TypeCheckError):
            infer(cfg, CTX, bad)
        assert "_typed" not in vars(bad)
    assert vars(fn)["_typed"][0] is cfg  # the well-typed part was kept


def test_caches_stay_out_of_equality_hash_repr_and_matching():
    e = NatRec(Lam(NAT, NAT, hint="_"), numeral(1), Lam(NAT, Lam(NAT, Succ(Var(0)))), numeral(2))
    twin = unshare(e)
    infer(KernelConfig(), CTX, e)
    assert set(vars(e)) - set(vars(twin)) == {"_typed", "_loose"}
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
    assert e._fields == ("motive", "base", "step", "target", "span")
    assert replace(e) == twin
    match e:
        case NatRec(m, b, s, target=Succ(arg=t)):
            assert (m, b, s, t) == (twin.motive, twin.base, twin.step, twin.target.arg)
        case _:
            pytest.fail("the pattern no longer matches")


SUCC_V0 = Succ(Var(0))  # one open body shared under binders of different types
STEP = Lam(NAT, Lam(NAT, SUCC_V0, hint="ih"), hint="n")


def _compound(rng, a, b):
    match rng.randrange(10):
        case 0:
            return Succ(a)
        case 1:
            return App(Lam(NAT, SUCC_V0, hint="x"), a)
        case 2:
            return App(Lam(Bool(), SUCC_V0, hint="x"), a)
        case 3:
            return NatRec(Lam(NAT, NAT, hint="_"), a, STEP, b)
        case 4:
            branch = Lam(NAT, Lam(NAT, Var(1), hint="y"), hint="x")
            return SigmaCases(Lam(SIG_NN, NAT, hint="_"), branch, Pair(SIG_NN, a, b))
        case 5:
            return BoolCases(Lam(Bool(), NAT, hint="_"), a, b, TrueE())
        case 6:
            return App(a, b)
        case 7:
            return Refl(NAT, a)
        case 8:
            return Id(NAT, a, b)
        case _:
            return Pair(SIG_NN, a, b)


def test_shared_subterms_type_like_an_unshared_copy():
    rng = random.Random(8)
    checked = 0
    for _ in range(40):
        pool = [numeral(2), TrueE(), NAT] + [gen_dtt_nat(rng, 2) for _ in range(3)]
        for _ in range(12):
            pool.append(_compound(rng, rng.choice(pool), rng.choice(pool)))
        cfg = KernelConfig()
        for e in pool[6:]:
            assert outcome(cfg, e) == outcome(KernelConfig(), unshare(e))
            checked += 1
    assert checked == 480
