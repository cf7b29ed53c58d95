import itertools
import random

import pytest

from foundry import fol
from foundry.errors import SemanticsError
from foundry.run import run_script_text
from foundry.fol import (
    App, Eq, FiniteModel, FVar, KripkeModel, Rel, Sort, eval_term, exists,
    forall, forces, holds, neg, open_binder, search_countermodel, substitute,
    valid_in,
)

from helpers import OBJ, gen_formula, nd_signature

X, Y = FVar("x", OBJ), FVar("y", OBJ)


def test_eval_term_tables():
    m = FiniteModel(
        universes={OBJ: ("a", "b")},
        functions={"c": {(): "a"}, "f": {("a",): "b", ("b",): "b"}, "g": {("a",): "a", ("b",): "a"}},
    )
    assert eval_term(m, {}, App("c", ())) == "a"
    assert eval_term(m, {X: "a"}, App("f", (X,))) == "b"
    assert eval_term(m, {}, App("g", (App("f", (App("c", ()),)),))) == "a"
    with pytest.raises(SemanticsError):
        eval_term(m, {}, X)


def test_holds_examples():
    m = FiniteModel(universes={OBJ: (0, 1)}, relations={"E": frozenset({(0, 1)})})
    assert holds(m, {}, exists(X, exists(Y, Rel("E", (X, Y)))))
    assert not holds(m, {}, forall(X, Rel("E", (X, X))))


def test_two_point_geometry():
    point, line = Sort("Point"), Sort("Line")
    m = FiniteModel(
        universes={point: ("p", "q"), line: ("l",)},
        relations={"on": frozenset({("p", "l"), ("q", "l")})},
    )
    p, q, L = FVar("p", point), FVar("q", point), FVar("L", line)
    stmt = forall(p, forall(q, exists(L, fol.And(Rel("on", (p, L)), Rel("on", (q, L))))))
    assert holds(m, {}, stmt)


REL_SIG = fol.Signature(frozenset({OBJ}), relations={"R": (OBJ,), "E": (OBJ, OBJ)})
REL_UNIVERSES = {OBJ: ("a", "b")}


def test_validate_rejects_a_relation_tuple_of_the_wrong_arity():
    tables = {"R": frozenset({("a",), ("b", "a", "a")}), "E": frozenset()}
    m = FiniteModel(universes=REL_UNIVERSES, relations=tables)
    with pytest.raises(SemanticsError, match=r"relation table R holds \('b', 'a', 'a'\) of arity 3, not 1"):
        m.validate(REL_SIG)


def test_validate_rejects_a_relation_element_outside_its_universe():
    tables = {"R": frozenset({("a",)}), "E": frozenset({("a", "b"), ("a", "z"), ("y", "a")})}
    m = FiniteModel(universes=REL_UNIVERSES, relations=tables)
    with pytest.raises(SemanticsError, match=r"relation table E leaves the universe at \('a', 'z'\)"):
        m.validate(REL_SIG)
    FiniteModel(universes=REL_UNIVERSES, relations={"R": tables["R"], "E": frozenset({("a", "b")})}).validate(REL_SIG)


def test_check_rejects_a_script_model_with_a_bad_relation_table():
    text = "sort S\nrel R : (S)\nmodel m {\n  sort S = { a }\n  rel R = { (b, a, a) }\n}\n"
    err = run_script_text("fol", text, filename="bad.fol").first_error()
    assert (err.command, err.tag, err.line, err.col) == ("ModelDef", "semantics-error", 3, 1)
    assert err.message == "relation table R holds ('b', 'a', 'a') of arity 3, not 1"


def test_holds_respects_substitution():
    rng = random.Random(5)
    m = FiniteModel(
        universes={OBJ: (0, 1)},
        relations={
            "A": frozenset({()}), "B": frozenset(), "C": frozenset({()}),
            "P": frozenset({(0,)}), "Q": frozenset({(1,)}),
        },
    )
    Z = FVar("z", OBJ)
    for _ in range(100):
        a = gen_formula(rng, 2)
        t = rng.choice([X, Y])
        sigma = {v: rng.choice((0, 1)) for v in (X, Y, Z)}
        lhs = holds(m, sigma, substitute(a, X, t))
        rhs = holds(m, {**sigma, X: eval_term(m, sigma, t)}, a)
        assert lhs == rhs


def _p_atom():
    return Rel("P0", ())


def two_world_kripke() -> KripkeModel:
    base = {OBJ: (0,)}
    m_root = FiniteModel(universes=base, relations={"P0": frozenset()})
    m_top = FiniteModel(universes=base, relations={"P0": frozenset({()})})
    return KripkeModel(
        worlds=("root", "top"),
        order=frozenset({("root", "top")}),
        models={"root": m_root, "top": m_top},
    )


def test_kripke_refutes_excluded_middle_at_root():
    k = two_world_kripke()
    em = fol.Or(_p_atom(), neg(_p_atom()))
    assert not forces(k, "root", {}, em)
    assert forces(k, "top", {}, em)


def test_every_classical_model_validates_excluded_middle():
    sig = fol.single_sorted("obj").with_relation("P0", ())
    em = fol.Or(_p_atom(), neg(_p_atom()))
    for m in fol.all_models(sig, 2):
        assert valid_in(m, em)


def test_forces_implication_reflexive_and_atomic_monotone():
    k = two_world_kripke()
    a = _p_atom()
    assert forces(k, "root", {}, fol.Implies(a, a))
    assert forces(k, "top", {}, a)


def _random_kripke(rng: random.Random):
    worlds = [f"w{i}" for i in range(rng.randrange(1, 4))]
    order = set()
    for i in range(len(worlds)):
        for j in range(i + 1, len(worlds)):
            if rng.random() < 0.6:
                order.add((worlds[i], worlds[j]))
    # universes grow along the chain; atoms accumulate
    models = {}
    acc_univ: dict[str, set] = {}
    acc_p: dict[str, set] = {}
    acc_q: dict[str, set] = {}
    acc_a: dict[str, set] = {}
    for i, w in enumerate(worlds):
        u = {0} | {e for e in (1,) if rng.random() < 0.5}
        p = {(e,) for e in u if rng.random() < 0.4}
        q = {(e,) for e in u if rng.random() < 0.4}
        a = {()} if rng.random() < 0.3 else set()
        for (lo, hi) in order:
            if hi == w:
                u |= acc_univ[lo]
                p |= acc_p[lo]
                q |= acc_q[lo]
                a |= acc_a[lo]
        acc_univ[w], acc_p[w], acc_q[w], acc_a[w] = u, p, q, a
        models[w] = FiniteModel(
            universes={OBJ: tuple(sorted(u))},
            relations={"P": frozenset(p), "Q": frozenset(q), "A": frozenset(a),
                       "B": frozenset(), "C": frozenset()},
        )
    return KripkeModel(worlds=tuple(worlds), order=frozenset(order), models=models)


def test_forces_monotone_on_generated_models():
    rng = random.Random(11)
    for _ in range(40):
        k = _random_kripke(rng)
        for _ in range(10):
            a = gen_formula(rng, rng.randrange(4))
            fvs = sorted(fol.free_vars(a), key=lambda v: v.name)
            for w in k.worlds:
                univ = k.models[w].universe(OBJ)
                for vals in itertools.product(univ, repeat=len(fvs)):
                    sigma = dict(zip(fvs, vals))
                    if forces(k, w, sigma, a):
                        for v in k.above(w):
                            assert forces(k, v, sigma, a)


def test_one_world_kripke_collapses_to_classical():
    rng = random.Random(13)
    for _ in range(60):
        m = FiniteModel(
            universes={OBJ: (0, 1)},
            relations={
                "A": frozenset({()} if rng.random() < 0.5 else set()),
                "B": frozenset(), "C": frozenset({()}),
                "P": frozenset({(e,) for e in (0, 1) if rng.random() < 0.5}),
                "Q": frozenset({(e,) for e in (0, 1) if rng.random() < 0.5}),
            },
        )
        k = KripkeModel(worlds=("w",), order=frozenset(), models={"w": m})
        a = gen_formula(rng, 3)
        if fol.free_vars(a):
            continue
        assert forces(k, "w", {}, a) == holds(m, {}, a)


def test_kripke_monotonicity_is_validated():
    base = {OBJ: (0,)}
    bigger = FiniteModel(universes=base, relations={"P0": frozenset({()})})
    smaller = FiniteModel(universes=base, relations={"P0": frozenset()})
    with pytest.raises(SemanticsError):
        KripkeModel(
            worlds=("a", "b"),
            order=frozenset({("a", "b")}),
            models={"a": bigger, "b": smaller},
        )


def test_search_countermodel_examples():
    sig = fol.single_sorted("obj")
    goal = forall(X, forall(Y, Eq(X, Y)))
    m = search_countermodel(sig, [], goal, 2)
    assert m is not None and len(m.universe(OBJ)) == 2
    sig2 = sig.with_relation("A", ())
    taut = fol.Or(Rel("A", ()), neg(Rel("A", ())))
    assert search_countermodel(sig2, [], taut, 3) is None
    with pytest.raises(SemanticsError):
        search_countermodel(sig, [], taut, 0)


@pytest.mark.parametrize("goal, symbol", [
    (Rel("S", (fol.const("c"),)), "S"),
    (Eq(App("h", (fol.const("c"),)), fol.const("c")), "h"),
], ids=["relation", "function"])
def test_search_countermodel_names_an_undeclared_symbol(goal, symbol):
    sig = fol.single_sorted("obj").with_function("c", (), OBJ)
    with pytest.raises(SemanticsError, match=f"symbol {symbol} is not declared in the signature"):
        search_countermodel(sig, [], goal, 2)


def test_certified_intuitionistic_derivations_are_forced():
    # spec invariant: certified intuitionistic sequents hold at every node of
    # every small Kripke model that forces their hypotheses
    import itertools as it

    from foundry.fol import check_nd, pure_theory
    from helpers import gen_nd

    theory = pure_theory(nd_signature(), "intuitionistic")
    rng = random.Random(77)
    models = [_random_kripke(rng) for _ in range(8)]
    for _ in range(25):
        cert = check_nd(theory, gen_nd(rng, theory))
        fvs = set()
        for h in cert.hypotheses:
            fvs |= fol.free_vars(h)
        fvs = sorted(fvs | fol.free_vars(cert.conclusion), key=lambda v: v.name)
        for k in models:
            for w in k.worlds:
                univ = k.models[w].universe(OBJ)
                for vals in it.product(univ, repeat=len(fvs)):
                    sigma = dict(zip(fvs, vals))
                    if all(forces(k, w, sigma, h) for h in cert.hypotheses):
                        assert forces(k, w, sigma, cert.conclusion), str(cert)
