import random

import pytest

from foundry.errors import KernelError
from foundry.hol import (
    ABS, ALPHA, ASSUME, AP_TERM, BETA, CONJ, CONJUNCT1, CONJUNCT2, Const,
    DEDUCT_ANTISYM, DISCH, EQ_MP, ETA, EXISTS, EXT, FVar, GEN, HolTheorem,
    IND, KernelState, MK_COMB, MP, PROP, REFL, SPEC, SYM, TRANS, TRUTH,
    Abs, App, BVar, TyApp, TyVar, abs_over, axiom, axiom_statement, check_term,
    define_connectives, defining_theorem, dest_eq, fn, initial_state,
    inst_term, inst_type, mk_eq, mk_eq_at, new_definition,
    new_type_definition, standard_definitions, type_of,
)
import foundry.hol.derived as hd


@pytest.fixture(scope="module")
def st():
    state = initial_state()
    state, _ = define_connectives(state)
    return state


def test_assume_and_refl(st):
    p = FVar("p", PROP)
    th = ASSUME(st, p)
    assert th.hypotheses == frozenset({p}) and th.conclusion == p
    idp = Abs(PROP, BVar(0))
    th2 = REFL(st, idp)
    # the definition of truth is exactly this equation
    assert th2.conclusion == dest_eq(defining_theorem(st, "true").conclusion)[1]


def test_eq_mp_and_trans(st):
    p, q = FVar("p", PROP), FVar("q", PROP)
    eq = ASSUME(st, mk_eq(p, q))
    th = EQ_MP(st, eq, ASSUME(st, p))
    assert th.conclusion == q
    with pytest.raises(KernelError):
        EQ_MP(st, ASSUME(st, p), ASSUME(st, p))
    x = FVar("x", IND)
    t1 = REFL(st, x)
    assert TRANS(st, t1, t1).conclusion == mk_eq(x, x)


def test_typed_rules_still_reject(st):
    # TRANS, MK_COMB and EQ_MP read the side type off the `=` constant;
    # ABS's side condition is covered by test_abs_side_condition
    x, y = FVar("x", IND), FVar("y", IND)
    with pytest.raises(KernelError) as e:
        TRANS(st, REFL(st, x), REFL(st, y))
    assert "middle terms differ" in str(e.value)
    f = FVar("f", fn(IND, IND))
    with pytest.raises(KernelError) as e:
        MK_COMB(st, REFL(st, f), REFL(st, FVar("p", PROP)))
    assert "do not fit" in str(e.value)
    with pytest.raises(KernelError) as e:
        MK_COMB(st, REFL(st, x), REFL(st, y))  # x is not a function
    assert "do not fit" in str(e.value)
    with pytest.raises(KernelError) as e:
        EQ_MP(st, REFL(st, x), ASSUME(st, mk_eq(x, x)))
    assert "Prop equation" in str(e.value)


def test_typed_rules_build_the_inferred_equations(st):
    # each conclusion equals the one mk_eq builds by inferring the side types
    f, x = FVar("f", fn(IND, IND)), FVar("x", IND)
    p, q = FVar("p", PROP), FVar("q", PROP)
    assert MK_COMB(st, REFL(st, f), REFL(st, x)).conclusion == mk_eq(App(f, x), App(f, x))
    fx = App(f, x)
    assert ABS(st, x, REFL(st, fx)).conclusion == mk_eq(abs_over(x, fx), abs_over(x, fx))
    assert DEDUCT_ANTISYM(st, ASSUME(st, p), ASSUME(st, q)).conclusion == mk_eq(p, q)
    redex = App(Abs(IND, App(f, BVar(0))), x)
    assert BETA(st, redex).conclusion == mk_eq(redex, fx)
    assert TRANS(st, BETA(st, redex), REFL(st, fx)).conclusion == mk_eq(redex, fx)


def test_abs_side_condition(st):
    x = FVar("x", IND)
    th = ASSUME(st, mk_eq(x, x))
    with pytest.raises(KernelError) as e:
        ABS(st, x, th)
    assert "free in a hypothesis" in str(e.value)
    th2 = REFL(st, x)
    with pytest.raises(KernelError) as e:
        ABS(st, FVar("z", TyApp("Bogus")), th2)  # an unknown type in the binder
    assert "unknown type operator" in str(e.value)
    out = ABS(st, x, th2)
    l, r = dest_eq(out.conclusion)
    assert l == Abs(IND, BVar(0), hint="x")


def test_beta_and_eta(st):
    f = FVar("f", fn(IND, IND))
    x = FVar("x", IND)
    redex = App(Abs(IND, App(f, BVar(0))), x)
    th = BETA(st, redex)
    assert dest_eq(th.conclusion) == (redex, App(f, x))
    with pytest.raises(KernelError):
        BETA(st, App(Abs(IND, BVar(0)), App(f, x)))  # argument not a variable
    eta = Abs(IND, App(f, BVar(0)))
    th2 = ETA(st, eta)
    assert dest_eq(th2.conclusion) == (eta, f)


def test_deduct_antisym_removes_conclusions(st):
    p, q = FVar("p", PROP), FVar("q", PROP)
    # hyp(th1) - {concl th2} U hyp(th2) - {concl th1}
    out = DEDUCT_ANTISYM(st, ASSUME(st, p), ASSUME(st, p))
    assert out.hypotheses == frozenset()
    assert out.conclusion == mk_eq(p, p)
    # the displayed shape: from {p /\ q} |- p and {p, q} |- p /\ q conclude
    # q |- (p /\ q) = p, with p and (p /\ q) removed crosswise
    pq = hd.mk_conj(p, q)
    th1 = CONJ(st, ASSUME(st, p), ASSUME(st, q))   # {p, q} |- p /\ q
    th2 = CONJUNCT1(st, ASSUME(st, pq))            # {p /\ q} |- p
    out2 = DEDUCT_ANTISYM(st, th1, th2)
    assert out2.hypotheses == frozenset({q})
    assert out2.conclusion == mk_eq(pq, p)


def test_inst_type_example(st):
    a = TyVar("a")
    y = FVar("y", a)
    th = REFL(st, App(Abs(a, BVar(0)), y))
    th = TRANS(st, th, hd.beta_conv(st, App(Abs(a, BVar(0)), y)))
    out = inst_type(st, th, {"a": fn(IND, TyVar("b"))})
    l, r = dest_eq(out.conclusion)
    assert type_of(r) == fn(IND, TyVar("b"))
    assert inst_type(st, th, {}) == th
    assert inst_type(st, th, {"a": TyVar("a")}) == th


def test_inst_term_capture_is_impossible():
    # compare against a slow named-style substitution oracle
    state = initial_state()
    x, y = FVar("x", IND), FVar("y", IND)
    # theorem: |- (fun y => x) = (fun y => x), then substitute x := y
    lam = Abs(IND, x, hint="y")
    th = REFL(state, lam)
    out = inst_term(state, th, {x: y})
    l, r = dest_eq(out.conclusion)
    # the binder is nameless, so y goes in without being captured
    assert l == Abs(IND, y, hint="y")
    # oracle: opening the abstraction with a fresh variable, substituting,
    # and re-abstracting gives the same result
    from foundry.hol import open_term

    fresh = FVar("fresh", IND)
    body = open_term(lam.body, fresh)
    body_sub = y if body == x else body
    assert abs_over(fresh, body_sub) == l


def test_inst_term_type_mismatch(st):
    x = FVar("x", IND)
    th = REFL(st, x)
    with pytest.raises(KernelError):
        inst_term(st, th, {x: FVar("p", PROP)})


def test_instantiation_commutes_with_rules(st):
    rng = random.Random(3)
    p, q = FVar("p", PROP), FVar("q", PROP)
    c = FVar("c", PROP)
    mapping = {p: c}
    # apply-then-instantiate equals instantiate-then-apply for CONJ
    th1, th2 = ASSUME(st, p), ASSUME(st, q)
    left = inst_term(st, CONJ(st, th1, th2), mapping)
    right = CONJ(st, inst_term(st, th1, mapping), inst_term(st, th2, mapping))
    assert left == right
    # and for DEDUCT_ANTISYM
    left2 = inst_term(st, DEDUCT_ANTISYM(st, th1, th2), mapping)
    right2 = DEDUCT_ANTISYM(st, inst_term(st, th1, mapping), inst_term(st, th2, mapping))
    assert left2 == right2


def test_new_definition_rules():
    state = initial_state()
    idp = Abs(PROP, BVar(0))
    state, th = new_definition(state, "tru", mk_eq(idp, idp))
    assert not th.hypotheses
    with pytest.raises(KernelError):
        new_definition(state, "tru", mk_eq(idp, idp))
    with pytest.raises(KernelError) as e:
        new_definition(state, "open", FVar("p", PROP))
    assert "closed" in str(e.value)
    # type-variable escape: a term whose type does not mention 'a
    a = TyVar("a")
    esc = mk_eq(Abs(a, BVar(0)), Abs(a, BVar(0)))
    with pytest.raises(KernelError) as e2:
        new_definition(state, "escape", esc)
    assert "escape" in str(e2.value)


def test_every_theorem_retypes_as_prop(st):
    p = FVar("p", PROP)
    for th in [TRUTH(st), ASSUME(st, p), DISCH(st, p, ASSUME(st, p))]:
        assert check_term(st, th.conclusion) == PROP
        for h in th.hypotheses:
            assert check_term(st, h) == PROP


def test_new_type_definition_one_element(st):
    pred = Abs(PROP, mk_eq_at(PROP, BVar(0), Const("true", PROP)))
    wit = hd.EQT_INTRO(st, TRUTH(st))
    ex = hd.mk_exists_pred(pred)
    nonempty = EXISTS(st, ex, Const("true", PROP), wit)
    st2, abs_c, repr_c, thm1, thm2 = new_type_definition(st, "single", pred, nonempty)
    assert st2.type_ops["single"] == 0
    a = FVar("a", abs_c.type.args[1])
    assert thm1.conclusion == mk_eq(App(abs_c, App(repr_c, a)), a)
    # wrong certificate
    other = Abs(PROP, mk_eq_at(PROP, BVar(0), Const("false", PROP)))
    with pytest.raises(KernelError):
        new_type_definition(st, "single2", other, nonempty)


def test_new_type_definition_parametric_pairs(st):
    # pairs as binary relations on 'a, 'b that hold of exactly one pair:
    # P := fun R => exists x. exists y. forall u v. R u v = ((u = x) and (v = y))
    a, b = TyVar("a"), TyVar("b")
    rel_ty = fn(a, fn(b, PROP))
    and_c = Const("and", fn(PROP, fn(PROP, PROP)))
    ca = App(Const("eps", fn(fn(a, PROP), a)), Abs(a, Const("true", PROP)))
    cb = App(Const("eps", fn(fn(b, PROP), b)), Abs(b, Const("true", PROP)))
    u, v = FVar("u", a), FVar("v", b)
    x, yv = FVar("x", a), FVar("y", b)
    Rv = FVar("R", rel_ty)

    def charact(R, xx, yy):
        return hd.mk_forall(
            u,
            hd.mk_forall(
                v,
                mk_eq_at(
                    PROP,
                    App(App(R, u), v),
                    App(App(and_c, mk_eq_at(a, u, xx)), mk_eq_at(b, v, yy)),
                ),
            ),
        )

    pred = abs_over(
        Rv,
        hd.mk_exists_pred(abs_over(x, hd.mk_exists_pred(abs_over(yv, charact(Rv, x, yv))))),
    )
    witness = Abs(
        a,
        Abs(
            b,
            App(App(and_c, mk_eq_at(a, BVar(1), ca)), mk_eq_at(b, BVar(0), cb)),
        ),
    )
    # the witness satisfies its own characterization by beta
    proof_uv = hd.spine_beta(st, App(App(witness, u), v))
    forall_uv = GEN(st, u, GEN(st, v, proof_uv))
    assert forall_uv.conclusion == charact(witness, ca, cb)
    ex_y = EXISTS(st, hd.mk_exists_pred(abs_over(yv, charact(witness, ca, yv))), cb, forall_uv)
    ex_xy = EXISTS(
        st,
        hd.mk_exists_pred(abs_over(x, hd.mk_exists_pred(abs_over(yv, charact(witness, x, yv))))),
        ca,
        ex_y,
    )
    # the certificate itself: exists R. P R, witnessed by the point relation
    packaged = EXISTS(st, hd.mk_exists_pred(pred), witness, ex_xy)
    st2, abs_c, repr_c, t1, t2 = new_type_definition(st, "prod2", pred, packaged)
    assert st2.type_ops["prod2"] == 2


def test_axioms_gating(st):
    with pytest.raises(KernelError) as e:
        axiom(st, "choice")
    assert e.value.tag == "axiom-disabled"
    st2 = st.enable_axiom("choice").enable_axiom("infinity").enable_axiom("propext")
    for name in ("choice", "infinity", "propext"):
        th = axiom(st2, name)
        assert not th.hypotheses
        assert check_term(st2, th.conclusion) == PROP
    with pytest.raises(KernelError):
        axiom(st2, "univalence")


def test_derived_extensionality_rule(st):
    f = FVar("f", fn(IND, IND))
    x = FVar("x", IND)
    b1 = BETA(st, App(Abs(IND, App(f, BVar(0)), hint="y"), x))
    out = EXT(st, x, b1)
    assert dest_eq(out.conclusion) == (Abs(IND, App(f, BVar(0)), hint="y"), f)


def test_sym_refls_its_left_side_once(st, monkeypatch):
    seen = []
    real = hd.REFL

    def counted(state, t):
        seen.append(t)
        return real(state, t)

    monkeypatch.setattr(hd, "REFL", counted)
    p, q = FVar("p", PROP), FVar("q", PROP)
    th = SYM(st, ASSUME(st, mk_eq(p, q)))
    assert th.conclusion == mk_eq(q, p)
    assert seen.count(p) == 1 and len(seen) == 2
