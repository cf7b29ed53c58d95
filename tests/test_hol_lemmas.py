"""The HOL derived rules that apply per-state lemmas, against a reference.

The reference below is the derivation from scratch: every rule unfolds the
connectives with apply_def_conv, unfold_rule and fold_rule and beta-reduces
them anew. It is slow, but it has no cache to get wrong. Each rule must give
the same hypotheses, conclusion and printed form (so binder hints too), or
the same error, as the reference.

`beta_conv` introduces a variable that the lexer cannot produce instead of
one fresh for the redex. The last tests check that it gives the theorems the
old fresh variable gave, and that no theorem but BETA's step inside
`beta_conv` ever has that variable free.
"""

import pathlib
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import foundry.hol.derived as hd
from foundry.errors import KernelError
from foundry.hol import (
    ABS, ASSUME, BETA, DEDUCT_ANTISYM, EQ_MP, MK_COMB, REFL, TRANS, Abs, App, BVar,
    Const, FVar, HolTheorem, IND, PROP, abs_over, check_term,
    define_connectives, defining_theorem, dest_eq, fn, free_vars,
    initial_state, inst_term, mk_eq_at, pretty_type, type_of,
)
from foundry.hol import kernel as hk
from foundry.hol.derived import (
    AP_THM, SYM, apply_def_conv, beta_conv, fold_rule, mk_conj, mk_disj,
    mk_forall, mk_imp, mk_neg, rhs_of, spine_beta, unfold_rule,
)
from foundry.run import Options, run_script_text
from foundry.span import replace

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# The reference: the derived rules as they were before the lemma cache.


def ref_fresh(base, ty, *terms):
    taken = set()
    for t in terms:
        if isinstance(t, HolTheorem):
            for h in t.hypotheses:
                taken |= {v.name for v in free_vars(h)}
            taken |= {v.name for v in free_vars(t.conclusion)}
        elif t is not None:
            taken |= {v.name for v in free_vars(t)}
    name = base
    while name in taken:
        name += "'"
    return FVar(name, ty)


def ref_TRUTH(state):
    dth = defining_theorem(state, "true")
    idp = Abs(PROP, BVar(0), hint="p")
    return EQ_MP(state, SYM(state, dth), REFL(state, idp))


def ref_EQT_INTRO(state, th):
    return DEDUCT_ANTISYM(state, th, ref_TRUTH(state))


def ref_EQT_ELIM(state, th):
    return EQ_MP(state, SYM(state, th), ref_TRUTH(state))


def ref_SPEC(state, t, th):
    concl = th.conclusion
    if not (isinstance(concl, App) and isinstance(concl.fn, Const) and concl.fn.name == "forall"):
        raise KernelError("SPEC needs a universally quantified theorem")
    th1 = unfold_rule(state, "forall", th)
    th2 = AP_THM(state, th1, t)
    th3 = TRANS(state, th2, beta_conv(state, rhs_of(th2)))
    out = ref_EQT_ELIM(state, th3)
    if isinstance(out.conclusion, App) and isinstance(out.conclusion.fn, Abs):
        out = EQ_MP(state, beta_conv(state, out.conclusion), out)
    return out


def ref_GEN(state, x, th):
    th2 = ABS(state, x, ref_EQT_INTRO(state, th))
    target = App(Const("forall", fn(fn(x.type, PROP), PROP)), abs_over(x, th.conclusion))
    return fold_rule(state, "forall", target, th2)


def ref_CONJ(state, th1, th2):
    p, q = th1.conclusion, th2.conclusion
    r = ref_fresh("r", fn(PROP, fn(PROP, PROP)), th1, th2, p, q)
    e1 = ref_EQT_INTRO(state, th1)
    e2 = ref_EQT_INTRO(state, th2)
    c = MK_COMB(state, MK_COMB(state, REFL(state, r), e1), e2)
    a = ABS(state, r, ref_EQT_INTRO(state, c))
    conv = apply_def_conv(state, "and", mk_conj(p, q))
    conv2 = TRANS(state, conv, apply_def_conv(state, "forall", rhs_of(conv)))
    return EQ_MP(state, SYM(state, conv2), a)


def ref_conj_select(state, th, first):
    concl = th.conclusion
    match concl:
        case App(fn=App(fn=Const(name="and"))):
            pass
        case _:
            raise KernelError("not a conjunction")
    conv = apply_def_conv(state, "and", concl)
    conv2 = TRANS(state, conv, apply_def_conv(state, "forall", rhs_of(conv)))
    eqth = EQ_MP(state, conv2, th)
    sel = Abs(PROP, Abs(PROP, BVar(1) if first else BVar(0), hint="b"), hint="a")
    th2 = AP_THM(state, eqth, sel)
    lred = beta_conv(state, dest_eq(th2.conclusion)[0])
    rred = beta_conv(state, dest_eq(th2.conclusion)[1])
    th3 = TRANS(state, TRANS(state, SYM(state, lred), th2), rred)
    th4 = ref_EQT_ELIM(state, th3)
    l, r = dest_eq(th4.conclusion)
    th5 = TRANS(state, TRANS(state, SYM(state, spine_beta(state, l)), th4), spine_beta(state, r))
    return ref_EQT_ELIM(state, th5)


def ref_CONJUNCT1(state, th):
    return ref_conj_select(state, th, True)


def ref_CONJUNCT2(state, th):
    return ref_conj_select(state, th, False)


def ref_DISCH(state, p, th):
    th1 = ref_CONJ(state, ASSUME(state, p), th)
    th2 = ref_CONJUNCT1(state, ASSUME(state, th1.conclusion))
    dth = DEDUCT_ANTISYM(state, th1, th2)
    return fold_rule(state, "imp", mk_imp(p, th.conclusion), dth)


def ref_MP(state, th_imp, th_p):
    match th_imp.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p)):
            pass
        case _:
            raise KernelError("MP needs an implication")
    if p != th_p.conclusion:
        raise KernelError("MP antecedent mismatch")
    th1 = unfold_rule(state, "imp", th_imp)
    return ref_CONJUNCT2(state, EQ_MP(state, SYM(state, th1), th_p))


def ref_UNDISCH(state, th):
    match th.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p)):
            return ref_MP(state, th, ASSUME(state, p))
    raise KernelError("UNDISCH needs an implication")


def ref_disj(state, p, q, th):
    r = ref_fresh("r", PROP, th, p, q)
    a1 = ASSUME(state, mk_imp(th.conclusion, r))
    step = ref_MP(state, a1, th)
    d1 = ref_DISCH(state, mk_imp(q, r), step)
    d2 = ref_DISCH(state, mk_imp(p, r), d1)
    g = ref_GEN(state, r, d2)
    return EQ_MP(state, SYM(state, apply_def_conv(state, "or", mk_disj(p, q))), g)


def ref_DISJ1(state, th, q):
    check_term(state, q)
    return ref_disj(state, th.conclusion, q, th)


def ref_DISJ2(state, p, th):
    check_term(state, p)
    return ref_disj(state, p, th.conclusion, th)


def ref_DISJ_CASES(state, th_or, th1, th2):
    match th_or.conclusion:
        case App(fn=App(fn=Const(name="or"), arg=p), arg=q):
            pass
        case _:
            raise KernelError("DISJ_CASES needs a disjunction")
    if th1.conclusion != th2.conclusion:
        raise KernelError("DISJ_CASES branches must agree")
    sp = ref_SPEC(state, th1.conclusion, unfold_rule(state, "or", th_or))
    d1 = ref_DISCH(state, p, th1)
    d2 = ref_DISCH(state, q, th2)
    return ref_MP(state, ref_MP(state, sp, d1), d2)


def ref_NOT_INTRO(state, th):
    match th.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=Const(name="false")):
            return fold_rule(state, "not", mk_neg(p), th)
    raise KernelError("NOT_INTRO needs ⊢ p ⟹ false")


def ref_NOT_ELIM(state, th):
    match th.conclusion:
        case App(fn=Const(name="not")):
            return unfold_rule(state, "not", th)
    raise KernelError("NOT_ELIM needs a negation")


def ref_CONTR(state, p, th):
    match th.conclusion:
        case Const(name="false"):
            pass
        case _:
            raise KernelError("CONTR needs ⊢ false")
    return ref_SPEC(state, p, unfold_rule(state, "false", th))


def ref_EXISTS(state, ex_term, witness, th):
    match ex_term:
        case App(fn=Const(name="exists"), arg=pred):
            pass
        case _:
            raise KernelError("EXISTS needs an existential target")
    want = App(pred, witness)
    body = th
    if th.conclusion != want:
        bc = beta_conv(state, want)
        if rhs_of(bc) != th.conclusion:
            raise KernelError("EXISTS: the proof does not match the instantiated predicate")
        body = EQ_MP(state, SYM(state, bc), th)
    q = ref_fresh("q", PROP, th, pred, witness)
    x = ref_fresh("x", type_of(witness), th, pred, witness)
    hyp = mk_forall(x, mk_imp(App(pred, x), q))
    sp = ref_SPEC(state, witness, ASSUME(state, hyp))
    d = ref_DISCH(state, hyp, ref_MP(state, sp, body))
    g = ref_GEN(state, q, d)
    return EQ_MP(state, SYM(state, apply_def_conv(state, "exists", ex_term)), g)


# ---------------------------------------------------------------------------
# Inputs. The variables carry the names of the lemmas' own generic variables
# (p, q, P, x) and of the fresh variables the derivations pick (r, v), and
# the quantifiers range over Prop, Ind and Ind -> Prop.

p, q, r, v = (FVar(n, PROP) for n in "pqrv")
x, y = FVar("x", IND), FVar("y", IND)
P = FVar("P", fn(IND, PROP))
TRUE, FALSE = Const("true", PROP), Const("false", PROP)
BINDERS = [p, q, x, P]


@pytest.fixture(scope="module")
def base():
    state, _ = define_connectives(initial_state())
    return state


def quant(kind, var, body):
    return App(Const(kind, fn(fn(var.type, PROP), PROP)), abs_over(var, body))


_atoms = st.sampled_from([
    p, q, r, v, TRUE, FALSE, App(P, x), mk_eq_at(IND, x, y), mk_eq_at(PROP, p, q),
    App(Abs(IND, mk_eq_at(IND, BVar(0), y), hint="x"), x),
])
props = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.builds(mk_conj, sub, sub),
        st.builds(mk_imp, sub, sub),
        st.builds(mk_disj, sub, sub),
        st.builds(mk_neg, sub),
        st.builds(quant, st.sampled_from(["forall", "exists"]), st.sampled_from(BINDERS), sub),
    ),
    max_leaves=4,
)
hyp_lists = st.lists(props, max_size=2)


def terms_of(ty):
    """Terms of type ty, closed or with free variables."""
    if ty == PROP:
        return props
    if ty == IND:
        return st.sampled_from([x, y])
    return st.sampled_from([P, Abs(IND, App(P, BVar(0)), hint="z"), Abs(IND, mk_eq_at(IND, BVar(0), x), hint="x")])


def premise(state, concl, extra=()):
    """Γ ⊢ concl with Γ = {concl ∧ true} ∪ extra, so concl is a hypothesis
    only where extra lists it."""
    th = hd.CONJUNCT1(state, ASSUME(state, mk_conj(concl, TRUE)))
    for h in extra:
        th = hd.CONJUNCT1(state, hd.CONJ(state, th, ASSUME(state, h)))
    return th


def outcome(rule, state, *args):
    try:
        th = rule(state, *args)
    except KernelError as e:
        return "error", e.message
    return th.hypotheses, th.conclusion, repr(th)


@pytest.fixture(scope="module")
def warm(base):
    """A state shared by every example, so that later examples use the
    lemmas earlier ones proved."""
    return replace(base)


def agree(base, state, rule, ref, *args):
    got = outcome(rule, state, *args)
    assert got == outcome(ref, base, *args)
    return got


EXAMPLES = settings(max_examples=40, deadline=None)


@EXAMPLES
@given(props, props, hyp_lists, hyp_lists, st.booleans())
def test_conj(base, warm, a, b, h1, h2, fresh):
    state = replace(base) if fresh else warm
    th1, th2 = premise(base, a, h1 + [b]), premise(base, b, h2)
    agree(base, state, hd.CONJ, ref_CONJ, th1, th2)
    agree(base, state, hd.CONJ, ref_CONJ, th2, th1)


@EXAMPLES
@given(props, props, hyp_lists, st.booleans())
def test_conjuncts(base, warm, a, b, h, fresh):
    state = replace(base) if fresh else warm
    th = premise(base, mk_conj(a, b), h)
    agree(base, state, hd.CONJUNCT1, ref_CONJUNCT1, th)
    agree(base, state, hd.CONJUNCT2, ref_CONJUNCT2, th)
    agree(base, state, hd.CONJUNCT1, ref_CONJUNCT1, premise(base, a, h))


@EXAMPLES
@given(props, props, hyp_lists, hyp_lists, st.booleans())
def test_mp_and_undisch(base, warm, a, b, h1, h2, fresh):
    state = replace(base) if fresh else warm
    th_imp = premise(base, mk_imp(a, b), h1 + [a])  # a is also a hypothesis
    agree(base, state, hd.MP, ref_MP, th_imp, premise(base, a, h2))
    agree(base, state, hd.MP, ref_MP, premise(base, mk_imp(a, b), h1), premise(base, a, h2 + [b]))
    agree(base, state, hd.MP, ref_MP, th_imp, premise(base, b, h2))
    agree(base, state, hd.UNDISCH, ref_UNDISCH, th_imp)


@EXAMPLES
@given(props, props, hyp_lists, st.booleans())
def test_disch(base, warm, a, b, h, fresh):
    state = replace(base) if fresh else warm
    agree(base, state, hd.DISCH, ref_DISCH, a, premise(base, b, h))
    agree(base, state, hd.DISCH, ref_DISCH, a, premise(base, b, h + [a]))
    agree(base, state, hd.DISCH, ref_DISCH, x, premise(base, b, h))


@EXAMPLES
@given(st.sampled_from(BINDERS), props, hyp_lists, st.data(), st.booleans())
def test_spec_and_gen(base, warm, var, body, h, data, fresh):
    state = replace(base) if fresh else warm
    th = premise(base, quant("forall", var, body), h)
    agree(base, state, hd.SPEC, ref_SPEC, data.draw(terms_of(var.type)), th)
    agree(base, state, hd.GEN, ref_GEN, var, premise(base, body, h))
    agree(base, state, hd.GEN, ref_GEN, var, premise(base, body))


@EXAMPLES
@given(props, props, hyp_lists, st.booleans())
def test_disjunctions(base, warm, a, b, h, fresh):
    state = replace(base) if fresh else warm
    agree(base, state, hd.DISJ1, ref_DISJ1, premise(base, a, h), b)
    agree(base, state, hd.DISJ2, ref_DISJ2, a, premise(base, b, h))
    agree(base, state, hd.DISJ1, ref_DISJ1, premise(base, a, h), y)


@EXAMPLES
@given(props, props, props, hyp_lists, hyp_lists, st.booleans())
def test_disj_cases(base, warm, a, b, c, h1, h2, fresh):
    state = replace(base) if fresh else warm
    th_or = premise(base, mk_disj(a, b), h1)
    agree(base, state, hd.DISJ_CASES, ref_DISJ_CASES, th_or, premise(base, c, h1 + [a]), premise(base, c, h2 + [b]))
    agree(base, state, hd.DISJ_CASES, ref_DISJ_CASES, th_or, premise(base, c, h2), premise(base, a, h2))


@EXAMPLES
@given(props, props, hyp_lists, st.booleans())
def test_negation_and_contr(base, warm, a, b, h, fresh):
    state = replace(base) if fresh else warm
    agree(base, state, hd.NOT_INTRO, ref_NOT_INTRO, premise(base, mk_imp(a, FALSE), h))
    agree(base, state, hd.NOT_INTRO, ref_NOT_INTRO, premise(base, mk_imp(a, b), h))
    agree(base, state, hd.NOT_ELIM, ref_NOT_ELIM, premise(base, mk_neg(a), h))
    agree(base, state, hd.CONTR, ref_CONTR, b, premise(base, FALSE, h))


@EXAMPLES
@given(st.sampled_from(BINDERS), props, hyp_lists, st.data(), st.booleans(), st.booleans())
def test_exists(base, warm, var, body, h, data, reduce, fresh):
    state = replace(base) if fresh else warm
    ex = quant("exists", var, body)
    witness = data.draw(terms_of(var.type))
    inst = App(ex.arg, witness)
    concl = rhs_of(beta_conv(base, inst)) if reduce else inst
    agree(base, state, hd.EXISTS, ref_EXISTS, ex, witness, premise(base, concl, h))


# ---------------------------------------------------------------------------
# Fixed cases


def test_a_premise_concluding_another_premise_hypothesis(base, warm):
    a, b = mk_conj(p, q), mk_imp(q, p)
    th_imp = premise(base, mk_imp(a, b), [a])
    th_a = premise(base, a)
    got = agree(base, warm, hd.MP, ref_MP, th_imp, th_a)
    assert got[0] == th_imp.hypotheses | th_a.hypotheses and a in got[0]
    th_b = premise(base, b)
    got = agree(base, warm, hd.CONJ, ref_CONJ, premise(base, a, [b]), th_b)
    assert b in got[0]
    agree(base, warm, hd.CONJ, ref_CONJ, th_b, premise(base, a, [b]))
    agree(base, warm, hd.CONJ, ref_CONJ, th_a, th_a)


def test_a_hypothesis_true(base, warm):
    """The derivations from scratch lose a hypothesis `true` to EQT_INTRO."""
    th_p, th_t = premise(base, p, [TRUE]), premise(base, TRUE)
    for rule, ref, *args in [
        (hd.CONJ, ref_CONJ, th_p, th_t),
        (hd.CONJ, ref_CONJ, th_t, th_p),
        (hd.DISCH, ref_DISCH, q, th_p),
        (hd.DISCH, ref_DISCH, TRUE, th_p),
        (hd.DISJ1, ref_DISJ1, th_p, q),
        (hd.DISJ2, ref_DISJ2, q, th_p),
        (hd.GEN, ref_GEN, x, th_p),
        (hd.MP, ref_MP, premise(base, mk_imp(p, q), [TRUE]), th_p),
        (hd.CONJUNCT1, ref_CONJUNCT1, premise(base, mk_conj(p, q), [TRUE])),
        (hd.SPEC, ref_SPEC, x, premise(base, quant("forall", x, p), [TRUE])),
        (hd.EXISTS, ref_EXISTS, quant("exists", p, p), TRUE, th_t),
        (hd.CONTR, ref_CONTR, p, premise(base, FALSE, [TRUE])),
    ]:
        agree(base, warm, rule, ref, *args)


def test_alpha_equal_hypotheses_print_as_the_reference_does(base, warm):
    """Hypothesis sets keep one of two alpha-equal terms: whichever the
    rules' unions meet first. Its binder hints must be the reference's."""
    a, b = quant("forall", q, r), quant("forall", p, r)
    assert a == b and repr(ASSUME(base, a)) != repr(ASSUME(base, b))
    th_a, th_b = premise(base, p, [a]), premise(base, p, [b])
    agree(base, warm, hd.CONJ, ref_CONJ, th_a, th_b)
    agree(base, warm, hd.MP, ref_MP, premise(base, mk_imp(p, q), [a]), th_b)
    agree(base, warm, hd.DISCH, ref_DISCH, a, premise(base, q, [b]))
    th_or = premise(base, mk_disj(p, q), [a])
    agree(base, warm, hd.DISJ_CASES, ref_DISJ_CASES, th_or, premise(base, r, [b]), premise(base, r, [a]))


def test_truth_is_proved_once_per_state(base):
    state = replace(base)
    assert hd.TRUTH(state) is hd.TRUTH(state)
    assert hd.TRUTH(state) == ref_TRUTH(base)


@pytest.mark.parametrize("var", BINDERS)
def test_quantifier_type_errors_name_the_rule_and_both_types(base, var):
    wrong = p if var.type == IND else y
    types = (
        f"has type {pretty_type(wrong.type)}, but the quantifier ranges over "
        f"{pretty_type(var.type)}"
    )
    th = ASSUME(base, quant("forall", var, TRUE))
    with pytest.raises(KernelError, match="^SPEC: the term " + re.escape(types) + "$"):
        hd.SPEC(base, wrong, th)
    ex = quant("exists", var, TRUE)
    with pytest.raises(KernelError, match="^EXISTS: the witness " + re.escape(types) + "$"):
        hd.EXISTS(base, ex, wrong, ASSUME(base, TRUE))


def test_contr_names_its_own_type_error(base):
    with pytest.raises(KernelError, match="^CONTR: the term has type Ind, but the conclusion must have type Prop$"):
        hd.CONTR(base, x, ASSUME(base, FALSE))


def test_errors_never_name_a_lemma_variable(base):
    state = replace(base)
    cases = [
        (hd.DISJ1, ASSUME(state, p), y),
        (hd.DISJ2, y, ASSUME(state, p)),
        (hd.DISCH, y, ASSUME(state, p)),
        (hd.SPEC, y, ASSUME(state, quant("forall", p, p))),
        (hd.CONTR, y, ASSUME(state, FALSE)),
        (hd.EXISTS, quant("exists", p, p), y, ASSUME(state, p)),
    ]
    for rule, *args in cases:
        with pytest.raises(KernelError) as err:
            rule(state, *args)
        assert "replacement for" not in err.value.message


# ---------------------------------------------------------------------------
# beta_conv's variable


def ref_beta_conv(state, t):
    """beta_conv as it was, with a variable fresh for the redex."""
    match t:
        case App(fn=Abs(dom=d) as lam, arg=arg):
            v = ref_fresh("v", d, lam, arg)
            return inst_term(state, BETA(state, App(lam, v)), {v: arg})
    raise KernelError("beta_conv expects a beta redex")


def test_beta_conv_gives_the_old_theorem_on_terms_with_v_free(base):
    v1, v2 = FVar("v'", PROP), FVar("v", IND)
    redexes = [
        App(Abs(PROP, mk_conj(BVar(0), v), hint="v"), v),
        App(Abs(PROP, mk_imp(v, BVar(0)), hint="p"), mk_conj(v, v1)),
        App(Abs(IND, mk_eq_at(IND, BVar(0), v2), hint="v"), y),
        App(Abs(fn(IND, PROP), App(BVar(0), v2), hint="P"), Abs(IND, mk_conj(v, App(P, BVar(0))), hint="v")),
        App(Abs(PROP, Abs(PROP, mk_disj(BVar(1), mk_conj(BVar(0), v1)), hint="v"), hint="v'"), v),
        mk_conj(v, v1),  # not a redex
    ]
    for t in redexes:
        assert outcome(beta_conv, base, t) == outcome(ref_beta_conv, base, t)


def test_beta_conv_variable_is_free_only_in_its_own_beta_step(monkeypatch):
    minted = []
    mint = hk._thm

    def recording_thm(hyps, concl):
        rule, caller = sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name
        minted.append((rule, caller, hyps, concl))
        return mint(hyps, concl)

    monkeypatch.setattr(hk, "_thm", recording_thm)
    for name, options in [
        ("connectives.hol", {}),
        ("ext_rule.hol", {}),
        ("diaconescu.hol", {"axioms": ("choice", "propext")}),
    ]:
        report = run_script_text("hol", (CORPUS / name).read_text(), Options(**options), name)
        assert report.ok, report.first_error()

    def has_it(t):
        return any(u.name == hd.BETA_VAR for u in free_vars(t))

    steps = 0
    for rule, caller, hyps, concl in minted:
        assert not any(has_it(h) for h in hyps)
        if has_it(concl):
            assert (rule, caller) == ("BETA", "beta_conv")
            steps += 1
    assert steps > 10
