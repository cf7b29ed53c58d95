"""Derived rules and conversions over the kernel.

Nothing here can mint a theorem except by calling kernel rules, so this layer
is untrusted: a bug can fail to prove something, never prove something false.
The rule set is exactly what the stock scripts (connectives, extensionality,
Diaconescu) need.
"""

from __future__ import annotations

from ..errors import KernelError
from .kernel import (
    ABS, ASSUME, BETA, DEDUCT_ANTISYM, EQ_MP, ETA, MK_COMB, REFL, TRANS,
    Abs, App, BVar, Const, FVar, HolTerm, HolTheorem, KernelState, PROP,
    abs_over, check_term, defining_theorem, dest_eq, fn, free_vars,
    inst_term, inst_type, type_match, type_of,
)


def _fresh(base: str, ty, *terms) -> FVar:
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


def rhs_of(th: HolTheorem) -> HolTerm:
    e = dest_eq(th.conclusion)
    if e is None:
        raise KernelError("expected an equational theorem")
    return e[1]


def SYM(state: KernelState, th: HolTheorem) -> HolTheorem:
    e = dest_eq(th.conclusion)
    if e is None:
        raise KernelError("SYM needs an equation")
    l, r = e
    eq_fn = th.conclusion.fn.fn  # the equality constant at the right instance
    refl_l = REFL(state, l)
    th1 = MK_COMB(state, MK_COMB(state, REFL(state, eq_fn), th), refl_l)
    return EQ_MP(state, th1, refl_l)


def AP_TERM(state: KernelState, f: HolTerm, th: HolTheorem) -> HolTheorem:
    return MK_COMB(state, REFL(state, f), th)


def AP_THM(state: KernelState, th: HolTheorem, x: HolTerm) -> HolTheorem:
    return MK_COMB(state, th, REFL(state, x))


def beta_conv(state: KernelState, t: HolTerm) -> HolTheorem:
    """⊢ (λx. b) a = b[a/x] for an arbitrary argument, via BETA + inst."""
    match t:
        case App(fn=Abs(dom=d) as lam, arg=arg):
            x = _fresh("v", d, lam, arg)
            th = BETA(state, App(lam, x))
            return inst_term(state, th, {x: arg})
    raise KernelError("beta_conv expects a beta redex")


def spine_beta(state: KernelState, t: HolTerm) -> HolTheorem:
    """⊢ t = t' where the application spine of t is fully beta-reduced."""
    match t:
        case App(fn=f, arg=a):
            th = MK_COMB(state, spine_beta(state, f), REFL(state, a))
            r = rhs_of(th)
            if isinstance(r, App) and isinstance(r.fn, Abs):
                th = TRANS(state, th, beta_conv(state, r))
            return th
    return REFL(state, t)


def apply_def_conv(state: KernelState, name: str, t: HolTerm) -> HolTheorem:
    """⊢ t = t' where t is (c a1 ... an) for defined constant c, and t' has c
    replaced by its definiens with the spine beta-reduced."""
    args = []
    head = t
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if not (isinstance(head, Const) and head.name == name):
        raise KernelError(f"term does not have {name} at its head")
    dth = defining_theorem(state, name)
    generic = dth.conclusion.fn.arg.type  # type of the defined constant occurrence
    mapping = type_match(generic, head.type)
    if mapping is None:
        raise KernelError(f"occurrence of {name} is not at an instance of its generic type")
    th = inst_type(state, dth, mapping)
    for a in args:
        th = AP_THM(state, th, a)
    sb = spine_beta(state, rhs_of(th))
    if rhs_of(sb) != rhs_of(th):
        th = TRANS(state, th, sb)
    return th


def CONV_RULE(state: KernelState, conv_th: HolTheorem, th: HolTheorem) -> HolTheorem:
    return EQ_MP(state, conv_th, th)


def unfold_rule(state: KernelState, name: str, th: HolTheorem) -> HolTheorem:
    """Rewrite th's conclusion (which must have `name` at its head)."""
    return EQ_MP(state, apply_def_conv(state, name, th.conclusion), th)


def fold_rule(state: KernelState, name: str, target: HolTerm, th: HolTheorem) -> HolTheorem:
    """Produce `target` (headed by `name`) from a proof of its unfolding."""
    conv = apply_def_conv(state, name, target)
    if rhs_of(conv) != th.conclusion:
        raise KernelError(f"proof does not match the unfolding of {name}")
    return EQ_MP(state, SYM(state, conv), th)


# ---------------------------------------------------------------------------
# Truth and implication


def TRUTH(state: KernelState) -> HolTheorem:
    dth = defining_theorem(state, "true")
    idp = Abs(PROP, BVar(0), hint="p")
    return EQ_MP(state, SYM(state, dth), REFL(state, idp))


def EQT_INTRO(state: KernelState, th: HolTheorem) -> HolTheorem:
    return DEDUCT_ANTISYM(state, th, TRUTH(state))


def EQT_ELIM(state: KernelState, th: HolTheorem) -> HolTheorem:
    return EQ_MP(state, SYM(state, th), TRUTH(state))


def SPEC(state: KernelState, t: HolTerm, th: HolTheorem) -> HolTheorem:
    """From Γ ⊢ ∀x. P x derive Γ ⊢ P t (beta-reducing the instance)."""
    concl = th.conclusion
    if not (isinstance(concl, App) and isinstance(concl.fn, Const) and concl.fn.name == "forall"):
        raise KernelError("SPEC needs a universally quantified theorem")
    pred = concl.arg
    th1 = unfold_rule(state, "forall", th)  # Γ ⊢ P = (fun x => true)
    th2 = AP_THM(state, th1, t)             # Γ ⊢ P t = (fun x => true) t
    th3 = TRANS(state, th2, beta_conv(state, rhs_of(th2)))
    out = EQT_ELIM(state, th3)              # Γ ⊢ P t
    if isinstance(out.conclusion, App) and isinstance(out.conclusion.fn, Abs):
        out = CONV_RULE(state, beta_conv(state, out.conclusion), out)
    return out


def GEN(state: KernelState, x: FVar, th: HolTheorem) -> HolTheorem:
    """From Γ ⊢ p derive Γ ⊢ ∀x. p, for x not free in Γ."""
    th1 = EQT_INTRO(state, th)
    th2 = ABS(state, x, th1)  # Γ ⊢ (λx. p) = (λx. true)
    body = abs_over(x, th.conclusion)
    target = App(Const("forall", fn(fn(x.type, PROP), PROP)), body)
    return fold_rule(state, "forall", target, th2)


def mk_imp(p: HolTerm, q: HolTerm) -> HolTerm:
    return App(App(Const("imp", fn(PROP, fn(PROP, PROP))), p), q)


def mk_conj(p: HolTerm, q: HolTerm) -> HolTerm:
    return App(App(Const("and", fn(PROP, fn(PROP, PROP))), p), q)


def mk_disj(p: HolTerm, q: HolTerm) -> HolTerm:
    return App(App(Const("or", fn(PROP, fn(PROP, PROP))), p), q)


def mk_neg(p: HolTerm) -> HolTerm:
    return App(Const("not", fn(PROP, PROP)), p)


def mk_forall(x: FVar, body: HolTerm) -> HolTerm:
    return App(Const("forall", fn(fn(x.type, PROP), PROP)), abs_over(x, body))


def mk_exists_pred(pred: HolTerm) -> HolTerm:
    dom = type_of(pred).args[0]
    return App(Const("exists", fn(fn(dom, PROP), PROP)), pred)


def CONJ(state: KernelState, th1: HolTheorem, th2: HolTheorem) -> HolTheorem:
    p, q = th1.conclusion, th2.conclusion
    rr = fn(PROP, fn(PROP, PROP))
    r = _fresh("r", rr, th1, th2, p, q)
    e1 = EQT_INTRO(state, th1)
    e2 = EQT_INTRO(state, th2)
    c = MK_COMB(state, MK_COMB(state, REFL(state, r), e1), e2)
    a = ABS(state, r, EQT_INTRO(state, c))
    target = mk_conj(p, q)
    conv = apply_def_conv(state, "and", target)
    conv2 = TRANS(state, conv, apply_def_conv(state, "forall", rhs_of(conv)))
    return EQ_MP(state, SYM(state, conv2), a)


def _conj_select(state: KernelState, th: HolTheorem, first: bool) -> HolTheorem:
    concl = th.conclusion
    match concl:
        case App(fn=App(fn=Const(name="and"), arg=p), arg=q):
            pass
        case _:
            raise KernelError("not a conjunction")
    conv = apply_def_conv(state, "and", concl)
    conv2 = TRANS(state, conv, apply_def_conv(state, "forall", rhs_of(conv)))
    eqth = EQ_MP(state, conv2, th)  # Γ ⊢ (λr. r p q = r T T) = (λr. true)
    sel = Abs(PROP, Abs(PROP, BVar(1) if first else BVar(0), hint="b"), hint="a")
    th2 = AP_THM(state, eqth, sel)
    lred = beta_conv(state, dest_eq(th2.conclusion)[0])
    rred = beta_conv(state, dest_eq(th2.conclusion)[1])
    th3 = TRANS(state, TRANS(state, SYM(state, lred), th2), rred)
    th4 = EQT_ELIM(state, th3)  # Γ ⊢ sel p q = sel T T
    l, r = dest_eq(th4.conclusion)
    bl = spine_beta(state, l)
    br = spine_beta(state, r)
    th5 = TRANS(state, TRANS(state, SYM(state, bl), th4), br)  # Γ ⊢ side = true
    return EQT_ELIM(state, th5)


def CONJUNCT1(state: KernelState, th: HolTheorem) -> HolTheorem:
    return _conj_select(state, th, True)


def CONJUNCT2(state: KernelState, th: HolTheorem) -> HolTheorem:
    return _conj_select(state, th, False)


def DISCH(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    """Γ ⊢ q becomes Γ − {p} ⊢ p ⟹ q."""
    check_term(state, p)
    th1 = CONJ(state, ASSUME(state, p), th)
    th2 = CONJUNCT1(state, ASSUME(state, th1.conclusion))
    dth = DEDUCT_ANTISYM(state, th1, th2)  # Γ−{p} ⊢ (p ∧ q) = p
    return fold_rule(state, "imp", mk_imp(p, th.conclusion), dth)


def MP(state: KernelState, th_imp: HolTheorem, th_p: HolTheorem) -> HolTheorem:
    concl = th_imp.conclusion
    match concl:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=q):
            pass
        case _:
            raise KernelError("MP needs an implication")
    if p != th_p.conclusion:
        raise KernelError("MP antecedent mismatch")
    th1 = unfold_rule(state, "imp", th_imp)   # Γ ⊢ (p ∧ q) = p
    th2 = EQ_MP(state, SYM(state, th1), th_p)  # Γ∪Δ ⊢ p ∧ q
    return CONJUNCT2(state, th2)


def UNDISCH(state: KernelState, th: HolTheorem) -> HolTheorem:
    match th.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=_):
            return MP(state, th, ASSUME(state, p))
    raise KernelError("UNDISCH needs an implication")


def DISJ1(state: KernelState, th: HolTheorem, q: HolTerm) -> HolTheorem:
    p = th.conclusion
    check_term(state, q)
    r = _fresh("r", PROP, th, p, q)
    a1 = ASSUME(state, mk_imp(p, r))
    step = MP(state, a1, th)                    # Γ, p⟹r ⊢ r
    d1 = DISCH(state, mk_imp(q, r), step)
    d2 = DISCH(state, mk_imp(p, r), d1)
    g = GEN(state, r, d2)
    conv = apply_def_conv(state, "or", mk_disj(p, q))
    return EQ_MP(state, SYM(state, conv), g)


def DISJ2(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    q = th.conclusion
    check_term(state, p)
    r = _fresh("r", PROP, th, p, q)
    a1 = ASSUME(state, mk_imp(q, r))
    step = MP(state, a1, th)
    d1 = DISCH(state, mk_imp(q, r), step)       # Γ ⊢ (q⟹r) ⟹ r
    d2 = DISCH(state, mk_imp(p, r), d1)         # vacuous discharge of p⟹r
    g = GEN(state, r, d2)
    conv = apply_def_conv(state, "or", mk_disj(p, q))
    return EQ_MP(state, SYM(state, conv), g)


def DISJ_CASES(
    state: KernelState, th_or: HolTheorem, th1: HolTheorem, th2: HolTheorem
) -> HolTheorem:
    match th_or.conclusion:
        case App(fn=App(fn=Const(name="or"), arg=p), arg=q):
            pass
        case _:
            raise KernelError("DISJ_CASES needs a disjunction")
    if th1.conclusion != th2.conclusion:
        raise KernelError("DISJ_CASES branches must agree")
    c = th1.conclusion
    unf = unfold_rule(state, "or", th_or)        # Γ ⊢ ∀r. (p⟹r) ⟹ ((q⟹r) ⟹ r)
    sp = SPEC(state, c, unf)
    d1 = DISCH(state, p, th1)
    d2 = DISCH(state, q, th2)
    return MP(state, MP(state, sp, d1), d2)


def NOT_INTRO(state: KernelState, th: HolTheorem) -> HolTheorem:
    match th.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=Const(name="false")):
            return fold_rule(state, "not", mk_neg(p), th)
    raise KernelError("NOT_INTRO needs ⊢ p ⟹ false")


def NOT_ELIM(state: KernelState, th: HolTheorem) -> HolTheorem:
    match th.conclusion:
        case App(fn=Const(name="not")):
            return unfold_rule(state, "not", th)
    raise KernelError("NOT_ELIM needs a negation")


def CONTR(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    """From Γ ⊢ false conclude Γ ⊢ p."""
    match th.conclusion:
        case Const(name="false"):
            pass
        case _:
            raise KernelError("CONTR needs ⊢ false")
    th1 = unfold_rule(state, "false", th)
    return SPEC(state, p, th1)


def EXISTS(state: KernelState, ex_term: HolTerm, witness: HolTerm, th: HolTheorem) -> HolTheorem:
    """Introduce ⊢ ∃x. P x from a proof of P witness."""
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
    q = _fresh("q", PROP, th, pred, witness)
    x = _fresh("x", type_of(witness), th, pred, witness)
    hyp = mk_forall(x, mk_imp(App(pred, x), q))
    a = ASSUME(state, hyp)
    sp = SPEC(state, witness, a)
    # sp : {hyp} ⊢ imp (P witness) q, with the outer redex already reduced
    m = MP(state, sp, body)
    d = DISCH(state, hyp, m)
    g = GEN(state, q, d)
    conv = apply_def_conv(state, "exists", ex_term)
    return EQ_MP(state, SYM(state, conv), g)


def EXT(state: KernelState, x: FVar, th: HolTheorem) -> HolTheorem:
    """The derived extensionality rule: from s x = t x (x fresh) infer
    s = t, via ABS and ETA."""
    e = dest_eq(th.conclusion)
    if e is None:
        raise KernelError("EXT needs an equation")
    sx, tx = e
    if not (isinstance(sx, App) and sx.arg == x and isinstance(tx, App) and tx.arg == x):
        raise KernelError("EXT needs both sides applied to the given variable")
    s, t = sx.fn, tx.fn
    if x in free_vars(s) | free_vars(t):
        raise KernelError("EXT: the variable must not occur in the function parts")
    a = ABS(state, x, th)  # ⊢ (λx. s x) = (λx. t x)
    es = ETA(state, abs_over(x, App(s, x)))
    et = ETA(state, abs_over(x, App(t, x)))
    return TRANS(state, TRANS(state, SYM(state, es), a), et)
