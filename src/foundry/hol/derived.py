"""Derived rules and conversions over the kernel.

Nothing here can mint a theorem except by calling kernel rules, so this layer
is untrusted: a bug can fail to prove something, never prove something false.
The rule set is exactly what the stock scripts (connectives, extensionality,
Diaconescu) need.

Most rules apply a lemma proved once per kernel state instead of unfolding
the connectives from scratch each time. As in HOL Light's bool.ml (Harrison,
"HOL Light: An Overview", TPHOLs 2009), a lemma is the rule's theorem on
generic free variables. The rule instantiates it with inst_term, then
discharges its one hypothesis with the premise th by PROVE_HYP, that is
EQ_MP (DEDUCT_ANTISYM th lemma) th. The lemmas are each standard
connective's unfolding and folding at each type instance and argument count,
TRUTH, and the generic theorems of CONJ, CONJUNCT1/2, MP, SPEC, DISJ1/2, CONTR
and EXISTS. They live in `state.lemmas`, which belongs to one state object,
as `state.checked` does: `span.replace`, new_definition and enable_axiom
each start an empty one.

The cache cannot forge a theorem. It stores only HolTheorems that kernel
rules minted under that very state, and every use goes through inst_term,
which checks each replacement, and the primitive rules. Nor does it change
what a rule returns:
- A lemma is proved and used only while the connectives its derivation
  unfolds have their standard definitions (the test axiom_statement makes).
  No parameter of a standard definiens lands in head position, so no beta
  step depends on an argument, and the instantiated lemma is the very
  theorem, binder hints included, that the derivation from scratch gives.
- Each lemma has one hypothesis, which PROVE_HYP replaces by exactly the
  premise's hypotheses, the same term objects. A lemma with two would let
  PROVE_HYP drop one premise's conclusion from the other's hypotheses.
- Hypothesis sets keep the first of two alpha-equal terms that a union
  meets, and the printer shows that term's binder hints. So each rule
  combines its premises' hypotheses in the order its derivation from scratch
  does, and drops the hypothesis `true` wherever that derivation loses it to
  EQT_INTRO.
Every other state, and any input on which a lemma step fails in the kernel,
takes the derivation from scratch, so errors stay the same as well.
"""

from __future__ import annotations

from ..errors import KernelError
from .kernel import (
    ABS, ASSUME, BETA, DEDUCT_ANTISYM, EQ_MP, ETA, MK_COMB, REFL, TRANS,
    Abs, App, BVar, Const, FVar, HolTerm, HolTheorem, HolType, KernelState,
    PROP, TyApp, _closed_type, _is_standard, abs_over, check_term,
    defining_theorem, dest_eq, fn, free_vars, inst_term, inst_type,
    pretty_type, type_match, type_of,
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


def _strip_comb(t: HolTerm) -> tuple[HolTerm, list[HolTerm]]:
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def apply_def_conv(state: KernelState, name: str, t: HolTerm) -> HolTheorem:
    """⊢ t = t' where t is (c a1 ... an) for defined constant c, and t' has c
    replaced by its definiens with the spine beta-reduced."""
    head, args = _strip_comb(t)
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
# The per-state lemma cache


def _lemma(state: KernelState, key, names, prove) -> HolTheorem:
    """state's lemma `key`, proved by prove(state) on first use.

    Raises KernelError, so that the caller derives from scratch, unless each
    connective in names has its standard definition in state.
    """
    th = state.lemmas.get(key)
    if th is None:
        if not all(_is_standard(state, n) for n in names):
            raise KernelError("no lemma: a connective is not the standard one")
        th = state.lemmas[key] = prove(state)
    return th


def _prove_hyp(state: KernelState, th: HolTheorem, lemma: HolTheorem) -> HolTheorem:
    """PROVE_HYP: discharge lemma's hypothesis th.conclusion by th.

    The result's hypotheses are th's, the very term objects, so they print
    with th's binder hints.
    """
    return EQ_MP(state, DEDUCT_ANTISYM(state, th, lemma), th)


def _drop_truth(state: KernelState, th: HolTheorem) -> HolTheorem:
    """th without the hypothesis `true`.

    The derivations from scratch of CONJ, DISCH, GEN and the rules built on
    them lose it to EQT_INTRO, so their lemma paths drop it too.
    """
    if _TRUE not in th.hypotheses:
        return th
    truth = TRUTH(state)
    return EQ_MP(state, DEDUCT_ANTISYM(state, truth, th), truth)


# the generic variables of the propositional lemmas
_P = FVar("p", PROP)
_Q = FVar("q", PROP)
_TRUE = Const("true", PROP)

_FORALL_DEPS = ("true", "forall")
_AND_DEPS = ("true", "forall", "and")
_IMP_DEPS = _AND_DEPS + ("imp",)
_FALSE_DEPS = _FORALL_DEPS + ("false",)
_OR_DEPS = _IMP_DEPS + ("or",)
_EXISTS_DEPS = _IMP_DEPS + ("exists",)


def _def_params(definiens: HolTerm, ty: HolType, n: int) -> list[FVar] | None:
    """Generic arguments for the first n parameters of a definiens used at
    type ty, named after its binders and numbered so that they differ; None
    if there are fewer."""
    params = []
    for i in range(n):
        if not (isinstance(ty, TyApp) and ty.op == "fun" and isinstance(definiens, Abs)):
            return None
        params.append(FVar(f"{definiens.hint or 'x'}{i}", ty.args[0]))
        ty, definiens = ty.args[1], definiens.body
    return params


def _def_conv(state: KernelState, name: str, t: HolTerm, folding: bool = False) -> HolTheorem:
    """apply_def_conv(state, name, t), or its SYM when folding.

    Where name has its standard definition, the conversion is proved once per
    state, type instance and argument count, on generic arguments, and then
    instantiated.
    """
    head, args = _strip_comb(t)
    if isinstance(head, Const) and head.name == name:
        key = ("fold" if folding else "unfold", name, head.type, len(args))
        conv = state.lemmas.get(key)
        if conv is None and _is_standard(state, name):
            params = _def_params(state.constants[name].definiens, head.type, len(args))
            if params is not None:
                generic = head
                for p in params:
                    generic = App(generic, p)
                conv = apply_def_conv(state, name, generic)
                conv = state.lemmas[key] = SYM(state, conv) if folding else conv
        if conv is not None:
            side = dest_eq(conv.conclusion)[1 if folding else 0]
            try:
                return inst_term(state, conv, dict(zip(_strip_comb(side)[1], args)))
            except KernelError:
                pass
    conv = apply_def_conv(state, name, t)
    return SYM(state, conv) if folding else conv


def _unfold(state: KernelState, name: str, th: HolTheorem) -> HolTheorem:
    return EQ_MP(state, _def_conv(state, name, th.conclusion), th)


def _fold(state: KernelState, name: str, target: HolTerm, th: HolTheorem) -> HolTheorem:
    conv = _def_conv(state, name, target, folding=True)
    if dest_eq(conv.conclusion)[0] != th.conclusion:
        raise KernelError(f"proof does not match the unfolding of {name}")
    return EQ_MP(state, conv, th)


def _binder_domain(ty: HolType) -> HolType | None:
    """D for a quantifier constant at (D -> Prop) -> Prop, else None."""
    match ty:
        case TyApp(op="fun", args=(TyApp(op="fun", args=(dom, _)), _)):
            return dom
    return None


# ---------------------------------------------------------------------------
# Truth and implication


def _truth(state: KernelState) -> HolTheorem:
    dth = defining_theorem(state, "true")
    idp = Abs(PROP, BVar(0), hint="p")
    return EQ_MP(state, SYM(state, dth), REFL(state, idp))


def TRUTH(state: KernelState) -> HolTheorem:
    return _lemma(state, "TRUTH", (), _truth)


def EQT_INTRO(state: KernelState, th: HolTheorem) -> HolTheorem:
    return DEDUCT_ANTISYM(state, th, TRUTH(state))


def EQT_ELIM(state: KernelState, th: HolTheorem) -> HolTheorem:
    return EQ_MP(state, SYM(state, th), TRUTH(state))


def _spec(state: KernelState, t: HolTerm, th: HolTheorem) -> HolTheorem:
    th1 = _unfold(state, "forall", th)      # Γ ⊢ P = (fun x => true)
    th2 = AP_THM(state, th1, t)             # Γ ⊢ P t = (fun x => true) t
    th3 = TRANS(state, th2, beta_conv(state, rhs_of(th2)))
    return EQT_ELIM(state, th3)             # Γ ⊢ P t


def SPEC(state: KernelState, t: HolTerm, th: HolTheorem) -> HolTheorem:
    """From Γ ⊢ ∀x. P x derive Γ ⊢ P t (beta-reducing the instance)."""
    concl = th.conclusion
    if not (isinstance(concl, App) and isinstance(concl.fn, Const) and concl.fn.name == "forall"):
        raise KernelError("SPEC needs a universally quantified theorem")
    pred, forall = concl.arg, concl.fn
    dom = _binder_domain(forall.type)
    ty = _closed_type(state, t)
    if dom is not None and ty != dom:
        raise KernelError(
            f"SPEC: the term has type {pretty_type(ty)}, but the quantifier "
            f"ranges over {pretty_type(dom)}"
        )
    out = None
    if dom is not None:
        gp, gx = FVar("P", forall.type.args[0]), FVar("x", dom)
        try:
            lemma = _lemma(  # {∀P} ⊢ P x
                state, ("SPEC", forall.type), _FORALL_DEPS,
                lambda s: _spec(s, gx, ASSUME(s, App(forall, gp))),
            )
            out = _prove_hyp(state, th, inst_term(state, lemma, {gp: pred, gx: t}))
        except KernelError:
            pass
    if out is None:
        out = _spec(state, t, th)
    if isinstance(out.conclusion, App) and isinstance(out.conclusion.fn, Abs):
        out = CONV_RULE(state, beta_conv(state, out.conclusion), out)
    return out


def GEN(state: KernelState, x: FVar, th: HolTheorem) -> HolTheorem:
    """From Γ ⊢ p derive Γ ⊢ ∀x. p, for x not free in Γ."""
    th1 = EQT_INTRO(state, th)
    th2 = ABS(state, x, th1)  # Γ ⊢ (λx. p) = (λx. true)
    body = abs_over(x, th.conclusion)
    target = App(Const("forall", fn(fn(x.type, PROP), PROP)), body)
    return _fold(state, "forall", target, th2)


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


def _conj(state: KernelState, th1: HolTheorem, th2: HolTheorem) -> HolTheorem:
    p, q = th1.conclusion, th2.conclusion
    rr = fn(PROP, fn(PROP, PROP))
    r = _fresh("r", rr, th1, th2, p, q)
    e1 = EQT_INTRO(state, th1)
    e2 = EQT_INTRO(state, th2)
    c = MK_COMB(state, MK_COMB(state, REFL(state, r), e1), e2)
    a = ABS(state, r, EQT_INTRO(state, c))
    target = mk_conj(p, q)
    conv = _def_conv(state, "and", target)
    conv2 = TRANS(state, conv, _def_conv(state, "forall", rhs_of(conv)))
    return EQ_MP(state, SYM(state, conv2), a)


def _conj_lemma(state: KernelState) -> HolTheorem:
    both = _conj(state, ASSUME(state, _P), ASSUME(state, _Q))   # {p, q} ⊢ p ∧ q
    right = CONJUNCT2(state, ASSUME(state, both.conclusion))    # {p ∧ q} ⊢ q
    return SYM(state, DEDUCT_ANTISYM(state, both, right))       # {p} ⊢ q = p ∧ q


def CONJ(state: KernelState, th1: HolTheorem, th2: HolTheorem) -> HolTheorem:
    try:
        lemma = _lemma(state, "CONJ", _AND_DEPS, _conj_lemma)
        inst = inst_term(state, lemma, {_P: th1.conclusion, _Q: th2.conclusion})
        return _drop_truth(state, EQ_MP(state, _prove_hyp(state, th1, inst), th2))
    except KernelError:
        pass
    return _conj(state, th1, th2)


def _conjunct(state: KernelState, th: HolTheorem, first: bool) -> HolTheorem:
    concl = th.conclusion
    conv = _def_conv(state, "and", concl)
    conv2 = TRANS(state, conv, _def_conv(state, "forall", rhs_of(conv)))
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


def _conj_select(state: KernelState, th: HolTheorem, first: bool) -> HolTheorem:
    match th.conclusion:
        case App(fn=App(fn=Const(name="and"), arg=p), arg=q):
            pass
        case _:
            raise KernelError("not a conjunction")
    try:
        lemma = _lemma(  # {p ∧ q} ⊢ p, or q
            state, ("CONJUNCT", first), _AND_DEPS,
            lambda s: _conjunct(s, ASSUME(s, mk_conj(_P, _Q)), first),
        )
        return _prove_hyp(state, th, inst_term(state, lemma, {_P: p, _Q: q}))
    except KernelError:
        pass
    return _conjunct(state, th, first)


def CONJUNCT1(state: KernelState, th: HolTheorem) -> HolTheorem:
    return _conj_select(state, th, True)


def CONJUNCT2(state: KernelState, th: HolTheorem) -> HolTheorem:
    return _conj_select(state, th, False)


def DISCH(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    """Γ ⊢ q becomes Γ − {p} ⊢ p ⟹ q."""
    th1 = CONJ(state, ASSUME(state, p), th)
    th2 = CONJUNCT1(state, ASSUME(state, th1.conclusion))
    dth = DEDUCT_ANTISYM(state, th1, th2)  # Γ−{p} ⊢ (p ∧ q) = p
    return _fold(state, "imp", mk_imp(p, th.conclusion), dth)


def _mp(state: KernelState, th_imp: HolTheorem, th_p: HolTheorem) -> HolTheorem:
    th1 = _unfold(state, "imp", th_imp)        # Γ ⊢ (p ∧ q) = p
    th2 = EQ_MP(state, SYM(state, th1), th_p)  # Γ∪Δ ⊢ p ∧ q
    return CONJUNCT2(state, th2)


def _mp_lemma(state: KernelState) -> HolTheorem:
    return SYM(state, _unfold(state, "imp", ASSUME(state, mk_imp(_P, _Q))))  # {p ⟹ q} ⊢ p = p ∧ q


def MP(state: KernelState, th_imp: HolTheorem, th_p: HolTheorem) -> HolTheorem:
    concl = th_imp.conclusion
    match concl:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=q):
            pass
        case _:
            raise KernelError("MP needs an implication")
    if p != th_p.conclusion:
        raise KernelError("MP antecedent mismatch")
    try:
        lemma = _lemma(state, "MP", ("imp",), _mp_lemma)
        inst = inst_term(state, lemma, {_P: p, _Q: q})
        return CONJUNCT2(state, EQ_MP(state, _prove_hyp(state, th_imp, inst), th_p))
    except KernelError:
        pass
    return _mp(state, th_imp, th_p)


def UNDISCH(state: KernelState, th: HolTheorem) -> HolTheorem:
    match th.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=_):
            return MP(state, th, ASSUME(state, p))
    raise KernelError("UNDISCH needs an implication")


def _disj1(state: KernelState, th: HolTheorem, q: HolTerm) -> HolTheorem:
    p = th.conclusion
    check_term(state, q)
    r = _fresh("r", PROP, th, p, q)
    a1 = ASSUME(state, mk_imp(p, r))
    step = MP(state, a1, th)                    # Γ, p⟹r ⊢ r
    d1 = DISCH(state, mk_imp(q, r), step)
    d2 = DISCH(state, mk_imp(p, r), d1)
    g = GEN(state, r, d2)
    return _fold(state, "or", mk_disj(p, q), g)


def DISJ1(state: KernelState, th: HolTheorem, q: HolTerm) -> HolTheorem:
    try:
        lemma = _lemma(state, "DISJ1", _OR_DEPS, lambda s: _disj1(s, ASSUME(s, _P), _Q))
        inst = inst_term(state, lemma, {_P: th.conclusion, _Q: q})
        return _drop_truth(state, _prove_hyp(state, th, inst))
    except KernelError:
        pass
    return _disj1(state, th, q)


def _disj2(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    q = th.conclusion
    check_term(state, p)
    r = _fresh("r", PROP, th, p, q)
    a1 = ASSUME(state, mk_imp(q, r))
    step = MP(state, a1, th)
    d1 = DISCH(state, mk_imp(q, r), step)       # Γ ⊢ (q⟹r) ⟹ r
    d2 = DISCH(state, mk_imp(p, r), d1)         # vacuous discharge of p⟹r
    g = GEN(state, r, d2)
    return _fold(state, "or", mk_disj(p, q), g)


def DISJ2(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    try:
        lemma = _lemma(state, "DISJ2", _OR_DEPS, lambda s: _disj2(s, _P, ASSUME(s, _Q)))
        inst = inst_term(state, lemma, {_P: p, _Q: th.conclusion})
        return _drop_truth(state, _prove_hyp(state, th, inst))
    except KernelError:
        pass
    return _disj2(state, p, th)


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
    unf = _unfold(state, "or", th_or)           # Γ ⊢ ∀r. (p⟹r) ⟹ ((q⟹r) ⟹ r)
    sp = SPEC(state, c, unf)
    d1 = DISCH(state, p, th1)
    d2 = DISCH(state, q, th2)
    return MP(state, MP(state, sp, d1), d2)


def NOT_INTRO(state: KernelState, th: HolTheorem) -> HolTheorem:
    match th.conclusion:
        case App(fn=App(fn=Const(name="imp"), arg=p), arg=Const(name="false")):
            return _fold(state, "not", mk_neg(p), th)
    raise KernelError("NOT_INTRO needs ⊢ p ⟹ false")


def NOT_ELIM(state: KernelState, th: HolTheorem) -> HolTheorem:
    match th.conclusion:
        case App(fn=Const(name="not")):
            return _unfold(state, "not", th)
    raise KernelError("NOT_ELIM needs a negation")


def _contr(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    return SPEC(state, p, _unfold(state, "false", th))


def CONTR(state: KernelState, p: HolTerm, th: HolTheorem) -> HolTheorem:
    """From Γ ⊢ false conclude Γ ⊢ p."""
    match th.conclusion:
        case Const(name="false"):
            pass
        case _:
            raise KernelError("CONTR needs ⊢ false")
    ty = _closed_type(state, p)
    if ty != PROP:
        raise KernelError(
            f"CONTR: the term has type {pretty_type(ty)}, but the conclusion "
            f"must have type Prop"
        )
    try:
        lemma = _lemma(  # {false} ⊢ p
            state, "CONTR", _FALSE_DEPS, lambda s: _contr(s, _P, ASSUME(s, Const("false", PROP)))
        )
        return _prove_hyp(state, th, inst_term(state, lemma, {_P: p}))
    except KernelError:
        pass
    return _contr(state, p, th)


def _exists(state: KernelState, ex_term: HolTerm, witness: HolTerm, body: HolTheorem) -> HolTheorem:
    pred = ex_term.arg
    q = _fresh("q", PROP, body, pred, witness)
    x = _fresh("x", type_of(witness), body, pred, witness)
    hyp = mk_forall(x, mk_imp(App(pred, x), q))
    a = ASSUME(state, hyp)
    sp = SPEC(state, witness, a)
    # sp : {hyp} ⊢ imp (P witness) q, with the outer redex already reduced
    m = MP(state, sp, body)
    d = DISCH(state, hyp, m)
    g = GEN(state, q, d)
    return _fold(state, "exists", ex_term, g)


def EXISTS(state: KernelState, ex_term: HolTerm, witness: HolTerm, th: HolTheorem) -> HolTheorem:
    """Introduce ⊢ ∃x. P x from a proof of P witness."""
    match ex_term:
        case App(fn=Const(name="exists") as exists, arg=pred):
            pass
        case _:
            raise KernelError("EXISTS needs an existential target")
    dom = _binder_domain(exists.type)
    ty = _closed_type(state, witness)
    if dom is not None and ty != dom:
        raise KernelError(
            f"EXISTS: the witness has type {pretty_type(ty)}, but the quantifier "
            f"ranges over {pretty_type(dom)}"
        )
    want = App(pred, witness)
    body = th
    if th.conclusion != want:
        bc = beta_conv(state, want)
        if rhs_of(bc) != th.conclusion:
            raise KernelError("EXISTS: the proof does not match the instantiated predicate")
        body = EQ_MP(state, SYM(state, bc), th)
    if dom is not None:
        gp, gx = FVar("P", exists.type.args[0]), FVar("x", dom)
        try:
            lemma = _lemma(  # {P x} ⊢ ∃P
                state, ("EXISTS", exists.type), _EXISTS_DEPS,
                lambda s: _exists(s, App(exists, gp), gx, ASSUME(s, App(gp, gx))),
            )
            inst = inst_term(state, lemma, {gp: pred, gx: witness})
            return _drop_truth(state, _prove_hyp(state, body, inst))
        except KernelError:
            pass
    return _exists(state, ex_term, witness, body)


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
