"""Bidirectional checking, definitional equality, and normalization.

Definitional equality weak-head normalizes both sides, compares heads, and
recurses; eta for Pi is comparison-time expansion behind a flag. Universe
levels are concrete naturals; Prop sits at the bottom (Prop : Type 0) and is
impredicative when enabled. Axioms never reduce.

Inference looks each node's rule up in `_INFER`, and `whnf` each head step
in `_STEP`, both keyed by node class. Every recursion goes through a module
name, never a reference it holds: `_infer`, `_check`, `whnf`, `_conv` and
`_normal` here, `shift` and `subst` in `syntax`. So anything that rebinds
those names (the work counts, the layer trace) sees every entry.

Closed terms are checked once per config. The runner inlines each `define`
as one closed node object at every use, so `_infer` stores a closed compound
node's type on the node, paired with the `KernelConfig` object that asked,
and returns it when that same object asks again. This cannot change a
verdict:

- a closed term's type is a function of the term and the config alone: no
  rule reads the context except to look up a variable, and a closed term's
  variables are all bound inside it;
- nodes are immutable, and the pair is keyed on the config's identity, so
  enabling an axiom or Prop (a new config object) infers afresh;
- a failed inference raises before anything is stored.

Two cheaper shortcuts need no argument beyond their own code: `whnf` returns
at once on a head that is not an application or an eliminator, since only
those step, and `_conv` accepts two sides that are one object. The kernel
returns and expects one shared object for each of `Nat`, `Bool`, `Unit`,
`Empty`, `Type 0` and `Prop`, so most conversions the rules ask for end at
that identity test. Sharing cannot change a verdict either: these nodes have
no subterms, are immutable and carry no cache, so the shared object is equal
to, and behaves as, the fresh one each rule built before; where the two
sides are distinct objects, `_conv` compares them as it always did.

Fuel counts contractions: `whnf` burns one unit per beta or iota step and
nothing else, so `normalize` with fuel n succeeds on a term that normalizes
in n contractions. A `whnf` called without a tank makes one of
`DEFAULT_FUEL` only when the head can step.
"""

from __future__ import annotations

from ..errors import FuelError, TypeCheckError, UniverseError
from ..span import node
from .syntax import (
    App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id, IdCases,
    Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases,
    Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W, WRec,
    Zero, _SHAPE, _loose_range, _rebuild, arrow, instantiate, replace_field,
    shift,
)

DTT_AXIOMS = ("funext", "propext", "choice", "K")


@node
class KernelConfig:
    """What a DTT check runs under: eta, cumulativity, Prop's rules and enabled axioms."""

    eta_for_pi: bool = False
    cumulativity: bool = False
    impredicative_prop: bool = False
    proof_irrelevance: bool = False
    axioms: frozenset = frozenset()

    def __post_init__(self):
        for a in self.axioms:
            if a not in DTT_AXIOMS:
                raise TypeCheckError(f"unknown axiom {a}")


@node
class DttContext:
    """Ordered telescope; each entry's type lives in the prefix before it."""

    entries: tuple = ()  # (name, type expr) pairs, outermost first

    def extend(self, name: str, ty: Expr) -> "DttContext":
        return DttContext(self.entries + ((name, ty),))

    def __len__(self):
        return len(self.entries)


Ctx = tuple  # internal: types only, innermost first


def _ctx_types(ctx: DttContext) -> Ctx:
    return tuple(ty for _, ty in reversed(ctx.entries))


def lookup(ctx: Ctx, k: int) -> Expr:
    if k >= len(ctx):
        raise TypeCheckError(f"unbound variable index {k}")
    return shift(ctx[k], k + 1)


# The kernel's one object for each base type and each bottom sort. Every rule
# that returns or expects one of these types uses this object, so a check
# whose inferred and wanted types both come from the kernel is settled by
# `_conv`'s identity test. Leaf nodes hold no cache, so nothing is ever
# stored on them.
NAT, BOOL, UNIT, EMPTY_TYPE = Nat(), Bool(), Unit(), Empty()
TYPE_0, PROP = TypeSort(0), PropSort()


def _type_sort(level: int) -> TypeSort:
    return TYPE_0 if level == 0 else TypeSort(level)


DEFAULT_FUEL = 10**5


class _Fuel:
    __slots__ = ("left", "n")

    def __init__(self, n: int):
        self.left = self.n = n

    def burn(self):
        self.left -= 1
        if self.left < 0:
            raise FuelError.after(self.n)


def _w_rec(cfg: KernelConfig, e: WRec, t: Sup, fuel: _Fuel) -> Expr | None:
    braw = whnf(cfg, t.wtype, fuel)
    if not isinstance(braw, W):
        return None
    m, s, a, f = e.motive, e.step, t.label, t.children
    rec_children = Lam(
        instantiate(braw.cod, a),
        WRec(shift(m, 1), shift(s, 1), App(shift(f, 1), Var(0))),
        hint="y",
    )
    return App(App(App(s, a), f), rec_children)


# The head steps (beta, iota): for each class that can head a redex, the field
# whose whnf decides the step and one contraction per class that field takes,
# called with (cfg, e, head, fuel); a missing entry or a None result means
# stuck, as for every Empty eliminator (Empty has no constructor) and every axiom.
_STEP = {
    App: ("fn", {Lam: lambda cfg, e, f, _: instantiate(f.body, e.arg)}),
    NatRec: ("target", {
        Zero: lambda cfg, e, *_: e.base,
        Succ: lambda cfg, e, n, _: App(App(e.step, n.arg), NatRec(e.motive, e.base, e.step, n.arg)),
    }),
    SigmaCases: ("scrutinee", {Pair: lambda cfg, e, p, _: App(App(e.branch, p.fst), p.snd)}),
    IdCases: ("proof", {Refl: lambda cfg, e, p, _: App(e.refl_case, p.term)}),
    BoolCases: ("target", {
        TrueE: lambda cfg, e, *_: e.if_true,
        FalseE: lambda cfg, e, *_: e.if_false,
    }),
    SumCases: ("scrutinee", {
        Inl: lambda cfg, e, v, _: App(e.on_left, v.value),
        Inr: lambda cfg, e, v, _: App(e.on_right, v.value),
    }),
    WRec: ("target", {Sup: _w_rec}),
    EmptyCases: ("target", {}),
}


def whnf(cfg: KernelConfig, e: Expr, fuel: _Fuel | None = None) -> Expr:
    """Weak head normal form under beta and iota. Each contraction burns one
    unit of fuel; without a tank, one of `DEFAULT_FUEL` is made when the head
    is an application or an eliminator, the only heads that can step. A node
    is rebuilt with its reduced head only when stuck: no contraction in
    `_STEP` reads the node's head field, only the reduced head it is passed."""
    while True:
        rule = _STEP.get(type(e))
        if rule is None:
            return e  # only applications and eliminators step
        if fuel is None:
            fuel = _Fuel(DEFAULT_FUEL)
        head_field, contractions = rule
        head = getattr(e, head_field)
        head_w = whnf(cfg, head, fuel)
        contract = contractions.get(type(head_w))
        stepped = None if contract is None else contract(cfg, e, head_w, fuel)
        if stepped is None:
            return e if head_w is head else replace_field(e, head_field, head_w)
        fuel.burn()
        e = stepped


def normalize(cfg: KernelConfig, ctx: DttContext, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Full normal form: no remaining beta/iota redex; axioms stay inert.
    `fuel` bounds the contractions, so a term that normalizes in exactly
    `fuel` of them succeeds."""
    return _normal(cfg, e, _Fuel(fuel))


def _normal(cfg: KernelConfig, e: Expr, fuel: _Fuel) -> Expr:
    """whnf of e with each subexpression normalized; an unchanged node is kept."""
    e = whnf(cfg, e, fuel)
    shape = _SHAPE.get(type(e))
    if shape is None:
        return e
    children = []
    changed = False
    for name, _ in shape:
        sub = getattr(e, name)
        new = _normal(cfg, sub, fuel)
        if new is not sub:
            changed = True
        children.append(new)
    return _rebuild(e, children) if changed else e


def defeq(cfg: KernelConfig, ctx: DttContext, s: Expr, t: Expr, ty: Expr | None = None) -> bool:
    """Definitional equality of well-typed terms at a common type.

    With definitional proof irrelevance on and the common type given, any two
    terms of a Prop-classified type are equal.
    """
    if cfg.proof_irrelevance and ty is not None:
        try:
            if isinstance(sort_of(cfg, ctx, ty), PropSort):
                return True
        except TypeCheckError:
            pass
    return _conv(cfg, s, t)


def _conv(cfg: KernelConfig, s: Expr, t: Expr, fuel: _Fuel | None = None) -> bool:
    if s is t:
        return True
    if fuel is None:
        fuel = _Fuel(DEFAULT_FUEL)
    s = whnf(cfg, s, fuel)
    t = whnf(cfg, t, fuel)
    if s == t:
        return True
    if cfg.eta_for_pi:
        if isinstance(s, Lam) and not isinstance(t, Lam):
            return _conv(cfg, s.body, App(shift(t, 1), Var(0)), fuel)
        if isinstance(t, Lam) and not isinstance(s, Lam):
            return _conv(cfg, App(shift(s, 1), Var(0)), t.body, fuel)
    if type(s) is not type(t):
        return False
    if isinstance(s, Sigma) and s.in_prop != t.in_prop:
        return False
    shape = _SHAPE.get(type(s))
    if shape is None:
        return s == t
    for name, _ in shape:
        if not _conv(cfg, getattr(s, name), getattr(t, name), fuel):
            return False
    return True


# ---------------------------------------------------------------------------
# Sorts and universes


def _level(sort: Expr) -> int:
    match sort:
        case TypeSort(level=i):
            return i
        case PropSort():
            return 0
    raise TypeCheckError("expected a sort")


def sort_of(cfg: KernelConfig, ctx: DttContext, ty: Expr) -> Expr:
    """The sort classifying a type expression."""
    s = whnf(cfg, infer(cfg, ctx, ty))
    if not isinstance(s, (TypeSort, PropSort)):
        raise TypeCheckError("not a type: its classifier is not a sort")
    return s


def _guard_prop_elim(cfg: KernelConfig, scrutinee_sort: Expr, motive_sort: Expr, what: str) -> None:
    if isinstance(scrutinee_sort, PropSort) and not isinstance(motive_sort, PropSort):
        from .printer import pretty

        raise TypeCheckError(
            f"large elimination from Prop: {what} eliminates a proposition into a "
            f"{pretty(motive_sort)}-valued motive",
            tag="prop-elimination",
        )


# ---------------------------------------------------------------------------
# Contexts


def check_ctx(cfg: KernelConfig, gamma: DttContext) -> None:
    """Each entry's type must be Sort-classified in its prefix; names unique."""
    seen = set()
    prefix = DttContext()
    for name, ty in gamma.entries:
        if name in seen:
            raise TypeCheckError(f"duplicate variable {name} in context")
        seen.add(name)
        sort_of(cfg, prefix, ty)
        prefix = prefix.extend(name, ty)


# ---------------------------------------------------------------------------
# Axioms


def axiom_type(cfg: KernelConfig, name: str) -> Expr:
    """The displayed type of a configurable axiom (at universe level 0)."""
    if name not in DTT_AXIOMS:
        raise TypeCheckError(f"unknown axiom {name}")
    if name not in cfg.axioms:
        raise TypeCheckError(f"axiom-disabled: {name}", tag="axiom-disabled")
    t0 = TYPE_0
    if name == "funext":
        # Pi a : Type0. Pi b : a -> Type0. Pi f g : (Pi x:a. b x).
        #   (Pi x:a. Id (b x) (f x) (g x)) -> Id (Pi x:a. b x) f g
        pi_fg = Pi(Var(1), App(Var(1), Var(0)))  # under a, b
        return Pi(
            t0,
            Pi(
                arrow(Var(0), t0),
                Pi(
                    pi_fg,
                    Pi(
                        shift(pi_fg, 1),
                        arrow(
                            Pi(
                                Var(3),
                                Id(
                                    App(Var(3), Var(0)),
                                    App(Var(2), Var(0)),
                                    App(Var(1), Var(0)),
                                ),
                            ),
                            Id(shift(pi_fg, 2), Var(1), Var(0)),
                        ),
                    ),
                ),
            ),
        )
    if name == "propext":
        if not cfg.impredicative_prop:
            raise TypeCheckError("propext needs impredicative Prop")
        return Pi(
            PROP,
            Pi(
                PROP,
                arrow(
                    arrow(Var(1), Var(0)),
                    arrow(arrow(Var(0), Var(1)), Id(PROP, Var(1), Var(0))),
                ),
            ),
        )
    if name == "choice":
        if not cfg.impredicative_prop:
            raise TypeCheckError("choice needs impredicative Prop for Nonempty")
        nonempty = Sigma(Var(0), Id(Var(1), Var(0), Var(0)), in_prop=True)
        return Pi(t0, arrow(nonempty, Var(0)))
    if name == "K":
        idab = Id(Var(2), Var(1), Var(0))  # under a, x, y
        return Pi(
            t0,
            Pi(
                Var(0),
                Pi(
                    Var(1),
                    Pi(
                        idab,
                        Pi(shift(idab, 1), Id(shift(idab, 2), Var(1), Var(0))),
                    ),
                ),
            ),
        )
    raise TypeCheckError(f"unknown axiom {name}")


def axiom_term(cfg: KernelConfig, name: str) -> tuple[Expr, Expr]:
    return Axiom(name), axiom_type(cfg, name)


# ---------------------------------------------------------------------------
# Inference


def infer(cfg: KernelConfig, gamma: DttContext, e: Expr) -> Expr:
    """The type of e in the context, with conversion built in."""
    return _infer(cfg, _ctx_types(gamma), e)


def check(cfg: KernelConfig, gamma: DttContext, e: Expr, ty: Expr) -> None:
    """Succeeds iff infer's result converts to ty (with cumulative lifting
    when enabled)."""
    ctx = _ctx_types(gamma)
    _check(cfg, ctx, e, ty)


def _check(cfg: KernelConfig, ctx: Ctx, e: Expr, ty: Expr) -> None:
    got = _infer(cfg, ctx, e)
    if _subsumes(cfg, got, ty):
        return
    got_n = whnf(cfg, got)
    want_n = whnf(cfg, ty)
    from .printer import pretty

    if isinstance(got_n, (TypeSort, PropSort)) and isinstance(want_n, (TypeSort, PropSort)):
        raise UniverseError(
            f"universe mismatch: inferred {pretty(got_n)}, expected {pretty(want_n)}"
        )
    raise TypeCheckError(
        f"type mismatch: inferred {pretty(got_n)}, expected {pretty(want_n)}"
    )


def _subsumes(cfg: KernelConfig, got: Expr, want: Expr) -> bool:
    if _conv(cfg, got, want):
        return True
    if cfg.cumulativity:
        g = whnf(cfg, got)
        w = whnf(cfg, want)
        if isinstance(g, TypeSort) and isinstance(w, TypeSort) and g.level <= w.level:
            return True
    return False


def _sort(cfg: KernelConfig, ctx: Ctx, ty: Expr, what: str) -> Expr:
    s = whnf(cfg, _infer(cfg, ctx, ty))
    if not isinstance(s, (TypeSort, PropSort)):
        from .printer import pretty

        raise TypeCheckError(f"{what} is not a type: {pretty(ty)}")
    if isinstance(s, PropSort) and not cfg.impredicative_prop:
        raise TypeCheckError("Prop is disabled: enable impredicative_prop", tag="prop-disabled")
    return s


def _infer(cfg: KernelConfig, ctx: Ctx, e: Expr) -> Expr:
    """The type of e, from its class's rule in `_INFER`; a closed compound
    node keeps it for the config object that asked (see the module docstring
    for why that is sound)."""
    rule = _INFER.get(type(e), _no_rule)
    if type(e) in _SHAPE and (e._loose if e._loose is not None else _loose_range(e)) == 0:
        typed = e._typed
        if typed is not None and typed[0] is cfg:
            return typed[1]
        ty = rule(cfg, ctx, e)
        object.__setattr__(e, "_typed", (cfg, ty))
        return ty
    return rule(cfg, ctx, e)


# One rule per node class, each called with (cfg, ctx, e). A rule recurses
# only through the module names `_infer`, `_check`, `_sort`, `_motive_sort`,
# `whnf` and `_conv`, never through a reference it holds.


def _infer_var(cfg: KernelConfig, ctx: Ctx, e: Var) -> Expr:
    return lookup(ctx, e.index)


def _infer_type_sort(cfg: KernelConfig, ctx: Ctx, e: TypeSort) -> Expr:
    return TypeSort(e.level + 1)


def _infer_prop_sort(cfg: KernelConfig, ctx: Ctx, e: PropSort) -> Expr:
    if not cfg.impredicative_prop:
        raise TypeCheckError(
            "Prop is disabled: enable impredicative_prop", tag="prop-disabled"
        )
    return TYPE_0


def _infer_pi(cfg: KernelConfig, ctx: Ctx, e: Pi) -> Expr:
    d, c = e.dom, e.cod
    sd = _sort(cfg, ctx, d, "Pi domain")
    sc = _sort(cfg, (d,) + ctx, c, "Pi codomain")
    if isinstance(sc, PropSort):
        return PROP
    return _type_sort(max(_level(sd), _level(sc)))


def _infer_lam(cfg: KernelConfig, ctx: Ctx, e: Lam) -> Expr:
    d, b = e.dom, e.body
    _sort(cfg, ctx, d, "binder annotation")
    tb = _infer(cfg, (d,) + ctx, b)
    return Pi(d, tb, hint=e.hint)


def _infer_app(cfg: KernelConfig, ctx: Ctx, e: App) -> Expr:
    f, a = e.fn, e.arg
    tf = whnf(cfg, _infer(cfg, ctx, f))
    if not isinstance(tf, Pi):
        from .printer import pretty

        raise TypeCheckError(f"application of non-function: {pretty(f)}")
    _check(cfg, ctx, a, tf.dom)
    return instantiate(tf.cod, a)


def _infer_sigma(cfg: KernelConfig, ctx: Ctx, e: Sigma) -> Expr:
    d, c = e.dom, e.cod
    sd = _sort(cfg, ctx, d, "Sigma domain")
    sc = _sort(cfg, (d,) + ctx, c, "Sigma codomain")
    if e.in_prop:
        if not cfg.impredicative_prop:
            raise TypeCheckError(
                "the existential needs impredicative Prop", tag="prop-disabled"
            )
        if not isinstance(sc, PropSort):
            raise TypeCheckError("an existential's body must be a proposition")
        return PROP
    return _type_sort(max(_level(sd), _level(sc)))


def _infer_pair(cfg: KernelConfig, ctx: Ctx, e: Pair) -> Expr:
    ann, a, b = e.sigma, e.fst, e.snd
    _sort(cfg, ctx, ann, "pair annotation")
    w = whnf(cfg, ann)
    if not isinstance(w, Sigma):
        raise TypeCheckError("pair annotation must be a Sigma type")
    _check(cfg, ctx, a, w.dom)
    _check(cfg, ctx, b, instantiate(w.cod, a))
    return ann


def _infer_sigma_cases(cfg: KernelConfig, ctx: Ctx, e: SigmaCases) -> Expr:
    m, br, p = e.motive, e.branch, e.scrutinee
    tp = whnf(cfg, _infer(cfg, ctx, p))
    if not isinstance(tp, Sigma):
        raise TypeCheckError("sigma elimination of a non-Sigma scrutinee")
    m_sort = _motive_sort(cfg, ctx, m, tp, "sigma eliminator")
    if tp.in_prop:
        _guard_prop_elim(cfg, PROP, m_sort, "sigma eliminator")
    pair_of_vars = Pair(shift(tp, 2), Var(1), Var(0))
    want_branch = Pi(
        tp.dom, Pi(tp.cod, App(shift(m, 2), pair_of_vars))
    )
    _check(cfg, ctx, br, want_branch)
    return App(m, p)


def _infer_id(cfg: KernelConfig, ctx: Ctx, e: Id) -> Expr:
    ty, a, b = e.type, e.lhs, e.rhs
    s = _sort(cfg, ctx, ty, "identity domain")
    _check(cfg, ctx, a, ty)
    _check(cfg, ctx, b, ty)
    if cfg.impredicative_prop:
        return PROP
    return _type_sort(_level(s))


def _infer_refl(cfg: KernelConfig, ctx: Ctx, e: Refl) -> Expr:
    ty, a = e.type, e.term
    _sort(cfg, ctx, ty, "identity domain")
    _check(cfg, ctx, a, ty)
    return Id(ty, a, a)


def _infer_id_cases(cfg: KernelConfig, ctx: Ctx, e: IdCases) -> Expr:
    m, rc, a, b, p = e.motive, e.refl_case, e.lhs, e.rhs, e.proof
    tp = whnf(cfg, _infer(cfg, ctx, p))
    if not isinstance(tp, Id):
        raise TypeCheckError("identity elimination of a non-identity proof")
    ty = tp.type
    _check(cfg, ctx, a, ty)
    _check(cfg, ctx, b, ty)
    if not _conv(cfg, tp.lhs, a) or not _conv(cfg, tp.rhs, b):
        raise TypeCheckError("identity eliminator endpoints do not match the proof")
    # motive : Pi x:ty. Pi y:ty. Pi q : Id ty x y. sort
    tm = whnf(cfg, _infer(cfg, ctx, m))
    ok = isinstance(tm, Pi) and _conv(cfg, tm.dom, ty)
    if ok:
        inner1 = whnf(cfg, tm.cod)
        ok = isinstance(inner1, Pi) and _conv(cfg, inner1.dom, shift(ty, 1))
        if ok:
            inner2 = whnf(cfg, inner1.cod)
            ok = isinstance(inner2, Pi) and _conv(
                cfg, inner2.dom, Id(shift(ty, 2), Var(1), Var(0))
            ) and isinstance(whnf(cfg, inner2.cod), (TypeSort, PropSort))
    if not ok:
        raise TypeCheckError(
            "identity eliminator motive must have shape "
            "Pi x y : t. Pi p : Id t x y. sort",
            tag="motive-error",
        )
    want_rc = Pi(
        ty,
        App(
            App(App(shift(m, 1), Var(0)), Var(0)),
            Refl(shift(ty, 1), Var(0)),
        ),
    )
    _check(cfg, ctx, rc, want_rc)
    return App(App(App(m, a), b), p)


def _infer_base_type(cfg: KernelConfig, ctx: Ctx, e: Expr) -> Expr:
    return TYPE_0


def _infer_zero(cfg: KernelConfig, ctx: Ctx, e: Zero) -> Expr:
    return NAT


def _infer_succ(cfg: KernelConfig, ctx: Ctx, e: Succ) -> Expr:
    _check(cfg, ctx, e.arg, NAT)
    return NAT


def _infer_nat_rec(cfg: KernelConfig, ctx: Ctx, e: NatRec) -> Expr:
    m, b, s, n = e.motive, e.base, e.step, e.target
    _check(cfg, ctx, n, NAT)
    _motive_sort(cfg, ctx, m, NAT, "natural-number eliminator")
    _check(cfg, ctx, b, App(m, Zero()))
    want_step = Pi(
        NAT,
        Pi(App(shift(m, 1), Var(0)), App(shift(m, 2), Succ(Var(1)))),
    )
    _check(cfg, ctx, s, want_step)
    return App(m, n)


def _infer_star(cfg: KernelConfig, ctx: Ctx, e: Star) -> Expr:
    return UNIT


def _infer_boolean(cfg: KernelConfig, ctx: Ctx, e: Expr) -> Expr:
    return BOOL


def _infer_bool_cases(cfg: KernelConfig, ctx: Ctx, e: BoolCases) -> Expr:
    m, t, f, b = e.motive, e.if_true, e.if_false, e.target
    _check(cfg, ctx, b, BOOL)
    _motive_sort(cfg, ctx, m, BOOL, "boolean eliminator")
    _check(cfg, ctx, t, App(m, TrueE()))
    _check(cfg, ctx, f, App(m, FalseE()))
    return App(m, b)


def _infer_empty_cases(cfg: KernelConfig, ctx: Ctx, e: EmptyCases) -> Expr:
    m, t = e.motive, e.target
    _check(cfg, ctx, t, EMPTY_TYPE)
    _motive_sort(cfg, ctx, m, EMPTY_TYPE, "empty eliminator")
    return App(m, t)


def _infer_sum(cfg: KernelConfig, ctx: Ctx, e: Sum) -> Expr:
    sl = _sort(cfg, ctx, e.left, "sum left")
    sr = _sort(cfg, ctx, e.right, "sum right")
    return _type_sort(max(_level(sl), _level(sr)))


def _infer_injection(cfg: KernelConfig, ctx: Ctx, e: Inl | Inr) -> Expr:
    ann, v = e.sum, e.value
    _sort(cfg, ctx, ann, "injection annotation")
    w = whnf(cfg, ann)
    if not isinstance(w, Sum):
        raise TypeCheckError("injection annotation must be a sum type")
    _check(cfg, ctx, v, w.left if isinstance(e, Inl) else w.right)
    return ann


def _infer_sum_cases(cfg: KernelConfig, ctx: Ctx, e: SumCases) -> Expr:
    m, f, g, s = e.motive, e.on_left, e.on_right, e.scrutinee
    ts = whnf(cfg, _infer(cfg, ctx, s))
    if not isinstance(ts, Sum):
        raise TypeCheckError("sum elimination of a non-sum scrutinee")
    _motive_sort(cfg, ctx, m, ts, "sum eliminator")
    want_f = Pi(ts.left, App(shift(m, 1), Inl(shift(ts, 1), Var(0))))
    want_g = Pi(ts.right, App(shift(m, 1), Inr(shift(ts, 1), Var(0))))
    _check(cfg, ctx, f, want_f)
    _check(cfg, ctx, g, want_g)
    return App(m, s)


def _infer_w(cfg: KernelConfig, ctx: Ctx, e: W) -> Expr:
    d, c = e.dom, e.cod
    sd = _sort(cfg, ctx, d, "W domain")
    sc = _sort(cfg, (d,) + ctx, c, "W branching family")
    return _type_sort(max(_level(sd), _level(sc)))


def _infer_sup(cfg: KernelConfig, ctx: Ctx, e: Sup) -> Expr:
    ann, a, f = e.wtype, e.label, e.children
    _sort(cfg, ctx, ann, "sup annotation")
    w = whnf(cfg, ann)
    if not isinstance(w, W):
        raise TypeCheckError("sup annotation must be a W type")
    _check(cfg, ctx, a, w.dom)
    _check(cfg, ctx, f, arrow(instantiate(w.cod, a), ann))
    return ann


def _infer_w_rec(cfg: KernelConfig, ctx: Ctx, e: WRec) -> Expr:
    m, s, t = e.motive, e.step, e.target
    tw = whnf(cfg, _infer(cfg, ctx, t))
    if not isinstance(tw, W):
        raise TypeCheckError("W elimination of a non-W scrutinee")
    _motive_sort(cfg, ctx, m, tw, "W eliminator")
    # step : Pi a : dom. Pi f : cod[a] -> W. (Pi y : cod[a]. m (f y)) -> m (sup a f)
    dom, cod = tw.dom, tw.cod
    w2 = shift(tw, 2)
    want_step = Pi(
        dom,
        Pi(
            arrow(cod, shift(tw, 1)),
            arrow(
                Pi(shift(cod, 1), App(shift(m, 3), App(Var(1), Var(0)))),
                App(shift(m, 2), Sup(w2, Var(1), Var(0))),
            ),
        ),
    )
    _check(cfg, ctx, s, want_step)
    return App(m, t)


def _infer_axiom(cfg: KernelConfig, ctx: Ctx, e: Axiom) -> Expr:
    return axiom_type(cfg, e.name)


def _no_rule(cfg: KernelConfig, ctx: Ctx, e) -> Expr:
    raise TypeCheckError(f"cannot infer a type for {type(e).__name__}")


_INFER = {
    Var: _infer_var,
    TypeSort: _infer_type_sort,
    PropSort: _infer_prop_sort,
    Pi: _infer_pi,
    Lam: _infer_lam,
    App: _infer_app,
    Sigma: _infer_sigma,
    Pair: _infer_pair,
    SigmaCases: _infer_sigma_cases,
    Id: _infer_id,
    Refl: _infer_refl,
    IdCases: _infer_id_cases,
    Nat: _infer_base_type,
    Empty: _infer_base_type,
    Unit: _infer_base_type,
    Bool: _infer_base_type,
    Zero: _infer_zero,
    Succ: _infer_succ,
    NatRec: _infer_nat_rec,
    Star: _infer_star,
    TrueE: _infer_boolean,
    FalseE: _infer_boolean,
    BoolCases: _infer_bool_cases,
    EmptyCases: _infer_empty_cases,
    Sum: _infer_sum,
    Inl: _infer_injection,
    Inr: _infer_injection,
    SumCases: _infer_sum_cases,
    W: _infer_w,
    Sup: _infer_sup,
    WRec: _infer_w_rec,
    Axiom: _infer_axiom,
}


def _motive_sort(cfg: KernelConfig, ctx: Ctx, motive: Expr, scrutinee_ty: Expr, what: str) -> Expr:
    """Validate motive : Pi z : scrutinee_ty. sort and return the sort.

    The motive's inferred type is Pi(dom, s) where s is already the sort its
    body lands in (the classifier of a type is a sort).
    """
    tm = whnf(cfg, _infer(cfg, ctx, motive))
    if not (isinstance(tm, Pi) and _conv(cfg, tm.dom, scrutinee_ty)):
        raise TypeCheckError(
            f"{what} motive must abstract over the scrutinee's type",
            tag="motive-error",
        )
    s = whnf(cfg, tm.cod)
    if not isinstance(s, (TypeSort, PropSort)):
        raise TypeCheckError(f"{what} motive must land in a sort", tag="motive-error")
    # guard: scrutinee type in Prop must not eliminate into data
    scr_sort = whnf(cfg, _infer(cfg, ctx, scrutinee_ty))
    if isinstance(scr_sort, PropSort):
        _guard_prop_elim(cfg, scr_sort, s, what)
    return s


def prop_elim_guard(cfg: KernelConfig, gamma: DttContext, e: Expr) -> None:
    """Re-run the Prop large-elimination guard on an eliminator application
    (it also runs inside infer)."""
    infer(cfg, gamma, e)
