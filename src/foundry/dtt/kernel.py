"""Bidirectional checking, definitional equality, and normalization.

Definitional equality weak-head normalizes both sides, compares heads, and
recurses; eta for Pi is comparison-time expansion behind a flag. Universe
levels are concrete naturals; Prop sits at the bottom (Prop : Type 0) and is
impredicative when enabled. Axioms never reduce.

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
those step, and `_conv` accepts two sides that are one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FuelError, TypeCheckError, UniverseError
from .syntax import (
    App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id, IdCases,
    Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases,
    Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W, WRec,
    Zero, _SHAPE, _loose_range, arrow, instantiate, map_subexprs, replace_field,
    shift,
)

DTT_AXIOMS = ("funext", "propext", "choice", "K")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


DEFAULT_FUEL = 10**5


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def burn(self):
        self.left -= 1
        if self.left < 0:
            raise FuelError("normalization fuel exhausted")


def _step(cfg: KernelConfig, e: Expr) -> Expr | None:
    """One head reduction (beta or iota), or None. Axioms are inert."""
    match e:
        case App(fn=Lam(body=b), arg=a):
            return instantiate(b, a)
        case NatRec(base=b, target=Zero()):
            return b
        case NatRec(motive=m, base=b, step=s, target=Succ(arg=u)):
            return App(App(s, u), NatRec(m, b, s, u))
        case SigmaCases(branch=br, scrutinee=Pair(fst=a, snd=b)):
            return App(App(br, a), b)
        case IdCases(refl_case=rc, proof=Refl(term=z)):
            return App(rc, z)
        case BoolCases(if_true=t, target=TrueE()):
            return t
        case BoolCases(if_false=f, target=FalseE()):
            return f
        case SumCases(on_left=f, scrutinee=Inl(value=a)):
            return App(f, a)
        case SumCases(on_right=g, scrutinee=Inr(value=b)):
            return App(g, b)
        case WRec(motive=m, step=s, target=Sup(wtype=wty, label=a, children=f)):
            braw = _whnf_type(cfg, wty)
            if not isinstance(braw, W):
                return None
            child_ty = instantiate(braw.cod, a)
            rec_children = Lam(
                child_ty,
                WRec(shift(m, 1), shift(s, 1), App(shift(f, 1), Var(0))),
                hint="y",
            )
            return App(App(App(s, a), f), rec_children)
    return None


def _whnf_type(cfg: KernelConfig, e: Expr) -> Expr:
    return whnf(cfg, e, _Fuel(DEFAULT_FUEL))


_HEAD_FIELD = {
    App: "fn",
    NatRec: "target",
    SigmaCases: "scrutinee",
    IdCases: "proof",
    BoolCases: "target",
    SumCases: "scrutinee",
    WRec: "target",
    EmptyCases: "target",
}


def whnf(cfg: KernelConfig, e: Expr, fuel: _Fuel | None = None) -> Expr:
    """Weak head normal form under beta and iota."""
    if fuel is None:
        fuel = _Fuel(DEFAULT_FUEL)
    while True:
        fuel.burn()
        head_field = _HEAD_FIELD.get(type(e))
        if head_field is None:
            return e  # only applications and eliminators step
        sub = getattr(e, head_field)
        sub_w = whnf(cfg, sub, fuel)
        if sub_w is not sub:
            e = replace_field(e, head_field, sub_w)
        stepped = _step(cfg, e)
        if stepped is None:
            return e
        e = stepped


def normalize(cfg: KernelConfig, ctx: DttContext, e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Full normal form: no remaining beta/iota redex; axioms stay inert."""
    tank = _Fuel(fuel)

    def go(e: Expr) -> Expr:
        e = whnf(cfg, e, tank)
        tank.burn()
        return map_subexprs(e, lambda sub, _d: go(sub))

    return go(e)


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
    return _conv(cfg, s, t, _Fuel(DEFAULT_FUEL))


def _conv(cfg: KernelConfig, s: Expr, t: Expr, fuel: _Fuel) -> bool:
    if s is t:
        return True
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
    return all(_conv(cfg, getattr(s, f), getattr(t, f), fuel) for f, _ in shape)


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
    s = whnf(cfg, infer(cfg, ctx, ty), _Fuel(DEFAULT_FUEL))
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
    t0 = TypeSort(0)
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
            PropSort(),
            Pi(
                PropSort(),
                arrow(
                    arrow(Var(1), Var(0)),
                    arrow(arrow(Var(0), Var(1)), Id(PropSort(), Var(1), Var(0))),
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
    got_n = whnf(cfg, got, _Fuel(DEFAULT_FUEL))
    want_n = whnf(cfg, ty, _Fuel(DEFAULT_FUEL))
    from .printer import pretty

    if isinstance(got_n, (TypeSort, PropSort)) and isinstance(want_n, (TypeSort, PropSort)):
        raise UniverseError(
            f"universe mismatch: inferred {pretty(got_n)}, expected {pretty(want_n)}"
        )
    raise TypeCheckError(
        f"type mismatch: inferred {pretty(got_n)}, expected {pretty(want_n)}"
    )


def _subsumes(cfg: KernelConfig, got: Expr, want: Expr) -> bool:
    if _conv(cfg, got, want, _Fuel(DEFAULT_FUEL)):
        return True
    if cfg.cumulativity:
        g = whnf(cfg, got, _Fuel(DEFAULT_FUEL))
        w = whnf(cfg, want, _Fuel(DEFAULT_FUEL))
        if isinstance(g, TypeSort) and isinstance(w, TypeSort) and g.level <= w.level:
            return True
    return False


def _sort(cfg: KernelConfig, ctx: Ctx, ty: Expr, what: str) -> Expr:
    s = whnf(cfg, _infer(cfg, ctx, ty), _Fuel(DEFAULT_FUEL))
    if not isinstance(s, (TypeSort, PropSort)):
        from .printer import pretty

        raise TypeCheckError(f"{what} is not a type: {pretty(ty)}")
    if isinstance(s, PropSort) and not cfg.impredicative_prop:
        raise TypeCheckError("Prop is disabled: enable impredicative_prop", tag="prop-disabled")
    return s


def _infer(cfg: KernelConfig, ctx: Ctx, e: Expr) -> Expr:
    """The type of e; a closed compound node keeps it for the config object
    that asked (see the module docstring for why that is sound)."""
    if type(e) in _SHAPE and _loose_range(e) == 0:
        typed = e._typed
        if typed is not None and typed[0] is cfg:
            return typed[1]
        ty = _infer_node(cfg, ctx, e)
        object.__setattr__(e, "_typed", (cfg, ty))
        return ty
    return _infer_node(cfg, ctx, e)


def _infer_node(cfg: KernelConfig, ctx: Ctx, e: Expr) -> Expr:
    match e:
        case Var(index=k):
            return lookup(ctx, k)
        case TypeSort(level=i):
            return TypeSort(i + 1)
        case PropSort():
            if not cfg.impredicative_prop:
                raise TypeCheckError(
                    "Prop is disabled: enable impredicative_prop", tag="prop-disabled"
                )
            return TypeSort(0)
        case Pi(dom=d, cod=c):
            sd = _sort(cfg, ctx, d, "Pi domain")
            sc = _sort(cfg, (d,) + ctx, c, "Pi codomain")
            if isinstance(sc, PropSort):
                return PropSort()
            return TypeSort(max(_level(sd), _level(sc)))
        case Lam(dom=d, body=b, hint=h):
            _sort(cfg, ctx, d, "binder annotation")
            tb = _infer(cfg, (d,) + ctx, b)
            return Pi(d, tb, hint=h)
        case App(fn=f, arg=a):
            tf = whnf(cfg, _infer(cfg, ctx, f), _Fuel(DEFAULT_FUEL))
            if not isinstance(tf, Pi):
                from .printer import pretty

                raise TypeCheckError(f"application of non-function: {pretty(f)}")
            _check(cfg, ctx, a, tf.dom)
            return instantiate(tf.cod, a)
        case Sigma(dom=d, cod=c, in_prop=ip):
            sd = _sort(cfg, ctx, d, "Sigma domain")
            sc = _sort(cfg, (d,) + ctx, c, "Sigma codomain")
            if ip:
                if not cfg.impredicative_prop:
                    raise TypeCheckError(
                        "the existential needs impredicative Prop", tag="prop-disabled"
                    )
                if not isinstance(sc, PropSort):
                    raise TypeCheckError("an existential's body must be a proposition")
                return PropSort()
            return TypeSort(max(_level(sd), _level(sc)))
        case Pair(sigma=ann, fst=a, snd=b):
            _sort(cfg, ctx, ann, "pair annotation")
            w = whnf(cfg, ann, _Fuel(DEFAULT_FUEL))
            if not isinstance(w, Sigma):
                raise TypeCheckError("pair annotation must be a Sigma type")
            _check(cfg, ctx, a, w.dom)
            _check(cfg, ctx, b, instantiate(w.cod, a))
            return ann
        case SigmaCases(motive=m, branch=br, scrutinee=p):
            tp = whnf(cfg, _infer(cfg, ctx, p), _Fuel(DEFAULT_FUEL))
            if not isinstance(tp, Sigma):
                raise TypeCheckError("sigma elimination of a non-Sigma scrutinee")
            m_sort = _motive_sort(cfg, ctx, m, tp, "sigma eliminator")
            if tp.in_prop:
                _guard_prop_elim(cfg, PropSort(), m_sort, "sigma eliminator")
            pair_of_vars = Pair(shift(tp, 2), Var(1), Var(0))
            want_branch = Pi(
                tp.dom, Pi(tp.cod, App(shift(m, 2), pair_of_vars))
            )
            _check(cfg, ctx, br, want_branch)
            return App(m, p)
        case Id(type=ty, lhs=a, rhs=b):
            s = _sort(cfg, ctx, ty, "identity domain")
            _check(cfg, ctx, a, ty)
            _check(cfg, ctx, b, ty)
            if cfg.impredicative_prop:
                return PropSort()
            return TypeSort(_level(s))
        case Refl(type=ty, term=a):
            _sort(cfg, ctx, ty, "identity domain")
            _check(cfg, ctx, a, ty)
            return Id(ty, a, a)
        case IdCases(motive=m, refl_case=rc, lhs=a, rhs=b, proof=p):
            tp = whnf(cfg, _infer(cfg, ctx, p), _Fuel(DEFAULT_FUEL))
            if not isinstance(tp, Id):
                raise TypeCheckError("identity elimination of a non-identity proof")
            ty = tp.type
            _check(cfg, ctx, a, ty)
            _check(cfg, ctx, b, ty)
            if not _conv(cfg, tp.lhs, a, _Fuel(DEFAULT_FUEL)) or not _conv(
                cfg, tp.rhs, b, _Fuel(DEFAULT_FUEL)
            ):
                raise TypeCheckError("identity eliminator endpoints do not match the proof")
            # motive : Pi x:ty. Pi y:ty. Pi q : Id ty x y. sort
            tm = whnf(cfg, _infer(cfg, ctx, m), _Fuel(DEFAULT_FUEL))
            ok = (
                isinstance(tm, Pi)
                and _conv(cfg, tm.dom, ty, _Fuel(DEFAULT_FUEL))
            )
            if ok:
                inner1 = whnf(cfg, tm.cod, _Fuel(DEFAULT_FUEL))
                ok = isinstance(inner1, Pi) and _conv(
                    cfg, inner1.dom, shift(ty, 1), _Fuel(DEFAULT_FUEL)
                )
                if ok:
                    inner2 = whnf(cfg, inner1.cod, _Fuel(DEFAULT_FUEL))
                    ok = isinstance(inner2, Pi) and _conv(
                        cfg,
                        inner2.dom,
                        Id(shift(ty, 2), Var(1), Var(0)),
                        _Fuel(DEFAULT_FUEL),
                    ) and isinstance(
                        whnf(cfg, inner2.cod, _Fuel(DEFAULT_FUEL)),
                        (TypeSort, PropSort),
                    )
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
        case Nat() | Empty() | Unit() | Bool():
            return TypeSort(0)
        case Zero():
            return Nat()
        case Succ(arg=a):
            _check(cfg, ctx, a, Nat())
            return Nat()
        case NatRec(motive=m, base=b, step=s, target=n):
            _check(cfg, ctx, n, Nat())
            _motive_sort(cfg, ctx, m, Nat(), "natural-number eliminator")
            _check(cfg, ctx, b, App(m, Zero()))
            want_step = Pi(
                Nat(),
                Pi(App(shift(m, 1), Var(0)), App(shift(m, 2), Succ(Var(1)))),
            )
            _check(cfg, ctx, s, want_step)
            return App(m, n)
        case Star():
            return Unit()
        case TrueE() | FalseE():
            return Bool()
        case BoolCases(motive=m, if_true=t, if_false=f, target=b):
            _check(cfg, ctx, b, Bool())
            _motive_sort(cfg, ctx, m, Bool(), "boolean eliminator")
            _check(cfg, ctx, t, App(m, TrueE()))
            _check(cfg, ctx, f, App(m, FalseE()))
            return App(m, b)
        case EmptyCases(motive=m, target=t):
            _check(cfg, ctx, t, Empty())
            _motive_sort(cfg, ctx, m, Empty(), "empty eliminator")
            return App(m, t)
        case Sum(left=l, right=r):
            sl = _sort(cfg, ctx, l, "sum left")
            sr = _sort(cfg, ctx, r, "sum right")
            return TypeSort(max(_level(sl), _level(sr)))
        case Inl(sum=ann, value=v) | Inr(sum=ann, value=v):
            _sort(cfg, ctx, ann, "injection annotation")
            w = whnf(cfg, ann, _Fuel(DEFAULT_FUEL))
            if not isinstance(w, Sum):
                raise TypeCheckError("injection annotation must be a sum type")
            _check(cfg, ctx, v, w.left if isinstance(e, Inl) else w.right)
            return ann
        case SumCases(motive=m, on_left=f, on_right=g, scrutinee=s):
            ts = whnf(cfg, _infer(cfg, ctx, s), _Fuel(DEFAULT_FUEL))
            if not isinstance(ts, Sum):
                raise TypeCheckError("sum elimination of a non-sum scrutinee")
            _motive_sort(cfg, ctx, m, ts, "sum eliminator")
            want_f = Pi(ts.left, App(shift(m, 1), Inl(shift(ts, 1), Var(0))))
            want_g = Pi(ts.right, App(shift(m, 1), Inr(shift(ts, 1), Var(0))))
            _check(cfg, ctx, f, want_f)
            _check(cfg, ctx, g, want_g)
            return App(m, s)
        case W(dom=d, cod=c):
            sd = _sort(cfg, ctx, d, "W domain")
            sc = _sort(cfg, (d,) + ctx, c, "W branching family")
            return TypeSort(max(_level(sd), _level(sc)))
        case Sup(wtype=ann, label=a, children=f):
            _sort(cfg, ctx, ann, "sup annotation")
            w = whnf(cfg, ann, _Fuel(DEFAULT_FUEL))
            if not isinstance(w, W):
                raise TypeCheckError("sup annotation must be a W type")
            _check(cfg, ctx, a, w.dom)
            _check(cfg, ctx, f, arrow(instantiate(w.cod, a), ann))
            return ann
        case WRec(motive=m, step=s, target=t):
            tw = whnf(cfg, _infer(cfg, ctx, t), _Fuel(DEFAULT_FUEL))
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
        case Axiom(name=n):
            return axiom_type(cfg, n)
    raise TypeCheckError(f"cannot infer a type for {type(e).__name__}")


def _motive_sort(cfg: KernelConfig, ctx: Ctx, motive: Expr, scrutinee_ty: Expr, what: str) -> Expr:
    """Validate motive : Pi z : scrutinee_ty. sort and return the sort.

    The motive's inferred type is Pi(dom, s) where s is already the sort its
    body lands in (the classifier of a type is a sort).
    """
    tm = whnf(cfg, _infer(cfg, ctx, motive), _Fuel(DEFAULT_FUEL))
    if not (isinstance(tm, Pi) and _conv(cfg, tm.dom, scrutinee_ty, _Fuel(DEFAULT_FUEL))):
        raise TypeCheckError(
            f"{what} motive must abstract over the scrutinee's type",
            tag="motive-error",
        )
    s = whnf(cfg, tm.cod, _Fuel(DEFAULT_FUEL))
    if not isinstance(s, (TypeSort, PropSort)):
        raise TypeCheckError(f"{what} motive must land in a sort", tag="motive-error")
    # guard: scrutinee type in Prop must not eliminate into data
    scr_sort = whnf(cfg, _infer(cfg, ctx, scrutinee_ty), _Fuel(DEFAULT_FUEL))
    if isinstance(scr_sort, PropSort):
        _guard_prop_elim(cfg, scr_sort, s, what)
    return s


def prop_elim_guard(cfg: KernelConfig, gamma: DttContext, e: Expr) -> None:
    """Re-run the Prop large-elimination guard on an eliminator application
    (it also runs inside infer)."""
    infer(cfg, gamma, e)
