"""The DTT kernel's inference rules as one `match`, before they became a table.

`_infer_node`, `_check`, `_sort` and `_motive_sort` below are the kernel's
code before its rules moved into `dtt.kernel._INFER`, one handler per node
class, and before it shared one object per base type; they build a fresh
`Nat()`, `TypeSort(0)` and so on wherever the kernel now returns its shared
one. `_infer` here keeps no type on the node, so this reference never reads
what the kernel stored. Conversion, weak head normalization, lookup and the
axioms' types are the kernel's own: `tests/test_dtt_dispatch.py` compares the
inference rules alone.
"""

from foundry.dtt.kernel import (
    DEFAULT_FUEL, Ctx, KernelConfig, _conv, _Fuel, _guard_prop_elim, _level,
    _subsumes, axiom_type, lookup, whnf,
)
from foundry.dtt.syntax import (
    App, Axiom, Bool, BoolCases, Empty, EmptyCases, Expr, FalseE, Id, IdCases,
    Inl, Inr, Lam, Nat, NatRec, Pair, Pi, PropSort, Refl, Sigma, SigmaCases,
    Star, Succ, Sum, SumCases, Sup, TrueE, TypeSort, Unit, Var, W, WRec,
    Zero, arrow, instantiate, shift,
)
from foundry.errors import TypeCheckError, UniverseError


def _infer(cfg: KernelConfig, ctx: Ctx, e: Expr) -> Expr:
    return _infer_node(cfg, ctx, e)


def _check(cfg: KernelConfig, ctx: Ctx, e: Expr, ty: Expr) -> None:
    got = _infer(cfg, ctx, e)
    if _subsumes(cfg, got, ty):
        return
    got_n = whnf(cfg, got, _Fuel(DEFAULT_FUEL))
    want_n = whnf(cfg, ty, _Fuel(DEFAULT_FUEL))
    from foundry.dtt.printer import pretty

    if isinstance(got_n, (TypeSort, PropSort)) and isinstance(want_n, (TypeSort, PropSort)):
        raise UniverseError(
            f"universe mismatch: inferred {pretty(got_n)}, expected {pretty(want_n)}"
        )
    raise TypeCheckError(
        f"type mismatch: inferred {pretty(got_n)}, expected {pretty(want_n)}"
    )


def _sort(cfg: KernelConfig, ctx: Ctx, ty: Expr, what: str) -> Expr:
    s = whnf(cfg, _infer(cfg, ctx, ty), _Fuel(DEFAULT_FUEL))
    if not isinstance(s, (TypeSort, PropSort)):
        from foundry.dtt.printer import pretty

        raise TypeCheckError(f"{what} is not a type: {pretty(ty)}")
    if isinstance(s, PropSort) and not cfg.impredicative_prop:
        raise TypeCheckError("Prop is disabled: enable impredicative_prop", tag="prop-disabled")
    return s


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
                from foundry.dtt.printer import pretty

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
