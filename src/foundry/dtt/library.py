"""Library terms built on the kernel: Nat arithmetic, identity combinators,
the addition-commutativity proof, Fin, and enumeration helpers.

Terms are assembled with a small higher-order builder (variables are closures
over their binding level), so the de Bruijn indices are computed, not hand
written. The shipped scripts spell the same constructions in concrete syntax.
"""

from __future__ import annotations

from .kernel import DttContext, KernelConfig, check
from .syntax import (
    App, Expr, Id, IdCases, Lam, Nat, NatRec, Pair, Pi, Refl, Sigma, Succ,
    Var, Zero, instantiate, numeral, shift,
)

# builders are functions depth -> Expr; variables close over their level


def K(e: Expr):
    return lambda d: e


def LAM(ty, hint, f):
    def b(d):
        x = lambda dd, _lvl=d: Var(dd - 1 - _lvl)
        return Lam(ty(d), f(x)(d + 1), hint=hint)

    return b


def PI(ty, hint, f):
    def b(d):
        x = lambda dd, _lvl=d: Var(dd - 1 - _lvl)
        return Pi(ty(d), f(x)(d + 1), hint=hint)

    return b


def SIG(ty, hint, f, in_prop=False):
    def b(d):
        x = lambda dd, _lvl=d: Var(dd - 1 - _lvl)
        return Sigma(ty(d), f(x)(d + 1), in_prop=in_prop, hint=hint)

    return b


def ARROW(dom, cod):
    return lambda d: Pi(dom(d), shift(cod(d), 1))


def APP(f, *args):
    def b(d):
        e = f(d)
        for a in args:
            e = App(e, a(d))
        return e

    return b


def ID(ty, l, r):
    return lambda d: Id(ty(d), l(d), r(d))


def REFL(ty, a):
    return lambda d: Refl(ty(d), a(d))


def IDCASES(motive, rc, a, b, p):
    return lambda d: IdCases(motive(d), rc(d), a(d), b(d), p(d))


def NATREC(motive, base, step, target):
    return lambda d: NatRec(motive(d), base(d), step(d), target(d))


def SUCC(a):
    return lambda d: Succ(a(d))


def build(b) -> Expr:
    return b(0)


NAT = K(Nat())
ZERO = K(Zero())


# ---------------------------------------------------------------------------
# Arithmetic

# add x y := natrec [fun _ => Nat] y (fun n ih => succ ih) x
ADD = build(
    LAM(NAT, "x", lambda x: LAM(NAT, "y", lambda y: NATREC(
        LAM(NAT, "_", lambda _z: NAT),
        y,
        LAM(NAT, "n", lambda n: LAM(NAT, "ih", lambda ih: SUCC(ih))),
        x,
    )))
)


def add(a: Expr, b: Expr) -> Expr:
    return App(App(ADD, a), b)


def _add(a, b):
    return APP(K(ADD), a, b)


# cong_succ : Pi a b : Nat. Id Nat a b -> Id Nat (succ a) (succ b)
CONG_SUCC = build(
    LAM(NAT, "a", lambda a: LAM(NAT, "b", lambda b: LAM(ID(NAT, a, b), "p", lambda p:
        IDCASES(
            LAM(NAT, "x", lambda x: LAM(NAT, "y", lambda y: LAM(ID(NAT, x, y), "q", lambda _q:
                ID(NAT, SUCC(x), SUCC(y))))),
            LAM(NAT, "z", lambda z: REFL(NAT, SUCC(z))),
            a, b, p,
        ))))
)

# sym : Pi a b : Nat. Id Nat a b -> Id Nat b a
SYM_NAT = build(
    LAM(NAT, "a", lambda a: LAM(NAT, "b", lambda b: LAM(ID(NAT, a, b), "p", lambda p:
        IDCASES(
            LAM(NAT, "x", lambda x: LAM(NAT, "y", lambda y: LAM(ID(NAT, x, y), "q", lambda _q:
                ID(NAT, y, x)))),
            LAM(NAT, "z", lambda z: REFL(NAT, z)),
            a, b, p,
        ))))
)

# trans : Pi a b c : Nat. Id Nat a b -> Id Nat b c -> Id Nat a c
TRANS_NAT = build(
    LAM(NAT, "a", lambda a: LAM(NAT, "b", lambda b: LAM(NAT, "c", lambda c:
        LAM(ID(NAT, a, b), "p", lambda p: LAM(ID(NAT, b, c), "q", lambda q:
            APP(
                IDCASES(
                    LAM(NAT, "x", lambda x: LAM(NAT, "y", lambda y: LAM(ID(NAT, x, y), "r", lambda _r:
                        ARROW(ID(NAT, y, c), ID(NAT, x, c))))),
                    LAM(NAT, "z", lambda z: LAM(ID(NAT, z, c), "s", lambda s: s)),
                    a, b, p,
                ),
                q,
            ))))))
)


def cong_succ(a, b, p):
    return APP(K(CONG_SUCC), a, b, p)


def sym_nat(a, b, p):
    return APP(K(SYM_NAT), a, b, p)


def trans_nat(a, b, c, p, q):
    return APP(K(TRANS_NAT), a, b, c, p, q)


# add_zero : Pi x. Id Nat (add x 0) x
ADD_ZERO = build(
    LAM(NAT, "x", lambda x: NATREC(
        LAM(NAT, "z", lambda z: ID(NAT, _add(z, ZERO), z)),
        REFL(NAT, ZERO),
        LAM(NAT, "n", lambda n: LAM(ID(NAT, _add(n, ZERO), n), "ih", lambda ih:
            cong_succ(_add(n, ZERO), n, ih))),
        x,
    ))
)

# add_succ : Pi x y. Id Nat (add x (succ y)) (succ (add x y))
ADD_SUCC = build(
    LAM(NAT, "x", lambda x: LAM(NAT, "y", lambda y: NATREC(
        LAM(NAT, "z", lambda z: ID(NAT, _add(z, SUCC(y)), SUCC(_add(z, y)))),
        REFL(NAT, SUCC(y)),
        LAM(NAT, "n", lambda n: LAM(ID(NAT, _add(n, SUCC(y)), SUCC(_add(n, y))), "ih", lambda ih:
            cong_succ(_add(n, SUCC(y)), SUCC(_add(n, y)), ih))),
        x,
    )))
)

# add_comm : Pi x y. Id Nat (add x y) (add y x)
ADD_COMM = build(
    LAM(NAT, "x", lambda x: LAM(NAT, "y", lambda y: NATREC(
        LAM(NAT, "z", lambda z: ID(NAT, _add(z, y), _add(y, z))),
        sym_nat(_add(y, ZERO), y, APP(K(ADD_ZERO), y)),
        LAM(NAT, "n", lambda n: LAM(ID(NAT, _add(n, y), _add(y, n)), "ih", lambda ih:
            trans_nat(
                SUCC(_add(n, y)),
                SUCC(_add(y, n)),
                _add(y, SUCC(n)),
                cong_succ(_add(n, y), _add(y, n), ih),
                sym_nat(_add(y, SUCC(n)), SUCC(_add(y, n)), APP(K(ADD_SUCC), y, n)),
            ))),
        x,
    )))
)

ADD_COMM_TYPE = build(
    PI(NAT, "x", lambda x: PI(NAT, "y", lambda y: ID(NAT, _add(x, y), _add(y, x))))
)


# ---------------------------------------------------------------------------
# Fin n := Sigma (x : Nat), Sigma (z : Nat), Id Nat (add (succ x) z) n


def fin(n: Expr) -> Expr:
    return build(
        SIG(NAT, "x", lambda x: SIG(NAT, "z", lambda z:
            ID(NAT, _add(SUCC(x), z), K(shift(n, 2)))))
    )


def fin_inhabitants(cfg: KernelConfig, n: int, bound: int | None = None) -> list[Expr]:
    """Exhaustively enumerate closed canonical inhabitants pair x (pair z
    (refl m)) of Fin n with numerals below the bound."""
    ty = fin(numeral(n))
    bound = (n + 2) if bound is None else bound
    ctx = DttContext()
    found = []
    for x in range(bound):
        inner_ty = instantiate(ty.cod, numeral(x))
        for z in range(bound):
            for m in range(bound):
                cand = Pair(ty, numeral(x), Pair(inner_ty, numeral(z), Refl(Nat(), numeral(m))))
                try:
                    check(cfg, ctx, cand, ty)
                except Exception:
                    continue
                found.append(cand)
    return found
