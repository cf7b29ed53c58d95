"""The builtin theories Q, PRA, ZF and ZFC.

These are data: each theory is an ordinary `Theory` value, built through its
constructor, which checks every axiom, so nothing here is trusted. A
`foundry check` never loads this module; scripts declare their own theories.
"""

from __future__ import annotations

from ..errors import TheoryError
from .syntax import (
    And,
    App,
    Eq,
    Formula,
    FVar,
    Implies,
    Or,
    Rel,
    Signature,
    Sort,
    Term,
    exists,
    forall,
    iff,
    neg,
)
from .theory import AxiomSchema, LogEntry, SchemaSlot, Theory, exists_unique


SET = Sort("set")
NAT = Sort("nat")


def _mem(a: Term, b: Term) -> Rel:
    return Rel("in", (a, b))


def _v(name: str, sort: Sort) -> FVar:
    return FVar(name, sort)


def _is_empty(z: Term) -> Formula:
    w = _v("w0", SET)
    return forall(w, neg(_mem(w, z)))


def _subset_of(z: FVar, x: FVar) -> Formula:
    w = _v("w1", SET)
    return forall(w, Implies(_mem(w, z), _mem(w, x)))


def _is_succ_of(z: FVar, y: FVar) -> Formula:
    w = _v("w2", SET)
    return forall(w, iff(_mem(w, z), Or(_mem(w, y), Eq(w, y))))


def _is_singleton(w: FVar, a: FVar) -> Formula:
    v = _v("v0", SET)
    return forall(v, iff(_mem(v, w), Eq(v, a)))


def _is_upair(w: FVar, a: FVar, b: FVar) -> Formula:
    v = _v("v1", SET)
    return forall(v, iff(_mem(v, w), Or(Eq(v, a), Eq(v, b))))


def _is_kpair(p: FVar, a: FVar, b: FVar) -> Formula:
    w = _v("w3", SET)
    return forall(w, iff(_mem(w, p), Or(_is_singleton(w, a), _is_upair(w, a, b))))


def _in_union(b: FVar, x: FVar) -> Formula:
    w = _v("w4", SET)
    return exists(w, And(_mem(w, x), _mem(b, w)))


def _maps_into(f: FVar, x: FVar) -> Formula:
    p, a, b, b2 = _v("p", SET), _v("a", SET), _v("b", SET), _v("b2", SET)
    members_are_pairs = forall(
        p,
        Implies(
            _mem(p, f),
            exists(a, exists(b, And(_mem(a, x), And(_in_union(b, x), _is_kpair(p, a, b))))),
        ),
    )
    functional = forall(
        a,
        Implies(
            _mem(a, x),
            exists(
                b,
                And(
                    exists(p, And(_mem(p, f), _is_kpair(p, a, b))),
                    forall(
                        b2,
                        Implies(
                            exists(p, And(_mem(p, f), _is_kpair(p, a, b2))),
                            Eq(b2, b),
                        ),
                    ),
                ),
            ),
        ),
    )
    return And(members_are_pairs, functional)


def _app_in(f: FVar, y: FVar) -> Formula:
    b, p = _v("b", SET), _v("p", SET)
    return exists(b, And(exists(p, And(_mem(p, f), _is_kpair(p, y, b))), _mem(b, y)))


def _zf_axioms() -> dict[str, Formula]:
    x, y, z, w = _v("x", SET), _v("y", SET), _v("z", SET), _v("w", SET)
    extensionality = forall(
        x, forall(y, Implies(forall(z, iff(_mem(z, x), _mem(z, y))), Eq(x, y)))
    )
    empty_set = exists(x, forall(y, neg(_mem(y, x))))
    pairing = forall(
        x, forall(y, exists(z, forall(w, iff(_mem(w, z), Or(Eq(w, x), Eq(w, y))))))
    )
    union = forall(
        x, exists(y, forall(z, iff(_mem(z, y), exists(w, And(_mem(w, x), _mem(z, w))))))
    )
    power_set = forall(x, exists(y, forall(z, iff(_mem(z, y), _subset_of(z, x)))))
    infinity = exists(
        x,
        And(
            exists(z, And(_mem(z, x), _is_empty(z))),
            forall(y, Implies(_mem(y, x), exists(z, And(_mem(z, x), _is_succ_of(z, y))))),
        ),
    )
    foundation = forall(
        x,
        Implies(
            exists(y, _mem(y, x)),
            exists(y, And(_mem(y, x), forall(z, Implies(_mem(z, x), neg(_mem(z, y)))))),
        ),
    )
    return {
        "Extensionality": extensionality,
        "EmptySet": empty_set,
        "Pairing": pairing,
        "Union": union,
        "PowerSet": power_set,
        "Infinity": infinity,
        "Foundation": foundation,
    }


def separation_schema() -> AxiomSchema:
    y, z, w = _v("y", SET), _v("z", SET), _v("w", SET)
    slot_w = _v("w", SET)
    template = forall(y, exists(z, forall(w, iff(_mem(w, z), And(_mem(w, y), Rel("?A", (w,)))))))
    return AxiomSchema(
        name="Separation",
        template=template,
        slots=(SchemaSlot("?A", (slot_w,), forbidden=frozenset({"z"})),),
    )


def replacement_schema() -> AxiomSchema:
    x, z, w, u = _v("x", SET), _v("z", SET), _v("w", SET), _v("u", SET)
    sw, sz = _v("w", SET), _v("z", SET)
    functional = forall(z, Implies(_mem(z, x), exists_unique(w, Rel("?A", (z, w)))))
    image = exists(u, forall(w, iff(_mem(w, u), exists(z, And(_mem(z, x), Rel("?A", (z, w)))))))
    template = forall(x, Implies(functional, image))
    return AxiomSchema(
        name="Replacement",
        template=template,
        slots=(SchemaSlot("?A", (sz, sw), forbidden=frozenset({"u"})),),
    )


def _choice_axiom() -> Formula:
    x, z, f, y = _v("x", SET), _v("z", SET), _v("f", SET), _v("y", SET)
    empty_not_in = neg(exists(z, And(_mem(z, x), _is_empty(z))))
    body = exists(f, And(_maps_into(f, x), forall(y, Implies(_mem(y, x), _app_in(f, y)))))
    return forall(x, Implies(empty_not_in, body))


def pra_induction_schema() -> AxiomSchema:
    x = _v("x", NAT)
    sx = _v("x", NAT)
    zero = App("zero", ())
    template = Implies(
        And(Rel("?A", (zero,)), forall(x, Implies(Rel("?A", (x,)), Rel("?A", (App("succ", (x,)),))))),
        forall(x, Rel("?A", (x,))),
    )
    return AxiomSchema(
        name="Induction",
        template=template,
        slots=(SchemaSlot("?A", (sx,), quantifier_free=True),),
    )


def _arith_signature(with_mul: bool = True) -> Signature:
    sig = Signature(sorts=frozenset({NAT}))
    sig = sig.with_function("zero", (), NAT)
    sig = sig.with_function("succ", (NAT,), NAT)
    sig = sig.with_function("plus", (NAT, NAT), NAT)
    if with_mul:
        sig = sig.with_function("times", (NAT, NAT), NAT)
    return sig


def _q_axioms() -> dict[str, Formula]:
    x, y = _v("x", NAT), _v("y", NAT)
    zero = App("zero", ())

    def s(t):
        return App("succ", (t,))

    def plus(a, b):
        return App("plus", (a, b))

    def times(a, b):
        return App("times", (a, b))

    return {
        "SuccNotZero": forall(x, neg(Eq(s(x), zero))),
        "SuccInjective": forall(x, forall(y, Implies(Eq(s(x), s(y)), Eq(x, y)))),
        "Predecessor": forall(x, Implies(neg(Eq(x, zero)), exists(y, Eq(x, s(y))))),
        "AddZero": forall(x, Eq(plus(x, zero), x)),
        "AddSucc": forall(x, forall(y, Eq(plus(x, s(y)), s(plus(x, y))))),
        "MulZero": forall(x, Eq(times(x, zero), zero)),
        "MulSucc": forall(x, forall(y, Eq(times(x, s(y)), plus(times(x, y), x)))),
    }


_ZF_EXPANSION_ORDER = (
    "empty-set",
    "successor y∪{y}",
    "subset",
    "singleton/unordered-pair",
    "kuratowski-pair",
    "union-membership",
    "function-space-membership",
    "function-application",
)


def builtin_theory(name: str) -> Theory:
    """Q, PRA, ZF, or ZFC, with axioms as displayed (defined notions expanded
    into the primitive language)."""
    if name == "Q":
        return Theory(name="Q", signature=_arith_signature(), axioms=_q_axioms(), mode="classical")
    if name == "PRA":
        axioms = {
            k: v
            for k, v in _q_axioms().items()
            if k in ("SuccNotZero", "SuccInjective", "AddZero", "AddSucc", "MulZero", "MulSucc")
        }
        t = Theory(
            name="PRA",
            signature=_arith_signature(),
            axioms=axioms,
            schemas={"Induction": pra_induction_schema()},
            mode="intuitionistic",
        )
        return t.log(LogEntry("theory", "PRA", "finite fragment: plus/times declared"))
    if name in ("ZF", "ZFC"):
        sig = Signature(sorts=frozenset({SET})).with_relation("in", (SET, SET))
        axioms = _zf_axioms()
        if name == "ZFC":
            axioms = dict(axioms)
            axioms["Choice"] = _choice_axiom()
        t = Theory(
            name=name,
            signature=sig,
            axioms=axioms,
            schemas={"Separation": separation_schema(), "Replacement": replacement_schema()},
            mode="classical",
        )
        for step in _ZF_EXPANSION_ORDER:
            t = t.log(LogEntry("notation-expansion", step, "expanded into the ∈-language"))
        return t
    raise TheoryError(f"unknown builtin theory {name}")

