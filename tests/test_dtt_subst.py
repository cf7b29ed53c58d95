"""shift, subst, instantiate and normalize against a naive reference.

The reference rebuilds every node and shifts the substituted value at every
binder: slow, but with no fast path to get wrong. The reference normalizer
puts a term in weak head normal form with the kernel's `whnf` and then
normalizes and rebuilds every child.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import foundry.dtt.syntax as dtt_syntax
from foundry.dtt.kernel import DEFAULT_FUEL, _Fuel
from foundry.dtt.syntax import _loose_range
from foundry.errors import FuelError

from foundry.dtt import (
    App, Axiom, DttContext, Id, KernelConfig, Lam, Nat, NatRec, Pair, Pi, Refl,
    Sigma, Succ, Sup, TypeSort, Var, W, Zero, instantiate, normalize, numeral,
    shift, subst, whnf,
)

from helpers import is_node, replace
from helpers_dtt import gen_dtt_nat

# the fields that sit under one binder
_BINDS = {(Pi, "cod"), (Lam, "body"), (Sigma, "cod"), (W, "cod")}


def _children(e):
    for name in e._fields:
        v = getattr(e, name)
        if name != "span" and is_node(v):
            yield name, v, int((type(e), name) in _BINDS)


def ref_shift(e, d, cutoff=0):
    if isinstance(e, Var):
        return Var(e.index + d) if e.index >= cutoff else e
    return replace(
        e, **{n: ref_shift(v, d, cutoff + b) for n, v, b in _children(e)}
    )


def ref_subst(e, j, value):
    if isinstance(e, Var):
        if e.index == j:
            return value
        return Var(e.index - 1) if e.index > j else e
    return replace(
        e, **{n: ref_subst(v, j + b, ref_shift(value, b)) for n, v, b in _children(e)}
    )


def loose_bound(e, depth=0):
    """One more than the largest free index of e (0 when e is closed)."""
    if isinstance(e, Var):
        return max(e.index - depth + 1, 0)
    return max((loose_bound(v, depth + b) for _, v, b in _children(e)), default=0)


_leaves = st.one_of(
    st.builds(Var, st.integers(0, 4)),
    st.sampled_from([Nat(), Zero(), TypeSort(0), Axiom("funext")]),
)


def _nodes(sub):
    return st.one_of(
        st.builds(Pi, sub, sub),
        st.builds(Lam, sub, sub),
        st.builds(App, sub, sub),
        st.builds(Sigma, sub, sub, st.booleans()),
        st.builds(W, sub, sub),
        st.builds(Succ, sub),
        st.builds(Pair, sub, sub, sub),
        st.builds(Id, sub, sub, sub),
        st.builds(Refl, sub, sub),
        st.builds(NatRec, sub, sub, sub, sub),
        st.builds(Sup, sub, sub, sub),
    )


exprs = st.recursive(_leaves, _nodes, max_leaves=24)
small = st.integers(0, 3)


@settings(max_examples=200, deadline=None)
@given(exprs, small, small)
def test_shift_matches_reference(e, d, cutoff):
    out = shift(e, d, cutoff)
    assert out == ref_shift(e, d, cutoff)
    if loose_bound(e) <= cutoff:
        assert out is e


@settings(max_examples=200, deadline=None)
@given(exprs, small, exprs)
def test_subst_matches_reference(e, j, value):
    out = subst(e, j, value)
    assert out == ref_subst(e, j, value)
    if loose_bound(e) <= j:
        assert out is e


def subterms(e):
    yield e
    for _, v, _ in _children(e):
        yield from subterms(v)


@settings(max_examples=200, deadline=None)
@given(exprs, small, small, exprs)
def test_loose_range_matches_reference(e, d, cutoff, value):
    # The root's range is computed first, so the subterms' are read back from
    # the values that walk stored on them.
    if _loose_range(e) <= cutoff:
        assert shift(e, d, cutoff) is e
        assert subst(e, cutoff, value) is e
    for sub in subterms(e):
        assert _loose_range(sub) == loose_bound(sub)


@settings(max_examples=200, deadline=None)
@given(exprs, exprs)
def test_instantiate_matches_reference(body, value):
    assert instantiate(body, value) == ref_subst(body, 0, value)


def occurs(e, j):
    """Whether Var(j), counted from e's context, occurs free in e."""
    if isinstance(e, Var):
        return e.index == j
    return any(occurs(v, j + b) for _, v, b in _children(e))


@settings(max_examples=200, deadline=None)
@given(exprs, small, exprs)
def test_subst_shifts_only_where_it_replaces(e, j, value):
    calls = []
    real = dtt_syntax.shift

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtt_syntax, "shift", counted)
        out = subst(e, j, value)
    if not occurs(e, j):
        assert calls == []
    assert out == ref_subst(e, j, value)


def ref_normalize(cfg, e, tank):
    w = whnf(cfg, e, tank)
    return replace(w, **{n: ref_normalize(cfg, v, tank) for n, v, _ in _children(w)})


def contractions(e):
    """e's reference normal form and the contractions it took."""
    tank = _Fuel(DEFAULT_FUEL)
    nf = ref_normalize(CFG, e, tank)
    return nf, DEFAULT_FUEL - tank.left


CFG = KernelConfig()
CTX = DttContext()
NAT_TO_NAT = Lam(Nat(), Nat(), hint="_")
SUCC_STEP = Lam(Nat(), Lam(Nat(), Succ(Var(0)), hint="ih"), hint="n")


def seeded_terms(n=150):
    """Seeded terms of type Nat: closed ones, and open ones under up to two
    Nat binders."""
    rng = random.Random(20240624)
    return [gen_dtt_nat(rng, depth=rng.randrange(1, 5), nvars=i % 3) for i in range(n)]


def test_normalize_matches_reference():
    opened = 0
    for e in seeded_terms():
        want, _ = contractions(e)
        assert normalize(CFG, CTX, e) == want
        opened += _loose_range(e) > 0
    assert opened > 20


def test_a_normal_term_comes_back_as_the_same_object():
    normal = [Lam(Nat(), App(Var(1), Succ(Var(0))), hint="x"), numeral(3), Var(2)]
    normal += [contractions(e)[0] for e in seeded_terms(40)]
    for e in normal:
        assert e.span is None
        assert normalize(CFG, CTX, e) is e


@pytest.mark.parametrize("e, n", [
    (App(Lam(Nat(), Succ(Var(0)), hint="x"), numeral(2)), 1),
    (App(Lam(Nat(), App(Lam(Nat(), Var(0), hint="y"), Var(0)), hint="x"), Zero()), 2),
    (Lam(Nat(), App(Lam(Nat(), Var(0), hint="y"), Var(0)), hint="x"), 1),
    (NatRec(NAT_TO_NAT, Zero(), SUCC_STEP, numeral(2)), 7),
])
def test_fuel_counts_each_contraction(e, n):
    want, counted = contractions(e)
    assert counted == n
    assert normalize(CFG, CTX, e, fuel=n) == want
    with pytest.raises(FuelError):
        normalize(CFG, CTX, e, fuel=n - 1)


def test_fuel_is_exact_on_seeded_terms():
    took = set()
    for e in seeded_terms(60):
        want, n = contractions(e)
        took.add(n)
        assert normalize(CFG, CTX, e, fuel=n) == want
        if n:
            with pytest.raises(FuelError):
                normalize(CFG, CTX, e, fuel=n - 1)
    assert len(took) > 5
