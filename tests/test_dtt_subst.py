"""shift, subst and instantiate against a naive reference.

The reference rebuilds every node and shifts the substituted value at every
binder: slow, but with no fast path to get wrong.
"""

import pytest
from hypothesis import given, settings, strategies as st

import foundry.dtt.syntax as dtt_syntax
from foundry.dtt.syntax import _loose_range

from foundry.dtt import (
    App, Axiom, Id, Lam, Nat, NatRec, Pair, Pi, Refl, Sigma, Succ, Sup,
    TypeSort, Var, W, Zero, instantiate, shift, subst,
)

from helpers import is_node, replace

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
