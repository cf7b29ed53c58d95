"""The HOL kernel's walkers and checks, and the HOL printer, against
references.

The rebuilding walks (`term_ty_subst`, `subst_fvars`, `open_term`,
`abstract_fvar`) recurse directly and the read-only ones share
`kernel._nodes`. The first references below are the hand-written walkers
they replaced, one `match` case per node kind, and `_unshift`, which ETA
used before it opened the body with `open_term`. The second set is the
`match` form of `check_term`, `check_type`, `type_of`, `type_subst`,
`type_match`, `ty_vars`, `dest_eq`, `_dest_eq_typed` and the printer's
`pretty_term`, word for word apart from their names, from before these
dispatched on the node's class. Each must give the same result, or raise
the same `KernelError` message, as the kernel.

They are compared on seeded random terms, not necessarily well-typed, that
have loose bound variables, whose every node (types included) carries its
own span and whose every binder has its own hint, and the second set also
on every hypothesis and conclusion the three HOL corpus scripts mint. Term
equality ignores spans and hints, so each comparison of rebuilt terms also
looks at the hint on every binder and at which nodes kept their span (a
rebuilt node has none).

The same seeded terms check the node records themselves: each stores its
hash when it is built, and `==` answers on identity and on differing stored
hashes before it compares fields. Both must agree with a field-by-field
reference, on terms that hash alike without being equal as well.
"""

import itertools
import pathlib
import random

import pytest

from foundry.errors import KernelError
from foundry.hol import kernel as hk
from foundry.hol import printer
from foundry.hol.derived import define_connectives
from foundry.hol.kernel import (
    EQ, Abs, App, BVar, Const, FVar, PROP, TyApp, TyVar, fn, free_vars, pretty_type,
    ty_vars, type_subst,
)
from foundry.hol.runner import HolRunner
from foundry.run import Options
from foundry.span import Span, fresh_name, replace
from foundry.surface import script as sc

from helpers import is_node

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def ref_term_ty_subst(t, mapping):
    match t:
        case BVar():
            return t
        case FVar(name=n, type=ty):
            return FVar(n, type_subst(ty, mapping))
        case Const(name=n, type=ty):
            return Const(n, type_subst(ty, mapping))
        case App(fn=f, arg=a):
            return App(ref_term_ty_subst(f, mapping), ref_term_ty_subst(a, mapping))
        case Abs(dom=d, body=b, hint=h):
            return Abs(type_subst(d, mapping), ref_term_ty_subst(b, mapping), hint=h)
    raise TypeError(t)


def ref_subst_fvars(t, mapping):
    match t:
        case BVar() | Const():
            return t
        case FVar():
            return mapping.get(t, t)
        case App(fn=f, arg=a):
            return App(ref_subst_fvars(f, mapping), ref_subst_fvars(a, mapping))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_subst_fvars(b, mapping), hint=h)
    raise TypeError(t)


def ref_open_term(body, value, depth=0):
    match body:
        case BVar(index=k):
            return value if k == depth else (BVar(k - 1) if k > depth else body)
        case FVar() | Const():
            return body
        case App(fn=f, arg=a):
            return App(ref_open_term(f, value, depth), ref_open_term(a, value, depth))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_open_term(b, value, depth + 1), hint=h)
    raise TypeError(body)


def ref_abstract_fvar(t, x, depth=0):
    match t:
        case BVar(index=k):
            return BVar(k + 1) if k >= depth else t
        case FVar():
            return BVar(depth) if t == x else t
        case Const():
            return t
        case App(fn=f, arg=a):
            return App(ref_abstract_fvar(f, x, depth), ref_abstract_fvar(a, x, depth))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_abstract_fvar(b, x, depth + 1), hint=h)
    raise TypeError(t)


def ref_unshift(t, depth=0):
    match t:
        case BVar(index=k):
            return BVar(k - 1) if k > depth else t
        case FVar() | Const():
            return t
        case App(fn=f, arg=a):
            return App(ref_unshift(f, depth), ref_unshift(a, depth))
        case Abs(dom=d, body=b, hint=h):
            return Abs(d, ref_unshift(b, depth + 1), hint=h)
    raise TypeError(t)


def ref_term_ty_vars(t):
    match t:
        case BVar():
            return frozenset()
        case FVar(type=ty) | Const(type=ty):
            return ty_vars(ty)
        case App(fn=f, arg=a):
            return ref_term_ty_vars(f) | ref_term_ty_vars(a)
        case Abs(dom=d, body=b):
            return ty_vars(d) | ref_term_ty_vars(b)
    raise TypeError(t)


def ref_free_vars(t):
    match t:
        case BVar() | Const():
            return frozenset()
        case FVar():
            return frozenset((t,))
        case App(fn=f, arg=a):
            return ref_free_vars(f) | ref_free_vars(a)
        case Abs(body=b):
            return ref_free_vars(b)
    raise TypeError(t)


def ref_uses_bvar(t, depth):
    match t:
        case BVar(index=k):
            return k == depth
        case FVar() | Const():
            return False
        case App(fn=f, arg=a):
            return ref_uses_bvar(f, depth) or ref_uses_bvar(a, depth)
        case Abs(body=b):
            return ref_uses_bvar(b, depth + 1)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# The `match` forms of the checks, the type walks, the equation views and the
# printer


def ref_ty_vars(ty):
    match ty:
        case TyVar(name=n):
            return frozenset((n,))
        case TyApp(args=args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= ref_ty_vars(a)
            return out
    raise TypeError(ty)


def ref_type_subst(ty, mapping):
    """ty with each type variable in mapping replaced. A span-less operator
    application none of whose arguments changed is returned as the same
    object; one that carries a span is rebuilt without it."""
    match ty:
        case TyVar(name=n):
            return mapping.get(n, ty)
        case TyApp(op=op, args=args):
            new = tuple(ref_type_subst(a, mapping) for a in args)
            if ty.span is None and all(a is b for a, b in zip(new, args)):
                return ty
            return TyApp(op, new)
    raise TypeError(ty)


def ref_type_match(generic, concrete, env=None):
    """First-order matching of a generic type against a concrete one; returns
    the substitution or None."""
    if env is None:
        env = {}
    match generic:
        case TyVar(name=n):
            if n in env:
                return env if env[n] == concrete else None
            env[n] = concrete
            return env
        case TyApp(op=op, args=args):
            if not (isinstance(concrete, TyApp) and concrete.op == op and len(concrete.args) == len(args)):
                return None
            for g, c in zip(args, concrete.args):
                if ref_type_match(g, c, env) is None:
                    return None
            return env
    raise TypeError(generic)


def ref_type_of(t, stack=()):
    match t:
        case BVar(index=k):
            if k >= len(stack):
                raise KernelError(f"unbound de Bruijn index {k}")
            return stack[k]
        case FVar(type=ty) | Const(type=ty):
            return ty
        case App(fn=f, arg=a):
            tf = ref_type_of(f, stack)
            if not (isinstance(tf, TyApp) and tf.op == "fun"):
                raise KernelError(f"application of non-function of type {pretty_type(tf)}")
            ta = ref_type_of(a, stack)
            if ta != tf.args[0]:
                raise KernelError(
                    f"ill-typed application: argument {pretty_type(ta)} vs "
                    f"domain {pretty_type(tf.args[0])}"
                )
            return tf.args[1]
        case Abs(dom=d, body=b):
            return fn(d, ref_type_of(b, (d,) + stack))
    raise TypeError(t)


def ref_dest_eq(t):
    match t:
        case App(fn=App(fn=Const(name=n), arg=l), arg=r) if n == EQ:
            return l, r
    return None


def ref_dest_eq_typed(t):
    """(side type, lhs, rhs) of an equation, or None.

    The side type is read from the instance type of the `=` constant; it is
    the type of both sides only when t is well-typed, as every theorem's
    conclusion is.
    """
    match t:
        case App(fn=App(fn=Const(name=n, type=TyApp(op="fun", args=(ty, _))), arg=l), arg=r) if n == EQ:
            return ty, l, r
    return None


def ref_check_type(state, ty):
    match ty:
        case TyVar():
            return
        case TyApp(op=op, args=args):
            if op not in state.type_ops:
                raise KernelError(f"unknown type operator {op}")
            if state.type_ops[op] != len(args):
                raise KernelError(
                    f"type operator {op} has arity {state.type_ops[op]}, got {len(args)}"
                )
            for a in args:
                ref_check_type(state, a)
            return
    raise TypeError(ty)


def ref_check_term(state, t, stack=()):
    """Well-formedness against the state: known constants at instances of
    their generic types, known type operators, well-typed applications.

    Constant and free-variable leaves are closed wherever they occur, so
    each is checked once per state and then found in state.checked."""
    match t:
        case BVar(index=k):
            if k >= len(stack):
                raise KernelError(f"unbound de Bruijn index {k}")
            return stack[k]
        case FVar(type=ty):
            if t not in state.checked:
                ref_check_type(state, ty)
                state.checked[t] = ty
            return ty
        case Const(name=n, type=ty):
            if t not in state.checked:
                decl = state.constants.get(n)
                if decl is None:
                    raise KernelError(f"unknown constant {n}")
                ref_check_type(state, ty)
                if ref_type_match(decl.generic, ty) is None:
                    raise KernelError(
                        f"constant {n} used at {pretty_type(ty)}, not an instance of "
                        f"{pretty_type(decl.generic)}"
                    )
                state.checked[t] = ty
            return ty
        case App(fn=f, arg=a):
            tf = ref_check_term(state, f, stack)
            if not (isinstance(tf, TyApp) and tf.op == "fun"):
                raise KernelError(f"application of non-function of type {pretty_type(tf)}")
            ta = ref_check_term(state, a, stack)
            if ta != tf.args[0]:
                raise KernelError(
                    f"ill-typed application: argument {pretty_type(ta)} vs "
                    f"domain {pretty_type(tf.args[0])}"
                )
            return tf.args[1]
        case Abs(dom=d, body=b, hint=h):
            ref_check_type(state, d)
            return fn(d, ref_check_term(state, b, (d,) + stack))
    raise TypeError(t)


def ref_pretty_term(t, types=False):
    taken = {v.name for v in free_vars(t)} | {"fun"}  # a binder named fun reads back as one

    def go(t, names, prec):
        # prec: 0 top/binder, 10 equation, 20 application, 21 argument
        eq = ref_dest_eq(t)
        if eq is not None:
            l, r = eq
            s = f"{go(l, names, 20)} = {go(r, names, 20)}"
            return s if prec <= 0 else f"({s})"
        match t:
            case BVar(index=k):
                return names[k] if k < len(names) else f"#{k}"
            case FVar(name=n, type=ty):
                return f"({n} : {pretty_type(ty)})" if types else n
            case Const(name=n):
                return n
            case App(fn=f, arg=a):
                s = f"{go(f, names, 20)} {go(a, names, 21)}"
                return s if prec <= 20 else f"({s})"
            case Abs(dom=d, body=b, hint=h):
                name = fresh_name(h or "x", set(names) | taken)
                s = f"fun ({name} : {pretty_type(d)}) => {go(b, (name,) + names, 0)}"
                return s if prec == 0 else f"({s})"
        raise TypeError(t)

    return go(t, (), 0)


# ---------------------------------------------------------------------------
# Inputs and the comparison


_spans = itertools.count()
_NAMES = ("x", "y", "z")


def gen_type(rng, size):
    if size <= 0 or rng.random() < 0.4:
        return rng.choice((PROP, TyApp("Ind"), TyVar("a"), TyVar("b")))
    if rng.random() < 0.2:
        return TyApp("list", (gen_type(rng, size - 1),))
    return fn(gen_type(rng, size - 1), gen_type(rng, size - 1))


def gen_term(rng, size, binders=0):
    """A random term, not necessarily well-typed, whose bound variables may
    point past the binders above them."""
    if size <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return BVar(rng.randrange(binders + 2))
        if r < 0.8:
            return FVar(rng.choice(_NAMES), gen_type(rng, 1))
        return Const(rng.choice(("=", "eps", "c")), gen_type(rng, 2))
    if rng.random() < 0.55:
        return App(gen_term(rng, size - 1, binders), gen_term(rng, size - 1, binders))
    return Abs(gen_type(rng, 1), gen_term(rng, size - 1, binders + 1))


def with_spans(x):
    """A copy of x in which every node, types included, has its own span and
    every binder its own hint."""
    if isinstance(x, tuple):
        return tuple(with_spans(y) for y in x)
    if not is_node(x):
        return x
    fields = {
        name: with_spans(getattr(x, name))
        for name in x._fields if name not in ("span", "hint")
    }
    n = next(_spans)
    if isinstance(x, Abs):
        fields["hint"] = f"h{n}"
    return type(x)(**fields, span=Span("t", n, 0, 0, 0))


def anatomy(x):
    """Everything of x that a reader can see: node kinds, fields, hints and
    the span (or its absence) on every node, types included."""
    if isinstance(x, tuple):
        return tuple(anatomy(y) for y in x)
    if not is_node(x):
        return x
    return (
        type(x).__name__, x.span, getattr(x, "hint", None),
        tuple(anatomy(getattr(x, name)) for name in x._fields
              if name not in ("span", "hint")),
    )


def corpus(seed=20240601, n=300):
    rng = random.Random(seed)
    return [with_spans(gen_term(rng, rng.randrange(2, 8))) for _ in range(n)]


TERMS = corpus()


def subterms(t):
    yield t
    if type(t) is App:
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif type(t) is Abs:
        yield from subterms(t.body)


def test_corpus_is_varied():
    nodes = [s for t in TERMS for s in subterms(t)]
    assert {type(s) for s in nodes} == {BVar, FVar, Const, App, Abs}
    assert sum(type(s) is Abs for s in nodes) > 300
    assert any(ref_open_term(t, FVar("w", PROP)) != t for t in TERMS)  # some are open


def test_read_only_walkers_match_reference():
    for t in TERMS:
        assert hk.free_vars(t) == ref_free_vars(t)
        assert hk.term_ty_vars(t) == ref_term_ty_vars(t)
        for depth in range(3):
            assert hk._uses_bvar(t, depth) == ref_uses_bvar(t, depth)
    assert any(hk._uses_bvar(t, 1) for t in TERMS) and not all(hk._uses_bvar(t, 1) for t in TERMS)


def test_read_only_walkers_take_deep_terms():
    t = App(FVar("x", TyVar("a")), BVar(2500))  # loose: under 2,500 binders
    for i in range(5000):
        t = Abs(TyVar("b"), App(t, BVar(0))) if i % 2 else App(Const("c", PROP), t)
    assert hk.free_vars(t) == {FVar("x", TyVar("a"))}
    assert hk.term_ty_vars(t) == {"a", "b"}
    assert hk._uses_bvar(t, 0) and not hk._uses_bvar(t, 1)


def test_term_ty_subst_matches_reference():
    rng = random.Random(1)
    for t in TERMS:
        mapping = {v: with_spans(gen_type(rng, 2)) for v in ("a", "b") if rng.random() < 0.7}
        assert anatomy(hk.term_ty_subst(t, mapping)) == anatomy(ref_term_ty_subst(t, mapping))


def test_subst_fvars_matches_reference_and_inserts_the_given_terms():
    rng = random.Random(2)
    for t in TERMS:
        fvars = sorted({s for s in subterms(t) if type(s) is FVar}, key=repr)
        mapping = {x: with_spans(gen_term(rng, 3)) for x in fvars if rng.random() < 0.7}
        got = hk.subst_fvars(t, mapping)
        assert anatomy(got) == anatomy(ref_subst_fvars(t, mapping))
        inserted = {id(s) for s in subterms(got)} & {id(v) for v in mapping.values()}
        assert inserted == {id(v) for v in mapping.values()}


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_open_term_matches_reference(depth):
    rng = random.Random(3 + depth)
    for t in TERMS:
        value = with_spans(gen_term(rng, 3))
        assert anatomy(hk.open_term(t, value, depth)) == anatomy(ref_open_term(t, value, depth))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_abstract_fvar_matches_reference(depth):
    for t in TERMS:
        for x in {s for s in subterms(t) if type(s) is FVar} | {FVar("absent", PROP)}:
            assert anatomy(hk.abstract_fvar(t, x, depth)) == anatomy(ref_abstract_fvar(t, x, depth))
            assert anatomy(hk.abs_over(x, t)) == anatomy(Abs(x.type, ref_abstract_fvar(t, x), hint=x.name))


def test_opening_a_body_without_index_0_is_the_old_unshift():
    # ETA contracts `fun x => f x` to f opened at index 0, which f never uses.
    cases = [t for t in TERMS if not hk._uses_bvar(t, 0)]
    assert len(cases) > 100
    for f in cases:
        assert anatomy(hk.open_term(f, FVar("unused", PROP))) == anatomy(ref_unshift(f))


def test_eta_returns_what_the_old_unshift_returned():
    state = define_connectives(hk.initial_state())[0]
    p = FVar("p", PROP)
    imp = Const("imp", fn(PROP, fn(PROP, PROP)))
    for f in [imp, App(imp, p), Abs(PROP, App(App(imp, BVar(0)), p), hint="q")]:
        f = with_spans(f)
        t = Abs(PROP, App(f, BVar(0)), hint="x")
        assert anatomy(hk.ETA(state, t).conclusion.arg) == anatomy(ref_unshift(f))


# ---------------------------------------------------------------------------
# Node records: the hash stored when a node is built, and `==`


def compared(x):
    """The fields of x that `==` and `hash` read."""
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def ref_equal(a, b):
    """Structural equality of two nodes or field values, field by field,
    ignoring spans and hints."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(ref_equal, a, b))
    if not is_node(a):
        return not is_node(b) and a == b
    return type(a) is type(b) and ref_equal(compared(a), compared(b))


def nodes_in(t):
    """Each node of t, the types inside it included."""
    return [*subterms(t), *types_in(t)]


# CPython hashes the integers i and i + 2**61 - 1 alike (on 64-bit hosts),
# so a node and its copy with a bound index moved by this much hash alike.
_HASH_MODULUS = 2**61 - 1


def moved_indices(t):
    cls = type(t)
    if cls is App:
        return App(moved_indices(t.fn), moved_indices(t.arg))
    if cls is Abs:
        return Abs(t.dom, moved_indices(t.body))
    return BVar(t.index + _HASH_MODULUS) if cls is BVar else t


def test_a_deep_chain_hashes_as_its_fields_do():
    t = FVar("x", PROP)
    for i in range(10_000):
        t = App(Const("c", fn(PROP, PROP)), t) if i % 2 else App(t, BVar(i))
    assert hash(t) == hash(compared(t)) == hash((t.fn, t.arg))
    assert t == t and not t != t


def test_every_node_hashes_as_its_compared_fields():
    for t in TERMS:
        for s in nodes_in(t):
            assert hash(s) == hash(compared(s))


def test_equality_agrees_with_a_field_by_field_reference():
    pairs = [(t, t) for t in TERMS]  # each term with itself
    pairs += [(t, moved_indices(u)) for t, u in zip(TERMS, TERMS)]  # hash alike
    pairs += [(t, moved_indices(t)) for t in TERMS]
    pairs += [(t, u) for t in TERMS[:60] for u in TERMS[:60]]
    pairs += [(s, s2) for t in TERMS[:40] for s, s2 in zip(nodes_in(t), nodes_in(with_spans(t)))]
    seen = set()
    for a, b in pairs:
        want = ref_equal(a, b)
        assert (a == b, a != b) == (want, not want)
        seen.add((a is b, hash(a) == hash(b), want))
    # nodes compared with themselves, distinct equal nodes, and unequal nodes
    # with equal and with different hashes
    assert seen == {(True, True, True), (False, True, True), (False, True, False), (False, False, False)}


# ---------------------------------------------------------------------------
# The checks, the type walks, the equation views and the printer


def outcome(f, *args):
    """What f returns, as its anatomy, or the message of the KernelError it
    raises."""
    try:
        return "returns", anatomy(f(*args))
    except KernelError as e:
        return "raises", str(e)


def types_in(t):
    """Each type in t, the types inside it included."""
    tys = [s.dom if type(s) is Abs else s.type for s in subterms(t) if type(s) not in (App, BVar)]
    while tys:
        ty = tys.pop()
        yield ty
        if type(ty) is TyApp:
            tys.extend(ty.args)


def states():
    """States that accept some random terms and reject others: `c` at a
    generic type or unknown, `list` of arity 1, 2 or unknown."""
    base = hk.initial_state()
    c_any = hk.ConstDecl("c", TyVar("a"))
    c_fun = hk.ConstDecl("c", fn(TyVar("a"), TyVar("a")))
    return [
        base,
        replace(base, constants={**base.constants, "c": c_any}, type_ops={**base.type_ops, "list": 1}),
        replace(base, constants={**base.constants, "c": c_fun}, type_ops={**base.type_ops, "list": 2}),
    ]


STATES = states()


STACKS = [(), (PROP,), (TyVar("a"), fn(PROP, PROP), TyApp("Ind"))]


def minted_terms():
    """Every hypothesis and conclusion the HOL corpus scripts mint, with the
    final state of the script that minted it."""
    out = []
    for name, options in [
        ("connectives.hol", {}),
        ("ext_rule.hol", {}),
        ("diaconescu.hol", {"axioms": ("choice", "propext")}),
    ]:
        minted = []
        mint = hk._thm

        def recording_thm(hyps, concl):
            minted.append(concl)
            minted.extend(hyps)
            return mint(hyps, concl)

        hk._thm = recording_thm
        try:
            runner = HolRunner(Options(**options), name)
            report = runner.run(sc.parse_script((CORPUS / name).read_text(), name))
        finally:
            hk._thm = mint
        assert report.ok, report.first_error()
        out += [(runner.state, t) for t in {id(t): t for t in minted}.values()]
    return out


MINTED = minted_terms()


def test_minted_terms_are_many_and_varied():
    assert len(MINTED) > 500
    assert {type(s) for _, t in MINTED for s in subterms(t)} == {BVar, FVar, Const, App, Abs}


@pytest.mark.parametrize("state", STATES)
def test_check_term_matches_reference(state):
    raised = 0
    for t in TERMS:
        for stack in STACKS:
            # a copy of the state per check, so each starts with an empty memo
            want = outcome(ref_check_term, replace(state), t, stack)
            assert outcome(hk.check_term, replace(state), t, stack) == want
            raised += want[0] == "raises"
    assert 0 < raised < len(TERMS) * len(STACKS)


def test_check_term_and_type_of_match_reference_on_minted_terms():
    for state, t in MINTED:
        assert outcome(hk.check_term, replace(state), t) == outcome(ref_check_term, replace(state), t)
        assert outcome(hk.type_of, t) == outcome(ref_type_of, t)
        assert hk.type_of(t) == PROP


def test_type_of_matches_reference():
    messages = set()
    for t in TERMS:
        for stack in STACKS:
            want = outcome(ref_type_of, t, stack)
            assert outcome(hk.type_of, t, stack) == want
            messages.add(want[1].split(" ")[0] if want[0] == "raises" else "ok")
    assert messages == {"ok", "unbound", "application", "ill-typed"}


def test_check_type_matches_reference():
    tys = [ty for t in TERMS for ty in types_in(t)]
    for state in STATES:
        for ty in tys:
            assert outcome(hk.check_type, state, ty) == outcome(ref_check_type, state, ty)
    assert any(outcome(hk.check_type, STATES[0], ty)[0] == "raises" for ty in tys)


def test_type_walks_match_reference():
    rng = random.Random(5)
    tys = [ty for t in TERMS for ty in types_in(t)]
    tys += [gen_type(random.Random(seed), 4) for seed in range(300)]  # span-less
    same = 0
    for ty in tys:
        assert hk.ty_vars(ty) == ref_ty_vars(ty)
        mapping = {v: gen_type(rng, 2) for v in ("a", "b") if rng.random() < 0.5}
        got, want = hk.type_subst(ty, mapping), ref_type_subst(ty, mapping)
        assert anatomy(got) == anatomy(want) and (got is ty) == (want is ty)
        same += got is ty and type(ty) is TyApp
        for concrete in (rng.choice(tys), want):
            got_env, want_env = hk.type_match(ty, concrete), ref_type_match(ty, concrete)
            assert (got_env is None) == (want_env is None)
            if want_env is not None:
                assert {v: anatomy(x) for v, x in got_env.items()} == {
                    v: anatomy(x) for v, x in want_env.items()
                }
    assert same > 100  # span-less types type_subst leaves unchanged come back as themselves


def test_equation_views_match_reference():
    ty = TyVar("a")
    odd = [  # `=` at a type that is not a binary `fun`
        App(App(Const(EQ, TyApp("fun", (ty,))), FVar("x", ty)), FVar("y", ty)),
        App(App(Const(EQ, TyApp("fun", (ty, ty, ty))), FVar("x", ty)), FVar("y", ty)),
        App(App(Const(EQ, ty), FVar("x", ty)), FVar("y", ty)),
        App(App(Const(EQ, TyApp("list", (ty, ty))), FVar("x", ty)), FVar("y", ty)),
    ]
    inputs = [s for t in TERMS + odd + [t for _, t in MINTED] for s in subterms(t)]
    typed = 0
    for s in inputs:
        got, want = hk.dest_eq(s), ref_dest_eq(s)
        assert (got is None) == (want is None)
        if want is not None:
            assert all(a is b for a, b in zip(got, want))
        got, want = hk._dest_eq_typed(s), ref_dest_eq_typed(s)
        assert (got is None) == (want is None)
        if want is not None:
            assert all(a is b for a, b in zip(got, want))
            typed += 1
    assert typed > 100
    assert all(hk.dest_eq(t) is not None and hk._dest_eq_typed(t) is None for t in odd)


@pytest.mark.parametrize("types", [False, True])
def test_printer_matches_reference(types):
    for t in TERMS + [t for _, t in MINTED]:
        assert printer.pretty_term(t, types) == ref_pretty_term(t, types)
