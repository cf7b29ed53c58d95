"""LCF-style simple type theory kernel, equality-primitive formulation.

Theorems can be minted only by the rule functions in this module: the
HolTheorem constructor is token-guarded and instances are sealed. Everything
else in the package (derived rules, scripts, tests) builds on this surface.

Types are Prop, Ind, the binary `fun` operator, type variables, and user
operators added by type definition. Terms use de Bruijn binders with named
free variables, so alpha-equivalence is structural equality and hypothesis
sets deduplicate up to alpha. The walks that check or rebuild a term or a
type test the node's class and recurse through their own module names, so
a count that rebinds a name sees every entry; those that only read a term
(free_vars, term_ty_vars, _uses_bvar) share _nodes. Like HOL Light's
substitution, the rebuilding walks (term_ty_subst, subst_fvars, open_term,
abstract_fvar, type_subst) return a span-less subterm they leave unchanged
as the same object, so a rule's result shares the parts of its premises it
does not touch instead of copying them; terms are immutable, so sharing is
safe.

The rules rely on one invariant: every minted conclusion is a well-typed
Prop term. Whatever new term or type a rule, an instantiation, a definition
or an axiom brings in is checked against the state (check_term,
check_type); the rest only recombines parts of existing conclusions. So in
a conclusion `(=) l r` the `=` constant's instance type `ty -> ty -> Prop`
names the type of both sides, and TRANS, MK_COMB, ABS and EQ_MP read `ty`
from it instead of inferring the types of `l` and `r` again; TRANS reuses
its first premise's `=` constant as it is.

Closed terms are checked at most once per state. Each KernelState carries a
memo from term to type; REFL, ASSUME, BETA, ETA, inst_term, the definitions
and the axioms look a term up there by value and run check_term only on a
miss. This is sound because a state's constant and type-operator tables are
read-only copies, a memo belongs to exactly one state object (`span.replace`
starts an empty one), terms are immutable, and check_term ignores spans and
hints, which term equality ignores as well. Failed checks are not stored.
Inside check_term the leaves go through the same memo: a constant instance
or free variable is closed wherever it occurs, so its type is checked (and a
constant's instance matched against its generic type) on its first
occurrence under a state only. Applications, abstractions and bound
variables are still checked at every node of every term that misses.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Union

from ..errors import KernelError
from ..span import hint_field, node, replace, span_field


# ---------------------------------------------------------------------------
# Types
#
# Nodes are slotted and store their structural hash in an `_h` slot when they
# are built (span.node); equality compares the fields, ignoring spans and hints.


@node(slots=True)
class TyVar:
    """A HOL type variable."""

    name: str
    span: object = span_field()


@node(slots=True)
class TyApp:
    """A HOL type operator applied to argument types."""

    op: str
    args: tuple["HolType", ...] = ()
    span: object = span_field()


HolType = Union[TyVar, TyApp]

PROP = TyApp("Prop")
IND = TyApp("Ind")
ALPHA = TyVar("a")


def fn(dom: HolType, cod: HolType) -> TyApp:
    return TyApp("fun", (dom, cod))


def ty_vars(ty: HolType) -> frozenset[str]:
    cls = type(ty)
    if cls is TyVar:
        return frozenset((ty.name,))
    if cls is TyApp:
        out: frozenset[str] = frozenset()
        for a in ty.args:
            out |= ty_vars(a)
        return out
    raise TypeError(ty)


def type_subst(ty: HolType, mapping: Mapping[str, HolType]) -> HolType:
    """ty with each type variable in mapping replaced. A span-less operator
    application none of whose arguments changed is returned as the same
    object; one that carries a span is rebuilt without it."""
    cls = type(ty)
    if cls is TyVar:
        return mapping.get(ty.name, ty)
    if cls is TyApp:
        args = ty.args
        new = tuple(type_subst(a, mapping) for a in args)
        if ty.span is None and all(a is b for a, b in zip(new, args)):
            return ty
        return TyApp(ty.op, new)
    raise TypeError(ty)


def type_match(generic: HolType, concrete: HolType, env: dict[str, HolType] | None = None):
    """First-order matching of a generic type against a concrete one; returns
    the substitution or None."""
    if env is None:
        env = {}
    cls = type(generic)
    if cls is TyVar:
        n = generic.name
        if n in env:
            return env if env[n] == concrete else None
        env[n] = concrete
        return env
    if cls is TyApp:
        args = generic.args
        if not (type(concrete) is TyApp and concrete.op == generic.op and len(concrete.args) == len(args)):
            return None
        for g, c in zip(args, concrete.args):
            if type_match(g, c, env) is None:
                return None
        return env
    raise TypeError(generic)


def pretty_type(ty: HolType) -> str:
    match ty:
        case TyVar(name=n):
            return f"'{n}"
        case TyApp(op="fun", args=(d, c)):
            dd = pretty_type(d)
            if isinstance(d, TyApp) and d.op == "fun":
                dd = f"({dd})"
            return f"{dd} -> {pretty_type(c)}"
        case TyApp(op=op, args=()):
            return op
        case TyApp(op=op, args=args):
            return f"{op}[{', '.join(pretty_type(a) for a in args)}]"
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Terms


@node(slots=True)
class BVar:
    """A HOL bound variable, as a de Bruijn index."""

    index: int
    span: object = span_field()


@node(slots=True)
class FVar:
    """A HOL free variable of a type."""

    name: str
    type: HolType
    span: object = span_field()


@node(slots=True)
class Const:
    """A HOL constant at a type instance."""

    name: str
    type: HolType  # the fully instantiated type of this occurrence
    span: object = span_field()


@node(slots=True)
class App:
    """HOL function application."""

    fn: "HolTerm"
    arg: "HolTerm"
    span: object = span_field()


@node(slots=True)
class Abs:
    """A HOL lambda abstraction with its domain type."""

    dom: HolType
    body: "HolTerm"
    hint: str | None = hint_field()
    span: object = span_field()


HolTerm = Union[BVar, FVar, Const, App, Abs]

EQ = "="
EPS = "eps"


def type_of(t: HolTerm, stack: tuple[HolType, ...] = ()) -> HolType:
    cls = type(t)
    if cls is App:
        tf = type_of(t.fn, stack)
        if not (type(tf) is TyApp and tf.op == "fun"):
            raise KernelError(f"application of non-function of type {pretty_type(tf)}")
        ta = type_of(t.arg, stack)
        if ta != tf.args[0]:
            raise KernelError(
                f"ill-typed application: argument {pretty_type(ta)} vs "
                f"domain {pretty_type(tf.args[0])}"
            )
        return tf.args[1]
    if cls is FVar or cls is Const:
        return t.type
    if cls is BVar:
        if t.index >= len(stack):
            raise KernelError(f"unbound de Bruijn index {t.index}")
        return stack[t.index]
    if cls is Abs:
        return fn(t.dom, type_of(t.body, (t.dom,) + stack))
    raise TypeError(t)


def _nodes(t: HolTerm, depth: int = 0):
    """Each node of t but the applications, left to right, with its binder
    depth (depth plus the abstractions above it); an abstraction comes
    before its body. It keeps its own stack, so no Python frame is spent per
    level."""
    stack = [(t, depth)]
    while stack:
        u, d = stack.pop()
        cls = type(u)
        if cls is App:
            stack.append((u.arg, d))
            stack.append((u.fn, d))
            continue
        yield u, d
        if cls is Abs:
            stack.append((u.body, d + 1))


def term_ty_vars(t: HolTerm) -> frozenset[str]:
    return frozenset().union(
        *(ty_vars(u.dom if type(u) is Abs else u.type) for u, _ in _nodes(t) if type(u) is not BVar)
    )


def term_ty_subst(t: HolTerm, mapping: Mapping[str, HolType]) -> HolTerm:
    cls = type(t)
    if cls is App:
        f = term_ty_subst(t.fn, mapping)
        a = term_ty_subst(t.arg, mapping)
        if f is t.fn and a is t.arg and t.span is None:
            return t
        return App(f, a)
    if cls is Abs:
        d = type_subst(t.dom, mapping)
        b = term_ty_subst(t.body, mapping)
        if d is t.dom and b is t.body and t.span is None:
            return t
        return Abs(d, b, hint=t.hint)
    if cls is BVar:
        return t
    ty = type_subst(t.type, mapping)
    return t if ty is t.type and t.span is None else cls(t.name, ty)


def free_vars(t: HolTerm) -> frozenset[FVar]:
    return frozenset(u for u, _ in _nodes(t) if type(u) is FVar)


def subst_fvars(t: HolTerm, mapping: Mapping[FVar, "HolTerm"]) -> HolTerm:
    """Simultaneous substitution for free variables; capture-free because
    bound variables are indices."""
    cls = type(t)
    if cls is App:
        f = subst_fvars(t.fn, mapping)
        a = subst_fvars(t.arg, mapping)
        if f is t.fn and a is t.arg and t.span is None:
            return t
        return App(f, a)
    if cls is Abs:
        b = subst_fvars(t.body, mapping)
        if b is t.body and t.span is None:
            return t
        return Abs(t.dom, b, hint=t.hint)
    return mapping.get(t, t) if cls is FVar else t


def open_term(body: HolTerm, value: HolTerm, depth: int = 0) -> HolTerm:
    """Instantiate BVar(depth) with a locally closed term."""
    cls = type(body)
    if cls is App:
        f = open_term(body.fn, value, depth)
        a = open_term(body.arg, value, depth)
        if f is body.fn and a is body.arg and body.span is None:
            return body
        return App(f, a)
    if cls is Abs:
        b = open_term(body.body, value, depth + 1)
        if b is body.body and body.span is None:
            return body
        return Abs(body.dom, b, hint=body.hint)
    if cls is not BVar or body.index < depth:
        return body
    return value if body.index == depth else BVar(body.index - 1)


def abstract_fvar(t: HolTerm, x: FVar, depth: int = 0) -> HolTerm:
    cls = type(t)
    if cls is App:
        f = abstract_fvar(t.fn, x, depth)
        a = abstract_fvar(t.arg, x, depth)
        if f is t.fn and a is t.arg and t.span is None:
            return t
        return App(f, a)
    if cls is Abs:
        b = abstract_fvar(t.body, x, depth + 1)
        if b is t.body and t.span is None:
            return t
        return Abs(t.dom, b, hint=t.hint)
    if cls is BVar:
        return BVar(t.index + 1) if t.index >= depth else t
    return BVar(depth) if t == x else t


def abs_over(x: FVar, body: HolTerm) -> Abs:
    return Abs(x.type, abstract_fvar(body, x), hint=x.name)


# The `=` constant at Prop, shared by every equation between propositions.
_EQ_PROP = Const(EQ, fn(PROP, fn(PROP, PROP)))


def mk_eq_at(ty: HolType, lhs: HolTerm, rhs: HolTerm) -> HolTerm:
    """Equation former with the instance type given (usable on open terms)."""
    eq = _EQ_PROP if ty == PROP else Const(EQ, fn(ty, fn(ty, PROP)))
    return App(App(eq, lhs), rhs)


def mk_eq(lhs: HolTerm, rhs: HolTerm) -> HolTerm:
    ty = type_of(lhs)
    tr = type_of(rhs)
    if ty != tr:
        raise KernelError(
            f"equation sides have types {pretty_type(ty)} and {pretty_type(tr)}"
        )
    return mk_eq_at(ty, lhs, rhs)


def dest_eq(t: HolTerm):
    if type(t) is App:
        f = t.fn
        if type(f) is App and type(f.fn) is Const and f.fn.name == EQ:
            return f.arg, t.arg
    return None


def _dest_eq_typed(t: HolTerm):
    """(side type, lhs, rhs) of an equation, or None.

    The side type is read from the instance type of the `=` constant; it is
    the type of both sides only when t is well-typed, as every theorem's
    conclusion is.
    """
    if type(t) is App:
        f = t.fn
        if type(f) is App and type(f.fn) is Const and f.fn.name == EQ:
            ty = f.fn.type
            if type(ty) is TyApp and ty.op == "fun" and len(ty.args) == 2:
                return ty.args[0], f.arg, t.arg
    return None


# ---------------------------------------------------------------------------
# Theorems (LCF discipline)


def axiom_name(name: str) -> str:
    """Normalize an axiom name (choice, propext, infinity, with any casing)."""
    key = name.upper().replace("-", "_").replace("PROPEXT", "PROP_EXT")
    if key not in ("INFINITY", "CHOICE", "PROP_EXT"):
        raise KernelError(f"unknown axiom {name}")
    return key


_KERNEL_TOKEN = object()


class HolTheorem:
    """A certified sequent Γ ⊢ A of Prop-typed terms.

    Constructible only through the kernel rules below; instances are sealed.
    """

    __slots__ = ("hypotheses", "conclusion")

    def __init__(self, hypotheses: frozenset, conclusion: HolTerm, *, _token=None):
        if _token is not _KERNEL_TOKEN:
            raise KernelError("theorems can only be produced by kernel rules")
        object.__setattr__(self, "hypotheses", frozenset(hypotheses))
        object.__setattr__(self, "conclusion", conclusion)

    def __setattr__(self, name, value):
        raise AttributeError("theorems are immutable")

    def __delattr__(self, name):
        raise AttributeError("theorems are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, HolTheorem)
            and self.hypotheses == other.hypotheses
            and self.conclusion == other.conclusion
        )

    def __hash__(self):
        return hash((self.hypotheses, self.conclusion))

    def __repr__(self):
        from .printer import pretty_term

        hyps = ", ".join(sorted(pretty_term(h) for h in self.hypotheses))
        return f"{hyps} |- {pretty_term(self.conclusion)}" if hyps else f"|- {pretty_term(self.conclusion)}"


def _thm(hyps, concl) -> HolTheorem:
    return HolTheorem(hyps, concl, _token=_KERNEL_TOKEN)


# ---------------------------------------------------------------------------
# Kernel state


@node
class ConstDecl:
    """A HOL constant's generic type and, for a defined one, its definiens."""

    name: str
    generic: HolType
    definiens: HolTerm | None = None


@node
class KernelState:
    """Constant and type-operator tables; append-only, no redefinition.

    The tables are stored as read-only copies, so a state's tables never
    change after construction. `checked` memoizes check_term on closed terms,
    leaf constants and free variables included, for this state object only;
    every new state, `span.replace` included, starts with an empty memo.
    `lemmas` is the derived layer's cache of theorems that kernel rules
    minted under this state object; it starts empty in the same way. Neither
    is a field, so neither is compared, hashed or shown.
    """

    constants: Mapping[str, ConstDecl]
    type_ops: Mapping[str, int]
    enabled_axioms: frozenset[str] = frozenset()
    definition_log: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "constants", MappingProxyType(dict(self.constants)))
        object.__setattr__(self, "type_ops", MappingProxyType(dict(self.type_ops)))
        object.__setattr__(self, "checked", {})
        object.__setattr__(self, "lemmas", {})

    def enable_axiom(self, name: str) -> "KernelState":
        return replace(self, enabled_axioms=self.enabled_axioms | {axiom_name(name)})

    def log(self, kind: str, name: str, detail: str = "") -> "KernelState":
        return replace(self, definition_log=self.definition_log + ((kind, name, detail),))


def initial_state() -> KernelState:
    a = TyVar("a")
    return KernelState(
        constants={
            EQ: ConstDecl(EQ, fn(a, fn(a, PROP))),
            EPS: ConstDecl(EPS, fn(fn(a, PROP), a)),
        },
        type_ops={"Prop": 0, "Ind": 0, "fun": 2},
    )


def check_type(state: KernelState, ty: HolType) -> None:
    cls = type(ty)
    if cls is TyVar:
        return
    if cls is TyApp:
        op, args = ty.op, ty.args
        if op not in state.type_ops:
            raise KernelError(f"unknown type operator {op}")
        if state.type_ops[op] != len(args):
            raise KernelError(
                f"type operator {op} has arity {state.type_ops[op]}, got {len(args)}"
            )
        for a in args:
            check_type(state, a)
        return
    raise TypeError(ty)


def check_term(state: KernelState, t: HolTerm, stack: tuple[HolType, ...] = ()) -> HolType:
    """Well-formedness against the state: known constants at instances of
    their generic types, known type operators, well-typed applications.

    Constant and free-variable leaves are closed wherever they occur, so
    each is checked once per state and then found in state.checked."""
    cls = type(t)
    if cls is App:
        tf = check_term(state, t.fn, stack)
        if not (type(tf) is TyApp and tf.op == "fun"):
            raise KernelError(f"application of non-function of type {pretty_type(tf)}")
        ta = check_term(state, t.arg, stack)
        if ta != tf.args[0]:
            raise KernelError(
                f"ill-typed application: argument {pretty_type(ta)} vs "
                f"domain {pretty_type(tf.args[0])}"
            )
        return tf.args[1]
    if cls is Const:
        ty = t.type
        if t not in state.checked:
            decl = state.constants.get(t.name)
            if decl is None:
                raise KernelError(f"unknown constant {t.name}")
            check_type(state, ty)
            if type_match(decl.generic, ty) is None:
                raise KernelError(
                    f"constant {t.name} used at {pretty_type(ty)}, not an instance of "
                    f"{pretty_type(decl.generic)}"
                )
            state.checked[t] = ty
        return ty
    if cls is BVar:
        if t.index >= len(stack):
            raise KernelError(f"unbound de Bruijn index {t.index}")
        return stack[t.index]
    if cls is FVar:
        ty = t.type
        if t not in state.checked:
            check_type(state, ty)
            state.checked[t] = ty
        return ty
    if cls is Abs:
        check_type(state, t.dom)
        return fn(t.dom, check_term(state, t.body, (t.dom,) + stack))
    raise TypeError(t)


def _closed_type(state: KernelState, t: HolTerm) -> HolType:
    """check_term(state, t) for a closed term, memoized in state.checked.

    Sound because the state's tables are read-only, terms are immutable, and
    check_term ignores the spans and hints that term equality ignores too. A
    failed check raises before anything is stored.
    """
    ty = state.checked.get(t)
    if ty is None:
        ty = check_term(state, t)
        state.checked[t] = ty
    return ty


def _check_prop(state: KernelState, t: HolTerm, what: str) -> None:
    ty = _closed_type(state, t)
    if ty != PROP:
        raise KernelError(f"{what} must have type Prop, got {pretty_type(ty)}")


# ---------------------------------------------------------------------------
# Primitive rules


def REFL(state: KernelState, t: HolTerm) -> HolTheorem:
    ty = _closed_type(state, t)
    return _thm(frozenset(), mk_eq_at(ty, t, t))


def ASSUME(state: KernelState, p: HolTerm) -> HolTheorem:
    _check_prop(state, p, "assumption")
    return _thm(frozenset({p}), p)


def TRANS(state: KernelState, th1: HolTheorem, th2: HolTheorem) -> HolTheorem:
    e1 = _dest_eq_typed(th1.conclusion)
    e2 = _dest_eq_typed(th2.conclusion)
    if e1 is None or e2 is None:
        raise KernelError("TRANS needs two equations")
    _, s, t = e1
    if t != e2[1]:
        raise KernelError("TRANS: middle terms differ")
    # th1's `=` constant is at ty -> ty -> Prop, ty the type of s and e2[2]
    return _thm(th1.hypotheses | th2.hypotheses, App(App(th1.conclusion.fn.fn, s), e2[2]))


def MK_COMB(state: KernelState, th_fn: HolTheorem, th_arg: HolTheorem) -> HolTheorem:
    ef = _dest_eq_typed(th_fn.conclusion)
    ea = _dest_eq_typed(th_arg.conclusion)
    if ef is None or ea is None:
        raise KernelError("MK_COMB needs two equations")
    tf, s, t = ef
    ta, u, v = ea
    if not (isinstance(tf, TyApp) and tf.op == "fun" and tf.args[0] == ta):
        raise KernelError("MK_COMB: function and argument types do not fit")
    return _thm(th_fn.hypotheses | th_arg.hypotheses, mk_eq_at(tf.args[1], App(s, u), App(t, v)))


def ABS(state: KernelState, x: FVar, th: HolTheorem) -> HolTheorem:
    e = _dest_eq_typed(th.conclusion)
    if e is None:
        raise KernelError("ABS needs an equation")
    check_type(state, x.type)
    for h in th.hypotheses:
        if x in free_vars(h):
            raise KernelError(f"ABS: {x.name} is free in a hypothesis")
    ty, s, t = e
    return _thm(th.hypotheses, mk_eq_at(fn(x.type, ty), abs_over(x, s), abs_over(x, t)))


def BETA(state: KernelState, t: HolTerm) -> HolTheorem:
    """⊢ (λx. b) x = b; general instances come from inst_term."""
    ty = _closed_type(state, t)
    match t:
        case App(fn=Abs(dom=d, body=b), arg=FVar() as x) if x.type == d:
            return _thm(frozenset(), mk_eq_at(ty, t, open_term(b, x)))
    raise KernelError("BETA expects a redex whose argument is a variable of the bound type")


def ETA(state: KernelState, t: HolTerm) -> HolTheorem:
    ty = _closed_type(state, t)
    match t:
        case Abs(dom=d, body=App(fn=f, arg=BVar(index=0))) if not _uses_bvar(f, 0):
            # index 0 does not occur in f, so opening it only lowers the others
            return _thm(frozenset(), mk_eq_at(ty, t, open_term(f, t)))
    raise KernelError("ETA expects an abstraction of shape (fun x => f x) with x not free in f")


def _uses_bvar(t: HolTerm, depth: int) -> bool:
    return any(type(u) is BVar and u.index == d for u, d in _nodes(t, depth))


def EQ_MP(state: KernelState, th_eq: HolTheorem, th: HolTheorem) -> HolTheorem:
    e = _dest_eq_typed(th_eq.conclusion)
    if e is None:
        raise KernelError("EQ_MP needs an equation as its first argument")
    ty, p, q = e
    if ty != PROP:
        raise KernelError("EQ_MP needs a Prop equation")
    if p != th.conclusion:
        raise KernelError("EQ_MP: the equation's left side does not match the theorem")
    return _thm(th_eq.hypotheses | th.hypotheses, q)


def DEDUCT_ANTISYM(state: KernelState, th1: HolTheorem, th2: HolTheorem) -> HolTheorem:
    """From Γ ⊢ P and Δ ⊢ Q conclude (Γ−{Q}) ∪ (Δ−{P}) ⊢ P = Q."""
    p, q = th1.conclusion, th2.conclusion
    hyps = (th1.hypotheses - {q}) | (th2.hypotheses - {p})
    return _thm(hyps, mk_eq_at(PROP, p, q))


RULES = {
    "refl": REFL,
    "assume": ASSUME,
    "trans": TRANS,
    "mk_comb": MK_COMB,
    "abs": ABS,
    "beta": BETA,
    "eta": ETA,
    "eq_mp": EQ_MP,
    "deduct_antisym": DEDUCT_ANTISYM,
}


# ---------------------------------------------------------------------------
# Instantiation


def inst_type(state: KernelState, th: HolTheorem, mapping: Mapping[str, HolType]) -> HolTheorem:
    if not mapping:
        return th
    for ty in mapping.values():
        check_type(state, ty)
    return _thm(
        frozenset(term_ty_subst(h, mapping) for h in th.hypotheses),
        term_ty_subst(th.conclusion, mapping),
    )


def inst_term(state: KernelState, th: HolTheorem, mapping: Mapping[FVar, HolTerm]) -> HolTheorem:
    for x, t in mapping.items():
        if not isinstance(x, FVar):
            raise KernelError("inst_term substitutes for free variables only")
        ty = _closed_type(state, t)
        if ty != x.type:
            raise KernelError(
                f"replacement for {x.name} has type {pretty_type(ty)}, "
                f"expected {pretty_type(x.type)}"
            )
    return _thm(
        frozenset(subst_fvars(h, mapping) for h in th.hypotheses),
        subst_fvars(th.conclusion, mapping),
    )


# ---------------------------------------------------------------------------
# Definitions


def new_definition(state: KernelState, name: str, t: HolTerm):
    """Register `name = t` for closed t; returns (state', ⊢ name = t)."""
    if name in state.constants:
        raise KernelError(f"constant {name} is already defined")
    if free_vars(t):
        raise KernelError("definiens must be closed")
    generic = _closed_type(state, t)
    if not term_ty_vars(t) <= ty_vars(generic):
        raise KernelError(
            "type-variable escape: every type variable of the definiens must "
            "occur in its type"
        )
    decl = ConstDecl(name, generic, definiens=t)
    consts = dict(state.constants)
    consts[name] = decl
    state2 = replace(state, constants=consts).log("definition", name)
    return state2, _thm(frozenset(), mk_eq_at(generic, Const(name, generic), t))


def defining_theorem(state: KernelState, name: str) -> HolTheorem:
    decl = state.constants.get(name)
    if decl is None or decl.definiens is None:
        raise KernelError(f"{name} has no definition")
    return _thm(frozenset(), mk_eq_at(decl.generic, Const(name, decl.generic), decl.definiens))


def new_type_definition(state: KernelState, name: str, pred: HolTerm, nonempty: HolTheorem):
    """Carve a new type out of the subset of τ satisfying pred.

    Returns (state', abs const, repr const, ⊢ abs (repr a) = a,
    ⊢ P r = (repr (abs r) = r)).
    """
    if name in state.type_ops:
        raise KernelError(f"type operator {name} is already defined")
    if free_vars(pred):
        raise KernelError("the carving predicate must be closed")
    pt = _closed_type(state, pred)
    if not (isinstance(pt, TyApp) and pt.op == "fun" and pt.args[1] == PROP):
        raise KernelError("the carving predicate must have type t -> Prop")
    rep_ty = pt.args[0]
    if nonempty.hypotheses:
        raise KernelError("the nonemptiness certificate must have no hypotheses")
    match nonempty.conclusion:
        case App(fn=Const(name="exists"), arg=witness_pred) if witness_pred == pred:
            pass
        case _:
            raise KernelError(
                "the nonemptiness certificate must conclude exists applied to the predicate"
            )
    params = tuple(sorted(ty_vars(rep_ty)))
    new_ty = TyApp(name, tuple(TyVar(p) for p in params))
    abs_name, repr_name = f"abs_{name}", f"repr_{name}"
    if abs_name in state.constants or repr_name in state.constants:
        raise KernelError("abs/repr constant names already taken")
    abs_c = Const(abs_name, fn(rep_ty, new_ty))
    repr_c = Const(repr_name, fn(new_ty, rep_ty))
    tops = dict(state.type_ops)
    tops[name] = len(params)
    consts = dict(state.constants)
    consts[abs_name] = ConstDecl(abs_name, fn(rep_ty, new_ty))
    consts[repr_name] = ConstDecl(repr_name, fn(new_ty, rep_ty))
    state2 = replace(state, constants=consts, type_ops=tops).log("type-definition", name)
    a = FVar("a", new_ty)
    r = FVar("r", rep_ty)
    abs_repr = _thm(frozenset(), mk_eq_at(new_ty, App(abs_c, App(repr_c, a)), a))
    repr_abs = _thm(
        frozenset(),
        mk_eq_at(PROP, App(pred, r), mk_eq_at(rep_ty, App(repr_c, App(abs_c, r)), r)),
    )
    return state2, abs_c, repr_c, abs_repr, repr_abs


# ---------------------------------------------------------------------------
# The standard connectives and the three optional axioms


def _truec() -> HolTerm:
    idp = Abs(PROP, BVar(0), hint="p")
    return mk_eq(idp, idp)


def standard_definitions() -> tuple[tuple[str, HolTerm], ...]:
    """The standard connective bodies in dependency order."""
    a = TyVar("a")
    true_body = _truec()
    truec = Const("true", PROP)
    forall_body = Abs(fn(a, PROP), mk_eq_at(fn(a, PROP), BVar(0), Abs(a, truec, hint="x")), hint="P")

    def mk_forall(dom: HolType, body: HolTerm, hint: str) -> HolTerm:
        c = Const("forall", fn(fn(dom, PROP), PROP))
        return App(c, Abs(dom, body, hint=hint))

    rr = fn(PROP, fn(PROP, PROP))
    and_body = Abs(
        PROP,
        Abs(
            PROP,
            mk_forall(
                rr,
                mk_eq_at(
                    PROP,
                    App(App(BVar(0), BVar(2)), BVar(1)),
                    App(App(BVar(0), truec), truec),
                ),
                "r",
            ),
            hint="q",
        ),
        hint="p",
    )
    andc = Const("and", fn(PROP, fn(PROP, PROP)))
    imp_body = Abs(
        PROP,
        Abs(PROP, mk_eq_at(PROP, App(App(andc, BVar(1)), BVar(0)), BVar(1)), hint="q"),
        hint="p",
    )
    impc = Const("imp", fn(PROP, fn(PROP, PROP)))
    false_body = mk_forall(PROP, BVar(0), "p")
    falsec = Const("false", PROP)
    not_body = Abs(PROP, App(App(impc, BVar(0)), falsec), hint="p")
    or_body = Abs(
        PROP,
        Abs(
            PROP,
            mk_forall(
                PROP,
                App(
                    App(impc, App(App(impc, BVar(2)), BVar(0))),
                    App(App(impc, App(App(impc, BVar(1)), BVar(0))), BVar(0)),
                ),
                "r",
            ),
            hint="q",
        ),
        hint="p",
    )
    exists_body = Abs(
        fn(a, PROP),
        mk_forall(
            PROP,
            App(
                App(
                    impc,
                    mk_forall(a, App(App(impc, App(BVar(2), BVar(0))), BVar(1)), "x"),
                ),
                BVar(0),
            ),
            "q",
        ),
        hint="P",
    )
    return (
        ("true", true_body),
        ("forall", forall_body),
        ("and", and_body),
        ("imp", imp_body),
        ("false", false_body),
        ("not", not_body),
        ("or", or_body),
        ("exists", exists_body),
    )


# Built once at import, so the first run in a process does no more work
# than any later one.
_STANDARD_BODIES = MappingProxyType(dict(standard_definitions()))


def _is_standard(state: KernelState, name: str) -> bool:
    """Whether the connective name has its standard definition in state."""
    decl = state.constants.get(name)
    return decl is not None and decl.definiens == _STANDARD_BODIES[name]


def _require_standard(state: KernelState, names: Iterable[str]) -> None:
    for n in names:
        if not _is_standard(state, n):
            raise KernelError(
                f"axiom-deps: the standard definition of {n} must be in place",
                tag="axiom-deps",
            )


def axiom_statement(state: KernelState, name: str) -> HolTerm:
    name = axiom_name(name)
    a = TyVar("a")

    def fa(dom, body, hint):
        return App(Const("forall", fn(fn(dom, PROP), PROP)), Abs(dom, body, hint=hint))

    def imp(p, q):
        return App(App(Const("imp", fn(PROP, fn(PROP, PROP))), p), q)

    def conj(p, q):
        return App(App(Const("and", fn(PROP, fn(PROP, PROP))), p), q)

    if name == "PROP_EXT":
        _require_standard(state, ("true", "forall", "and", "imp"))
        p, q = BVar(1), BVar(0)
        body = imp(conj(imp(p, q), imp(q, p)), mk_eq_at(PROP, p, q))
        return fa(PROP, fa(PROP, body, "q"), "p")
    if name == "CHOICE":
        _require_standard(state, ("true", "forall", "and", "imp"))
        pv = fn(a, PROP)
        px = App(BVar(1), BVar(0))
        peps = App(BVar(1), App(Const(EPS, fn(pv, a)), BVar(1)))
        return fa(pv, fa(a, imp(px, peps), "x"), "P")
    if name == "INFINITY":
        _require_standard(state, ("true", "forall", "and", "imp", "false", "not", "exists"))
        ii = fn(IND, IND)

        def ex(dom, body, hint):
            return App(Const("exists", fn(fn(dom, PROP), PROP)), Abs(dom, body, hint=hint))

        notc = Const("not", fn(PROP, PROP))
        # exists f. (forall x x'. f x = f x' ==> x = x') and (exists y. forall x. not (f x = y))
        injective = fa(
            IND,
            fa(
                IND,
                imp(
                    mk_eq_at(IND, App(BVar(2), BVar(1)), App(BVar(2), BVar(0))),
                    mk_eq_at(IND, BVar(1), BVar(0)),
                ),
                "x'",
            ),
            "x",
        )
        not_surj = ex(
            IND,
            fa(IND, App(notc, mk_eq_at(IND, App(BVar(2), BVar(0)), BVar(1))), "x"),
            "y",
        )
        return ex(ii, conj(injective, not_surj), "f")
    raise KernelError(f"unknown axiom {name}")


def axiom(state: KernelState, name: str) -> HolTheorem:
    name = axiom_name(name)
    if name not in state.enabled_axioms:
        raise KernelError(f"axiom-disabled: {name} is not enabled", tag="axiom-disabled")
    stmt = axiom_statement(state, name)
    _closed_type(state, stmt)
    return _thm(frozenset(), stmt)
