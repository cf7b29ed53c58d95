"""Sorted first-order syntax: signatures, terms, formulas.

Binders use a locally nameless representation: bound variables are de Bruijn
indices (`BVar`), free variables are named and sorted (`FVar`). Structural
equality of formulas is therefore alpha-equivalence; substitution is
capture-avoiding by construction because an index can never be captured by a
named variable and vice versa.

Opening a binder, closing one and substituting for a free variable are one
walk with different actions at the variables: every one of them reads the
one formula walker `_map_formula`, which maps each atom's terms at their
binder depth, and the one term walker `_map_term`, which maps the variables.
Both rebuild every node they pass except `Bot` and the variables, keeping
binder hints and dropping spans.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from ..errors import SortError
from ..span import EMPTY, hint_field, node, replace, span_field


@node
class Sort:
    """A first-order sort."""

    name: str

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Terms


@node
class BVar:
    """A bound variable, as a de Bruijn index."""

    index: int
    span: object = span_field()


@node
class FVar:
    """A free variable of a sort."""

    name: str
    sort: Sort
    span: object = span_field()


@node
class App:
    """A function symbol applied to terms; constants take no arguments."""

    fn: str
    args: tuple["Term", ...] = ()
    span: object = span_field()


Term = Union[BVar, FVar, App]


def const(name: str) -> App:
    return App(name, ())


# ---------------------------------------------------------------------------
# Formulas


@node
class Eq:
    """An equation between two terms of one sort."""

    lhs: Term
    rhs: Term
    span: object = span_field()


@node
class Rel:
    """A relation symbol applied to terms."""

    name: str
    args: tuple[Term, ...] = ()
    span: object = span_field()


@node
class Bot:
    """Falsity."""

    span: object = span_field()


@node
class And:
    """Conjunction."""

    left: "Formula"
    right: "Formula"
    span: object = span_field()


@node
class Or:
    """Disjunction."""

    left: "Formula"
    right: "Formula"
    span: object = span_field()


@node
class Implies:
    """Implication; negation is implication of falsity."""

    left: "Formula"
    right: "Formula"
    span: object = span_field()


@node
class Forall:
    """Universal quantification over a sort; the body is under one binder."""

    sort: Sort
    body: "Formula"
    hint: str | None = hint_field()
    span: object = span_field()


@node
class Exists:
    """Existential quantification over a sort; the body is under one binder."""

    sort: Sort
    body: "Formula"
    hint: str | None = hint_field()
    span: object = span_field()


Formula = Union[Eq, Rel, Bot, And, Or, Implies, Forall, Exists]


def neg(a: Formula) -> Implies:
    """not-A is the derived form A -> bot."""
    return Implies(a, Bot())


def iff(a: Formula, b: Formula) -> And:
    return And(Implies(a, b), Implies(b, a))


TRUE = neg(Bot())  # a convenient intuitionistic tautology


# ---------------------------------------------------------------------------
# Binder plumbing


def _map_term(t: Term, at_var) -> Term:
    """Rebuild t's applications, with at_var applied at each variable."""
    if type(t) is App:
        return App(t.fn, tuple(_map_term(a, at_var) for a in t.args))
    if isinstance(t, (BVar, FVar)):
        return at_var(t)
    raise TypeError(t)


def _map_formula(a: Formula, at_term, k: int = 0) -> Formula:
    """Rebuild a's atoms, connectives and quantifiers, replacing each atom's
    term t by at_term(t, depth), where depth is k plus the number of binders
    between a and the atom."""
    cls = type(a)
    if cls is Eq:
        return Eq(at_term(a.lhs, k), at_term(a.rhs, k))
    if cls is Rel:
        return Rel(a.name, tuple(at_term(t, k) for t in a.args))
    if cls is Bot:
        return a
    if cls is And or cls is Or or cls is Implies:
        return cls(_map_formula(a.left, at_term, k), _map_formula(a.right, at_term, k))
    if cls is Forall or cls is Exists:
        return cls(a.sort, _map_formula(a.body, at_term, k + 1), hint=a.hint)
    raise TypeError(a)


def _open_term(t: Term, k: int, u: Term) -> Term:
    return _map_term(t, lambda v: u if type(v) is BVar and v.index == k else v)


def _open(a: Formula, k: int, u: Term) -> Formula:
    return _map_formula(a, lambda t, depth: _open_term(t, depth, u), k)


def open_binder(a: Forall | Exists, u: Term) -> Formula:
    """Instantiate the outermost bound variable of a quantified formula."""
    return _open(a.body, 0, u)


def _close_term(t: Term, k: int, x: FVar) -> Term:
    return _map_term(t, lambda v: BVar(k) if v == x else v)


def _close(a: Formula, k: int, x: FVar) -> Formula:
    return _map_formula(a, lambda t, depth: _close_term(t, depth, x), k)


def forall(x: FVar, a: Formula) -> Forall:
    """Bind the free variable x universally."""
    return Forall(x.sort, _close(a, 0, x), hint=x.name)


def exists(x: FVar, a: Formula) -> Exists:
    return Exists(x.sort, _close(a, 0, x), hint=x.name)


def forall_many(xs: Iterable[FVar], a: Formula) -> Formula:
    for x in reversed(list(xs)):
        a = forall(x, a)
    return a


# ---------------------------------------------------------------------------
# Free variables, substitution


def term_free_vars(t: Term) -> frozenset[FVar]:
    match t:
        case BVar():
            return frozenset()
        case FVar():
            return frozenset((t,))
        case App(args=args):
            out: frozenset[FVar] = frozenset()
            for a in args:
                out |= term_free_vars(a)
            return out
    raise TypeError(t)


def free_vars(a: Formula) -> frozenset[FVar]:
    """Exactly the free variables of a formula; sentences yield the empty set."""
    match a:
        case Eq(lhs=l, rhs=r):
            return term_free_vars(l) | term_free_vars(r)
        case Rel(args=args):
            out: frozenset[FVar] = frozenset()
            for t in args:
                out |= term_free_vars(t)
            return out
        case Bot():
            return frozenset()
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return free_vars(l) | free_vars(r)
        case Forall(body=b) | Exists(body=b):
            return free_vars(b)
    raise TypeError(a)


def is_sentence(a: Formula) -> bool:
    return not free_vars(a)


def subst_in_term(t: Term, x: FVar, u: Term) -> Term:
    return _map_term(t, lambda v: u if v == x else v)


def substitute(a: Formula, x: FVar, t: Term) -> Formula:
    """Capture-avoiding substitution A[t/x].

    Bound variables are indices, so replacing the named variable x by the
    locally closed term t can never capture.
    """
    return _map_formula(a, lambda u, _depth: subst_in_term(u, x, t))


def alpha_equal(a: Formula, b: Formula) -> bool:
    """True iff the nameless representations coincide structurally."""
    return a == b


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Smallest unused name obtained from base by appending prime marks."""
    taken = set(taken)
    name = base
    while name in taken:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Signatures and well-formedness


@node
class Signature:
    """Sorts plus sorted function and relation profiles.

    A 0-ary function is a constant; a 0-ary relation is a propositional atom.
    """

    sorts: frozenset[Sort]
    functions: Mapping[str, tuple[tuple[Sort, ...], Sort]] = EMPTY
    relations: Mapping[str, tuple[Sort, ...]] = EMPTY

    def __post_init__(self):
        for name, (args, res) in self.functions.items():
            for s in (*args, res):
                if s not in self.sorts:
                    raise SortError(f"function {name}: unknown sort {s}")
        for name, args in self.relations.items():
            for s in args:
                if s not in self.sorts:
                    raise SortError(f"relation {name}: unknown sort {s}")
        if set(self.functions) & set(self.relations):
            clash = sorted(set(self.functions) & set(self.relations))
            raise SortError(f"symbols declared as both function and relation: {clash}")

    @property
    def only_sort(self) -> Sort | None:
        if len(self.sorts) == 1:
            return next(iter(self.sorts))
        return None

    def with_function(self, name: str, args: tuple[Sort, ...], res: Sort) -> "Signature":
        if name in self.functions or name in self.relations:
            raise SortError(f"symbol {name} already declared")
        return replace(self, functions={**self.functions, name: (args, res)})

    def with_relation(self, name: str, args: tuple[Sort, ...]) -> "Signature":
        if name in self.functions or name in self.relations:
            raise SortError(f"symbol {name} already declared")
        return replace(self, relations={**self.relations, name: args})

    def with_sort(self, sort: Sort) -> "Signature":
        return replace(self, sorts=self.sorts | {sort})


def single_sorted(sort_name: str = "obj") -> Signature:
    """One-sorted logic as the single-sort special case."""
    return Signature(sorts=frozenset({Sort(sort_name)}))


def term_sort(sig: Signature, t: Term, binders: tuple[Sort, ...] = ()) -> Sort:
    """Sort of a term; `binders` is the stack of enclosing binder sorts
    (innermost first)."""
    match t:
        case BVar(index=i):
            if i >= len(binders):
                raise SortError(f"unbound de Bruijn index {i}")
            return binders[i]
        case FVar(sort=s):
            if s not in sig.sorts:
                raise SortError(f"variable {t.name}: unknown sort {s}")
            return s
        case App(fn=f, args=args):
            if f not in sig.functions:
                raise SortError(f"unknown function symbol in {pretty_term(t)}", span=t.span)
            decl_args, res = sig.functions[f]
            if len(args) != len(decl_args):
                raise SortError(
                    f"arity mismatch in {pretty_term(t)}: "
                    f"{f} expects {len(decl_args)} argument(s), got {len(args)}",
                    span=t.span,
                )
            for a, want in zip(args, decl_args):
                got = term_sort(sig, a, binders)
                if got != want:
                    raise SortError(
                        f"sort mismatch in {pretty_term(t)}: "
                        f"argument {pretty_term(a)} has sort {got}, expected {want}",
                        span=t.span,
                    )
            return res
    raise TypeError(t)


def check_well_formed(sig: Signature, a: Formula, binders: tuple[Sort, ...] = ()) -> None:
    """Succeeds iff every symbol resolves with matching arity and sorts."""
    match a:
        case Eq(lhs=l, rhs=r):
            sl = term_sort(sig, l, binders)
            sr = term_sort(sig, r, binders)
            if sl != sr:
                raise SortError(
                    f"equation sides have different sorts: "
                    f"{pretty_term(l)} : {sl} vs {pretty_term(r)} : {sr}",
                    span=a.span,
                )
        case Rel(name=n, args=args):
            if n not in sig.relations:
                raise SortError(f"unknown relation symbol {n}", span=a.span)
            decl = sig.relations[n]
            if len(args) != len(decl):
                raise SortError(
                    f"arity mismatch: {n} expects {len(decl)} argument(s), got {len(args)}",
                    span=a.span,
                )
            for t, want in zip(args, decl):
                got = term_sort(sig, t, binders)
                if got != want:
                    raise SortError(
                        f"sort mismatch in {n}({', '.join(map(pretty_term, args))}): "
                        f"{pretty_term(t)} has sort {got}, expected {want}",
                        span=a.span,
                    )
        case Bot():
            pass
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            check_well_formed(sig, l, binders)
            check_well_formed(sig, r, binders)
        case Forall(sort=s, body=b) | Exists(sort=s, body=b):
            if s not in sig.sorts:
                raise SortError(f"unknown sort {s} in quantifier", span=a.span)
            check_well_formed(sig, b, (s,) + binders)
        case _:
            raise TypeError(a)


# ---------------------------------------------------------------------------
# Printing (the surface module re-exports these)


def pretty_term(t: Term, names: tuple[str, ...] = ()) -> str:
    match t:
        case BVar(index=i):
            return names[i] if i < len(names) else f"#{i}"
        case FVar(name=n):
            return n
        case App(fn=f, args=()):
            return f
        case App(fn=f, args=args):
            return f"{f}({', '.join(pretty_term(a, names) for a in args)})"
    raise TypeError(t)


def _binder_name(a: Forall | Exists, names: tuple[str, ...], frees: set[str]) -> str:
    base = a.hint or "x"
    return fresh_name(base, set(names) | frees)


# The FOL surface words, each with the constructor it names and the
# precedence it prints at: 4 atoms, 3 not, 2 and, 1 or, 0 implies and the
# quantifiers. The connectives are infix and right-associative. This printer
# and the parser in `surface.fol_parser` both read the table.
SURFACE = {
    "false": (Bot, 4),
    "/\\": (And, 2), "\\/": (Or, 1), "->": (Implies, 0),
    "forall": (Forall, 0), "exists": (Exists, 0),
}
_WORDS = {cls: (word, prec) for word, (cls, prec) in SURFACE.items()}


def pretty_formula(a: Formula, names: tuple[str, ...] = (), _frees: set[str] | None = None) -> str:
    """Deterministic printer; binder names are hints freshened with primes."""
    if _frees is None:
        _frees = {v.name for v in free_vars(a)}

    def go(a: Formula, names: tuple[str, ...], prec: int) -> str:
        match a:
            case Eq(lhs=l, rhs=r):
                return f"{pretty_term(l, names)} = {pretty_term(r, names)}"
            case Rel(name=n, args=()):
                return n
            case Rel(name=n, args=args):
                return f"{n}({', '.join(pretty_term(t, names) for t in args)})"
            case Implies(left=l, right=Bot()):
                s = f"~{go(l, names, 3)}"
                return s if prec <= 3 else f"({s})"
            case Bot():
                return _WORDS[Bot][0]
            case Forall(sort=srt, body=b) | Exists(sort=srt, body=b):
                word, p = _WORDS[type(a)]
                n = _binder_name(a, names, _frees)
                s = f"{word} {n} : {srt}, {go(b, (n,) + names, 0)}"
                return s if prec <= p else f"({s})"
            case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
                word, p = _WORDS[type(a)]
                s = f"{go(l, names, p + 1)} {word} {go(r, names, p)}"
                return s if prec <= p else f"({s})"
        raise TypeError(a)

    return go(a, names, 0)
