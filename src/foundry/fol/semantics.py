"""Brute-force semantic oracles: Tarski models, Kripke forcing, countermodels.

These are deliberately naive (exhaustive quantifier enumeration, no symmetry
reduction): they exist to cross-check the syntactic proof checkers at desk
scale, so simplicity beats speed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from ..errors import SemanticsError
from ..span import EMPTY, node
from .syntax import (
    And,
    App,
    Bot,
    BVar,
    Eq,
    Exists,
    Formula,
    Forall,
    FVar,
    Implies,
    Or,
    Rel,
    Signature,
    Sort,
    Term,
    free_vars,
    pretty_term,
)

Elem = object
Assignment = dict  # FVar -> Elem


@node
class FiniteModel:
    """Finite Tarski structure: one finite universe per sort, total tables."""

    universes: Mapping[Sort, tuple[Elem, ...]]
    functions: Mapping[str, Mapping[tuple, Elem]] = EMPTY
    relations: Mapping[str, frozenset] = EMPTY

    def __post_init__(self):
        for sort, elems in self.universes.items():
            if not elems:
                raise SemanticsError(f"empty universe for sort {sort}")
            if len(set(elems)) != len(elems):
                raise SemanticsError(f"duplicate elements in universe for sort {sort}")

    def universe(self, sort: Sort) -> tuple[Elem, ...]:
        try:
            return self.universes[sort]
        except KeyError:
            raise SemanticsError(f"model has no universe for sort {sort}") from None

    def validate(self, sig: Signature) -> None:
        """Check that every declared function table is total over the universes
        and every relation table holds only tuples of its sorts' universes."""
        for name, (arg_sorts, res) in sig.functions.items():
            table = self.functions.get(name)
            if table is None:
                raise SemanticsError(f"missing function table for {name}")
            codomain = set(self.universe(res))
            for args in itertools.product(*(self.universe(s) for s in arg_sorts)):
                if args not in table:
                    raise SemanticsError(f"function table {name} not total at {args}")
                if table[args] not in codomain:
                    raise SemanticsError(f"function table {name} leaves the universe at {args}")
        for name, arg_sorts in sig.relations.items():
            if name not in self.relations:
                raise SemanticsError(f"missing relation table for {name}")
            universes = [set(self.universe(s)) for s in arg_sorts]
            for args in sorted(self.relations[name], key=repr):  # errors independent of hashing
                if len(args) != len(universes):
                    raise SemanticsError(
                        f"relation table {name} holds {args} of arity {len(args)}, not {len(universes)}"
                    )
                if not all(a in u for a, u in zip(args, universes)):
                    raise SemanticsError(f"relation table {name} leaves the universe at {args}")


def eval_term(model: FiniteModel, assignment: Assignment, t: Term) -> Elem:
    """The denotation of t under the assignment."""
    match t:
        case FVar():
            try:
                return assignment[t]
            except KeyError:
                raise SemanticsError(f"unassigned variable {t.name}") from None
        case App(fn=f, args=args):
            table = model.functions.get(f)
            if table is None:
                raise SemanticsError(f"no table for function symbol {f}")
            vals = tuple(eval_term(model, assignment, a) for a in args)
            try:
                return table[vals]
            except KeyError:
                raise SemanticsError(f"function table {f} undefined at {vals}") from None
        case BVar():
            raise SemanticsError(f"cannot evaluate an unopened bound variable in {pretty_term(t)}")
    raise TypeError(t)


def holds(model: FiniteModel, assignment: Assignment, a: Formula) -> bool:
    """Classical truth by exhaustive enumeration over the finite universes."""
    match a:
        case Bot():
            return False
        case Eq(lhs=l, rhs=r):
            return eval_term(model, assignment, l) == eval_term(model, assignment, r)
        case Rel(name=n, args=args):
            table = model.relations.get(n, frozenset())
            vals = tuple(eval_term(model, assignment, t) for t in args)
            return vals in table
        case And(left=l, right=r):
            return holds(model, assignment, l) and holds(model, assignment, r)
        case Or(left=l, right=r):
            return holds(model, assignment, l) or holds(model, assignment, r)
        case Implies(left=l, right=r):
            return (not holds(model, assignment, l)) or holds(model, assignment, r)
        case Forall(sort=s) | Exists(sort=s):
            from .syntax import open_binder

            x = FVar(f"!q{len(assignment)}", s)
            body = lambda d: holds(model, {**assignment, x: d}, open_binder(a, x))
            elems = model.universe(s)
            if isinstance(a, Forall):
                return all(body(d) for d in elems)
            return any(body(d) for d in elems)
    raise TypeError(a)


def valid_in(model: FiniteModel, a: Formula) -> bool:
    """Truth under every assignment to the free variables."""
    fvs = sorted(free_vars(a), key=lambda v: v.name)
    for vals in itertools.product(*(model.universe(v.sort) for v in fvs)):
        if not holds(model, dict(zip(fvs, vals)), a):
            return False
    return True


# ---------------------------------------------------------------------------
# Kripke models


@node
class KripkeModel:
    """Finitely many worlds ordered by information growth.

    `order` holds pairs (lower, upper); we close it reflexively and
    transitively. Inclusion maps are identity embeddings on shared element
    names, so growth means: universes only gain elements, atomic facts only
    become true.
    """

    worlds: tuple[str, ...]
    order: frozenset
    models: Mapping[str, FiniteModel]

    def __post_init__(self):
        object.__setattr__(self, "_up", self._closure())
        self._check_monotone()

    def _closure(self) -> dict[str, frozenset[str]]:
        up = {w: {w} for w in self.worlds}
        for (lo, hi) in self.order:
            if lo not in up or hi not in up:
                raise SemanticsError(f"order mentions unknown world in ({lo}, {hi})")
            up[lo].add(hi)
        for k in self.worlds:  # Warshall: after k, paths through k are closed
            for w in self.worlds:
                if k in up[w]:
                    up[w] |= up[k]
        return {w: frozenset(v) for w, v in up.items()}

    def _check_monotone(self) -> None:
        for w in self.worlds:
            mw = self.models[w]
            for v in self.above(w):
                mv = self.models[v]
                for sort, elems in mw.universes.items():
                    if not set(elems) <= set(mv.universe(sort)):
                        raise SemanticsError(
                            f"universe of {sort} shrinks from world {w} to {v}"
                        )
                for rel, table in mw.relations.items():
                    if not table <= mv.relations.get(rel, frozenset()):
                        raise SemanticsError(
                            f"atomic facts for {rel} are lost from world {w} to {v}"
                        )
                for fn, table in mw.functions.items():
                    upper = mv.functions.get(fn, {})
                    for args, val in table.items():
                        if upper.get(args) != val:
                            raise SemanticsError(
                                f"function {fn} changes on old elements from {w} to {v}"
                            )

    def above(self, w: str) -> frozenset[str]:
        return self._up[w]


def forces(kripke: KripkeModel, world: str, assignment: Assignment, a: Formula) -> bool:
    """The forcing relation; implication and the universal quantifier range
    over all worlds above `world`. Equality is identity of elements."""
    model = kripke.models[world]
    match a:
        case Bot():
            return False
        case Eq() | Rel():
            for var, val in assignment.items():
                if val not in model.universe(var.sort):
                    raise SemanticsError(
                        f"assignment value {val!r} outside universe at world {world}"
                    )
            return holds(model, assignment, a)
        case And(left=l, right=r):
            return forces(kripke, world, assignment, l) and forces(kripke, world, assignment, r)
        case Or(left=l, right=r):
            return forces(kripke, world, assignment, l) or forces(kripke, world, assignment, r)
        case Implies(left=l, right=r):
            return all(
                (not forces(kripke, w, assignment, l)) or forces(kripke, w, assignment, r)
                for w in kripke.above(world)
            )
        case Forall(sort=s):
            from .syntax import open_binder

            x = FVar(f"!q{len(assignment)}", s)
            return all(
                forces(kripke, w, {**assignment, x: d}, open_binder(a, x))
                for w in kripke.above(world)
                for d in kripke.models[w].universe(s)
            )
        case Exists(sort=s):
            from .syntax import open_binder

            x = FVar(f"!q{len(assignment)}", s)
            return any(
                forces(kripke, world, {**assignment, x: d}, open_binder(a, x))
                for d in model.universe(s)
            )
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Countermodel search


def all_models(sig: Signature, max_size: int, sizes: dict | None = None) -> Iterator[FiniteModel]:
    """Every model of the signature with universes of size <= max_size.

    Exhaustive and deterministic; intended for desk-scale signatures only.
    """
    sorts = sorted(sig.sorts, key=lambda s: s.name)
    for dims in itertools.product(range(1, max_size + 1), repeat=len(sorts)):
        universes = {s: tuple(range(n)) for s, n in zip(sorts, dims)}
        fnames = sorted(sig.functions)
        rnames = sorted(sig.relations)
        fn_domains = []
        for f in fnames:
            arg_sorts, res = sig.functions[f]
            inputs = list(itertools.product(*(universes[s] for s in arg_sorts)))
            fn_domains.append((f, inputs, universes[res]))
        rel_domains = []
        for r in rnames:
            arg_sorts = sig.relations[r]
            inputs = list(itertools.product(*(universes[s] for s in arg_sorts)))
            rel_domains.append((r, inputs))

        def fn_tables(i: int):
            if i == len(fn_domains):
                yield {}
                return
            f, inputs, outs = fn_domains[i]
            for rest in fn_tables(i + 1):
                for choice in itertools.product(outs, repeat=len(inputs)):
                    yield {f: dict(zip(inputs, choice)), **rest}

        def rel_tables(i: int):
            if i == len(rel_domains):
                yield {}
                return
            r, inputs = rel_domains[i]
            for rest in rel_tables(i + 1):
                for bits in itertools.product((False, True), repeat=len(inputs)):
                    table = frozenset(t for t, b in zip(inputs, bits) if b)
                    yield {r: table, **rest}

        for fns in fn_tables(0):
            for rels in rel_tables(0):
                yield FiniteModel(universes=universes, functions=fns, relations=rels)


def search_countermodel(
    sig: Signature,
    axioms: Iterable[Formula],
    goal: Formula,
    max_size: int,
) -> FiniteModel | None:
    """A model of the axioms falsifying the goal, if one exists with all
    universes of size <= max_size; None on exhaustion."""
    if max_size < 1:
        raise SemanticsError("max_size must be at least 1")
    axioms = list(axioms)
    ground = _as_ground_equations(axioms, goal)
    if ground is not None:
        from .groundsearch import ground_countermodel

        eqs, goal_eq = ground
        return ground_countermodel(sig, eqs, goal_eq, max_size)
    for model in all_models(sig, max_size):
        if all(valid_in(model, a) for a in axioms) and not valid_in(model, goal):
            return model
    return None


def _is_ground(t: Term) -> bool:
    match t:
        case App(args=args):
            return all(_is_ground(a) for a in args)
        case _:
            return False


def _as_ground_equations(axioms, goal):
    eqs = []
    for a in axioms:
        if not (isinstance(a, Eq) and _is_ground(a.lhs) and _is_ground(a.rhs)):
            return None
    if not (isinstance(goal, Eq) and _is_ground(goal.lhs) and _is_ground(goal.rhs)):
        return None
    return [(a.lhs, a.rhs) for a in axioms], (goal.lhs, goal.rhs)
