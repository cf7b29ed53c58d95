"""Congruence closure for ground equational entailment.

Union-find with congruence propagation over the hash-consed subterm DAG.
Decides the universal fragment after the caller freezes quantified variables
to fresh constants. On a negative answer the final partition of subterms is
returned; it induces a finite countermodel (see `model_from_partition`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import SemanticsError
from .semantics import FiniteModel
from .syntax import App, Signature, Term, pretty_term


@dataclass(frozen=True)
class CCResult:
    """Whether the goal equation follows, and the subterm partition when it does not."""

    valid: bool
    partition: tuple[frozenset, ...] | None = None

    def __bool__(self) -> bool:
        return self.valid


def _check_ground(t: Term) -> None:
    if not isinstance(t, App):
        raise SemanticsError(
            f"congruence closure needs ground terms, got {pretty_term(t)}",
            tag="non-ground",
        )
    for a in t.args:
        _check_ground(a)


class _Closure:
    def __init__(self):
        self.ids: dict[Term, int] = {}
        self.terms: list[Term] = []
        self.parent: list[int] = []
        self.class_parents: dict[int, list[int]] = {}
        self.sig_table: dict[tuple, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def intern(self, t: App) -> int:
        if t in self.ids:
            return self.ids[t]
        kid_ids = [self.intern(a) for a in t.args]
        i = len(self.terms)
        self.ids[t] = i
        self.terms.append(t)
        self.parent.append(i)
        self.class_parents[i] = []
        for k in kid_ids:
            self.class_parents[self.find(k)].append(i)
        key = self.signature_of(i)
        other = self.sig_table.get(key)
        if other is None:
            self.sig_table[key] = i
        else:
            self.merge(other, i)
        return i

    def signature_of(self, i: int) -> tuple:
        t = self.terms[i]
        return (t.fn, tuple(self.find(self.ids[a]) for a in t.args))

    def merge(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            pa = self.class_parents.pop(ra, [])
            pb = self.class_parents.pop(rb, [])
            self.parent[rb] = ra
            self.class_parents[ra] = pa + pb
            for p in pa + pb:
                key = self.signature_of(p)
                other = self.sig_table.get(key)
                if other is None:
                    self.sig_table[key] = p
                elif self.find(other) != self.find(p):
                    queue.append((other, p))


def congruence_closure(equations, goal) -> CCResult:
    """Is the goal equation entailed by the equations over all models?

    equations: iterable of (lhs, rhs) ground term pairs; goal likewise.
    Valid iff the goal sides end up in the same congruence class; otherwise
    the final partition of all subterms comes back as a countermodel skeleton.
    """
    equations = list(equations)
    for (l, r) in [*equations, goal]:
        _check_ground(l)
        _check_ground(r)

    cc = _Closure()
    for (l, r) in [*equations, goal]:
        cc.intern(l)
        cc.intern(r)
    for (l, r) in equations:
        cc.merge(cc.ids[l], cc.ids[r])

    if cc.find(cc.ids[goal[0]]) == cc.find(cc.ids[goal[1]]):
        return CCResult(valid=True)
    groups: dict[int, list[Term]] = {}
    for t, i in cc.ids.items():
        groups.setdefault(cc.find(i), []).append(t)
    partition = tuple(frozenset(g) for g in groups.values())
    return CCResult(valid=False, partition=partition)


def model_from_partition(sig: Signature, partition) -> FiniteModel:
    """Quotient countermodel skeleton: universe = classes, tables read off the
    subterm structure, defaulted to class 0 away from the covered entries."""
    classes = list(partition)
    index = {}
    for ci, group in enumerate(classes):
        for t in group:
            index[t] = ci
    k = len(classes)
    universes = {s: tuple(range(k)) for s in sig.sorts}
    functions: dict[str, dict[tuple, int]] = {}
    for f, (arg_sorts, _res) in sig.functions.items():
        functions[f] = {
            args: 0 for args in itertools.product(*(universes[s] for s in arg_sorts))
        }
    for t, ci in index.items():
        functions[t.fn][tuple(index[a] for a in t.args)] = ci
    relations = {r: frozenset() for r in sig.relations}
    return FiniteModel(universes=universes, functions=functions, relations=relations)
