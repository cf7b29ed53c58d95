"""Countermodel search specialized to ground equations.

This is the hot kernel behind `search_countermodel` on congruence-closure
problems: a depth-first search over interpretations that decides constant
values and function-table entries on demand, checking each equation as soon
as both sides are evaluable.

The search uses the least-number heuristic of Paradox (Claessen & Sörensson,
2003) and Mace4: a fresh constant or table entry only tries the values
0..m+1, where m is the largest value used so far. This cut does not change
the model returned. The plain DFS, which tries every value in ascending
order, returns the lexicographically least satisfying value vector. Suppose
that vector gave some fresh entry a value v above m+1. Swapping v and m+1
in that entry's universe maps the model to another model of the same
equations. The swap leaves every earlier value alone (all are at most m)
and lowers this one, so the result is a smaller satisfying vector, which
is a contradiction. The least vector therefore lies inside the cut, and
the cut search returns it.
"""

from __future__ import annotations

import itertools

from ..errors import SemanticsError
from .semantics import FiniteModel
from .syntax import App, Signature, Term


def _lower(eqs, goal):
    """Hash-cons the subterm DAG and schedule constraint checks.

    Returns (nodes, checks, order_terms): nodes[i] = (symbol, child positions),
    children always appear before parents; checks[i] = constraints that become
    decidable once position i is assigned, as (lpos, rpos, required_equal).
    """
    node_of: dict[Term, int] = {}
    nodes: list[tuple[str, tuple[int, ...]]] = []
    order_terms: list[Term] = []

    def add(t: Term) -> int:
        if t in node_of:
            return node_of[t]
        if not isinstance(t, App):
            raise SemanticsError("congruence-closure problems must be ground", tag="non-ground")
        kids = tuple(add(a) for a in t.args)
        node_of[t] = len(nodes)
        nodes.append((t.fn, kids))
        order_terms.append(t)
        return node_of[t]

    checks: list[list[tuple[int, int, bool]]] = []
    constraints = [(l, r, True) for (l, r) in eqs] + [(goal[0], goal[1], False)]
    pending = []
    for (l, r, want) in constraints:
        li, ri = add(l), add(r)
        pending.append((li, ri, want))
    checks = [[] for _ in nodes]
    for (li, ri, want) in pending:
        checks[max(li, ri)].append((li, ri, want))
    return nodes, checks, order_terms


def _search(nodes, checks, k: int):
    """The least satisfying value vector over a universe of size k, or None."""
    n = len(nodes)
    val = [0] * n
    table: dict[tuple, int] = {}

    def go(pos: int, top: int) -> bool:
        # values 0..top-1 are in use; a fresh key may take at most top
        if pos == n:
            return True
        sym, kids = nodes[pos]
        key = (sym, tuple(val[c] for c in kids))
        fresh = key not in table
        candidates = range(min(k, top + 1)) if fresh else (table[key],)
        for v in candidates:
            val[pos] = v
            if fresh:
                table[key] = v
            ok = True
            for (l, r, want) in checks[pos]:
                if (val[l] == val[r]) != want:
                    ok = False
                    break
            if ok and go(pos + 1, max(top, v + 1)):
                return True
            if fresh:
                del table[key]
        return False

    return val if go(0, 0) else None


def ground_countermodel(sig: Signature, eqs, goal, max_size: int) -> FiniteModel | None:
    """A model of the ground equations falsifying the goal equation, searched
    over universes of sizes 1..max_size; None if there is none."""
    nodes, checks, order_terms = _lower(eqs, goal)
    for k in range(1, max_size + 1):
        val = _search(nodes, checks, k)
        if val is None:
            continue
        return _build_model(sig, nodes, order_terms, val, k)
    return None


def _build_model(sig: Signature, nodes, order_terms, val, k: int) -> FiniteModel:
    universes = {s: tuple(range(k)) for s in sig.sorts}
    functions: dict[str, dict[tuple, int]] = {}
    for f, (arg_sorts, _res) in sig.functions.items():
        functions[f] = {
            args: 0 for args in itertools.product(*(universes[s] for s in arg_sorts))
        }
    for pos, (sym, kids) in enumerate(nodes):
        functions[sym][tuple(val[c] for c in kids)] = val[pos]
    relations = {r: frozenset() for r in sig.relations}
    return FiniteModel(universes=universes, functions=functions, relations=relations)
